// hbench: the end-to-end benchmark of the scheduler libraries.
//
//   hbench --workload NAME --seed N --seconds S --trace 0|1
//   hbench --selftest
//
// --trace 0 prints the end-to-end metrics, measured on untraced, undecorated drives;
// --trace 1 prints the per-layer metrics of a separate traced drive of the same seed.
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}
// Lines before it give the machine context and the run's digest and checks.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "perfbench/measure.h"
#include "perfbench/probes.h"
#include "perfbench/selftest.h"
#include "perfbench/workloads.h"

namespace hbench {
namespace {

// A run times at least this many plain drives, and keeps driving until --seconds pass.
constexpr int kMinTimedDrives = 2;
// After each drive, set-up alone is timed up to this many more times while that costs
// under a tenth of the drive, so cheap set-ups get samples spread over the whole run.
constexpr int kMaxExtraSetups = 4;
constexpr double kExtraSetupShare = 0.1;
// Every workload must leave at least ten samples beyond the p99.99 wakeup latency.
constexpr uint64_t kMinWakeups = 100000;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// JSON has no NaN or infinity; a run that failed its checks can produce them.
std::string Num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), std::isfinite(v) ? v : 0.0);
  return std::string(buf, res.ptr);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
    }
    out += static_cast<unsigned char>(ch) < 0x20 ? ' ' : ch;
  }
  return out + "\"";
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) {
    return 0.0;
  }
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    }
    std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
    model.erase(model.find_last_not_of(std::string("\0 ", 2)) + 1);
    model.erase(0, model.find_first_not_of(' '));
    return model;
  }
#endif
  return "unknown";
}

void PrintMachine() {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  const long llc = std::max({sysconf(_SC_LEVEL3_CACHE_SIZE), sysconf(_SC_LEVEL2_CACHE_SIZE), 0L});
  std::printf(
      "machine {\"nproc\": %u, \"cpu\": %s, \"llc_bytes\": %ld, \"compiler\": %s, "
      "\"build_type\": %s, \"build_flags\": %s}\n",
      std::thread::hardware_concurrency(), JsonString(CpuModel()).c_str(), llc,
      JsonString(compiler).c_str(), JsonString(HBENCH_BUILD_TYPE).c_str(),
      JsonString(HBENCH_BUILD_FLAGS).c_str());
}

void PrintResult(const Checks& checks, const Ops& ops, const std::vector<Metric>& metrics) {
  for (const std::string& f : checks.failures()) {
    std::printf("check failed: %s\n", f.c_str());
  }
  std::printf("ops wakeups=%llu jobs=%llu late_jobs=%llu frames=%llu late_frames=%llu "
              "writes=%llu refused_writes=%llu\n",
              static_cast<unsigned long long>(ops.wakeups),
              static_cast<unsigned long long>(ops.jobs),
              static_cast<unsigned long long>(ops.late_jobs),
              static_cast<unsigned long long>(ops.frames),
              static_cast<unsigned long long>(ops.late_frames),
              static_cast<unsigned long long>(ops.writes),
              static_cast<unsigned long long>(ops.refused_writes));
  const uint64_t attempted = std::max<uint64_t>(1, ops.attempted());
  const uint64_t failed = checks.ok() ? ops.failed() : attempted;
  std::string json = "{\"correct\": " + std::string(checks.ok() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "" : ", ") + JsonString(metrics[i].name) + ": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

// Checks every run makes of the ops of one seed.
void CheckOps(const Ops& ops, Checks* checks) {
  checks->Expect(ops.wakeups >= kMinWakeups, "fewer than 1e5 wakeups");
  checks->Expect(ops.refused_writes == 0, "admin writes were refused");
}

// Plain drives of one seed, repeated while the next one still ends within `seconds`
// (judged by the last one's length), and at least `min_drives` times, with extra
// set-ups timed in between.
struct TimedDrives {
  std::vector<double> drive_s;
  std::vector<double> generate_s;  // every set-up timed: the drives' and the extra ones
  std::vector<double> build_s;
  double horizon_s = 0.0;
  Digest digest;
  Ops ops;
  // Taken after the first drive, before the heap's later history (which varies with
  // how many drives fit the run) can move it.
  double peak_rss_mb = 0.0;

  // Simulated seconds per host second over all drives. The host's speed drifts by
  // tens of percent within seconds (other tenants, clock boost), so the total over
  // every drive is steadier than any one drive or their median.
  double SimSpeed() const {
    double host_s = 0.0;
    for (const double d : drive_s) {
      host_s += d;
    }
    return horizon_s * static_cast<double>(drive_s.size()) / host_s;
  }
  std::vector<double> SetupSeconds() const {
    std::vector<double> s;
    for (size_t i = 0; i < generate_s.size(); ++i) {
      s.push_back(generate_s[i] + build_s[i]);
    }
    return s;
  }
};

TimedDrives RunTimedDrives(const WorkloadDef& def, uint64_t seed, double seconds,
                           int min_drives, Checks* checks) {
  TimedDrives t;
  const int64_t start = HostNs();
  double last_cycle_s = 0.0;
  while (checks->ok() && (static_cast<int>(t.drive_s.size()) < min_drives ||
                          SecondsSince(start) + last_cycle_s <= seconds)) {
    const int64_t cycle_start = HostNs();
    const PlainCycle c = RunPlainCycle(def, seed, checks);
    if (t.drive_s.empty()) {
      t.digest = c.digest;
      t.ops = c.ops;
      t.horizon_s = c.horizon_s;
      t.peak_rss_mb = PeakRssMb();
    }
    checks->Expect(c.digest == t.digest, "plain drives of one seed disagree");
    t.drive_s.push_back(c.drive_s);
    t.generate_s.push_back(c.generate_s);
    t.build_s.push_back(c.build_s);
    const double setup_s = c.generate_s + c.build_s;
    const int64_t extra_start = HostNs();
    for (int i = 0; i < kMaxExtraSetups && checks->ok() &&
                    SecondsSince(extra_start) + setup_s <= kExtraSetupShare * c.drive_s;
         ++i) {
      const auto built = BuildInstance(def, seed, {});
      checks->Expect(built.status(), "build");
      if (built.ok()) {
        t.generate_s.push_back((*built)->generate_s);
        t.build_s.push_back((*built)->build_s);
      }
    }
    last_cycle_s = SecondsSince(cycle_start);
  }
  return t;
}

int EndToEnd(const WorkloadDef& def, uint64_t seed, double seconds) {
  Checks checks;
  const TimedDrives t = RunTimedDrives(def, seed, seconds, kMinTimedDrives, &checks);
  const std::vector<double> setups = t.SetupSeconds();

  ProbedCycle probed = RunProbedCycle(def, seed, &checks);
  checks.Expect(probed.digest == t.digest, "decorated drive changed the simulated digest");
  checks.Expect(probed.ops == t.ops, "decorated drive changed the ops");
  CheckOps(t.ops, &checks);
  const size_t samples = probed.latencies.size();
  const auto wake_ms = [&probed](uint32_t per_10k) {
    return static_cast<double>(NearestRank(probed.latencies, per_10k)) * 1e-6;
  };
  // The mean, not the median, stands for the bulk of the latencies: on tenants-1e6 most
  // wakeups are dispatched at once, so the median and the 75th percentile are 0.
  const double wake_mean_ms =
      std::accumulate(probed.latencies.begin(), probed.latencies.end(), 0.0) * 1e-6 /
      static_cast<double>(std::max<size_t>(1, samples));

  std::printf("workload %s seed %llu: %zu timed drives, %zu set-ups\n", def.name.c_str(),
              static_cast<unsigned long long>(seed), t.drive_s.size(), setups.size());
  // perfbench/reference.json records this line's values for the default seed.
  std::printf("digest {\"workload\": %s, \"seed\": %llu, \"hash\": \"%s\", \"dispatches\": %llu, "
              "\"wakeups\": %llu}\n",
              JsonString(def.name).c_str(), static_cast<unsigned long long>(seed),
              t.digest.Hex().c_str(), static_cast<unsigned long long>(t.digest.dispatches),
              static_cast<unsigned long long>(t.digest.wakeups));
  std::printf("wake latency over %zu samples (ms): mean %.4f p50 %.4f p90 %.4f p99 %.4f "
              "p99.9 %.4f p99.99 %.4f\n",
              samples, wake_mean_ms, wake_ms(5000), wake_ms(9000), wake_ms(9900), wake_ms(9990),
              wake_ms(9999));
  PrintResult(checks, t.ops,
              {{"sim_speed", t.SimSpeed(), "sim_s/s"},
               {"setup_s", Median(setups), "s"},
               {"peak_rss_mb", t.peak_rss_mb, "MB"},
               {"wake_mean_ms", wake_mean_ms, "sim_ms"},
               {"wake_p99_ms", wake_ms(9900), "sim_ms"}});
  return 0;
}

int Layers(const WorkloadDef& def, uint64_t seed, double seconds) {
  Checks checks;
  const double clock_ns = CalibrateClockNs();
  const TimedDrives t = RunTimedDrives(def, seed, seconds / 2, 1, &checks);
  const double untraced_s = t.horizon_s / t.SimSpeed();
  TracedCycle tr = RunTracedCycle(def, seed, &checks);
  checks.Expect(tr.digest == t.digest, "traced drive changed the simulated digest");
  checks.Expect(tr.ops == t.ops, "traced drive changed the ops");
  CheckOps(t.ops, &checks);

  // A timed leaf call nested in a timed hook costs the hook its own interval plus one
  // more clock-read interval.
  const double leaf_in_hooks_ns =
      static_cast<double>(tr.replica_leaf.pick.raw_ns + tr.replica_leaf.charge.raw_ns +
                          tr.replica_leaf.runnable.raw_ns) +
      static_cast<double>(tr.replica_leaf.pick.calls + tr.replica_leaf.charge.calls +
                          tr.replica_leaf.runnable.calls) *
          clock_ns;
  const CallStats hooks = tr.replay.Hooks();
  const double hsfq_self =
      std::max(0.0, hooks.NetSeconds(clock_ns) - leaf_in_hooks_ns * 1e-9);

  LeafClassStats sched;
  double class_self[kLeafClassCount] = {};
  for (size_t i = 0; i < kLeafClassCount; ++i) {
    const LeafClassStats& s = tr.live_leaf[i];
    sched.pick.Merge(s.pick);
    sched.charge.Merge(s.charge);
    sched.runnable.Merge(s.runnable);
    class_self[i] = s.pick.NetSeconds(clock_ns) + s.charge.NetSeconds(clock_ns) +
                    s.runnable.NetSeconds(clock_ns);
  }
  double sched_self = 0.0;
  for (const double s : class_self) {
    sched_self += s;
  }
  const double workload_self = tr.workload.NetSeconds(clock_ns);

  std::printf("workload %s seed %llu: %zu untraced drives, digest %s, clock %.1f ns, "
              "traced drive %.3f s, replayed picks %llu\n",
              def.name.c_str(), static_cast<unsigned long long>(seed), t.drive_s.size(),
              tr.digest.Hex().c_str(), clock_ns, tr.drive_s,
              static_cast<unsigned long long>(tr.replay.picks));
  const auto count = [](uint64_t v) { return static_cast<double>(v); };
  PrintResult(
      checks, tr.ops,
      {
          {"hsfq.setrun.calls", count(tr.replay.setrun.calls), "count"},
          {"hsfq.setrun.ns", tr.replay.setrun.MeanNs(clock_ns), "ns"},
          {"hsfq.schedule.calls", count(tr.replay.schedule.calls), "count"},
          {"hsfq.schedule.ns", tr.replay.schedule.MeanNs(clock_ns), "ns"},
          {"hsfq.update.calls", count(tr.replay.update.calls), "count"},
          {"hsfq.update.ns", tr.replay.update.MeanNs(clock_ns), "ns"},
          {"hsfq.admin.calls", count(tr.replay.admin.calls), "count"},
          {"hsfq.admin.ns", tr.replay.admin.MeanNs(clock_ns), "ns"},
          {"hsfq.self_s", hsfq_self, "s"},
          {"hsfq.replay_mismatches", count(tr.replay.mismatches), "count"},
          {"hsfq.dirty.marks", count(tr.dirty_marks), "count"},
          {"hsfq.dirty.appends", count(tr.dirty_appends), "count"},
          {"hsfq.bytes_per_leaf", tr.bytes_per_leaf, "B"},
          {"sched.pick.calls", count(sched.pick.calls), "count"},
          {"sched.pick.ns", sched.pick.MeanNs(clock_ns), "ns"},
          {"sched.charge.calls", count(sched.charge.calls), "count"},
          {"sched.charge.ns", sched.charge.MeanNs(clock_ns), "ns"},
          {"sched.runnable.calls", count(sched.runnable.calls), "count"},
          {"sched.runnable.ns", sched.runnable.MeanNs(clock_ns), "ns"},
          {"sched.self_s", sched_self, "s"},
          {"sched.sfq.self_s", class_self[static_cast<size_t>(LeafClass::kSfq)], "s"},
          {"sched.ts.self_s", class_self[static_cast<size_t>(LeafClass::kTs)], "s"},
          {"sched.edf.self_s", class_self[static_cast<size_t>(LeafClass::kEdf)], "s"},
          {"sim.workload.calls", count(tr.workload.calls), "count"},
          {"sim.workload.self_s", workload_self, "s"},
          {"sim.shard.reconcile_rounds", count(tr.reconcile_rounds), "count"},
          {"sim.shard.entries_processed", count(tr.entries_processed), "count"},
          {"sim.shard.full_resyncs", count(tr.full_resyncs), "count"},
          {"sim.shard.subtree_resyncs", count(tr.subtree_resyncs), "count"},
          {"sim.shard.swept_leaves", count(tr.swept_leaves), "count"},
          {"sim.shard.steals", count(tr.steals), "count"},
          {"sim.shard.migrations", count(tr.migrations), "count"},
          {"sim.unattributed_s", untraced_s - hsfq_self - sched_self - workload_self, "s"},
          {"sim.scenario.generate_s", Median(t.generate_s), "s"},
          {"sim.scenario.build_s", Median(t.build_s), "s"},
          {"sim.latency_samples_mb", tr.latency_samples_mb, "MB"},
          {"sim.dispatches", count(tr.digest.dispatches), "count"},
          {"sim.wakeups", count(tr.digest.wakeups), "count"},
          {"sim.wake_samples", count(tr.latencies.size()), "count"},
          {"sim.wake_p50_ms", static_cast<double>(NearestRank(tr.latencies, 5000)) * 1e-6,
           "sim_ms"},
          {"sim.wake_p9999_ms", static_cast<double>(NearestRank(tr.latencies, 9999)) * 1e-6,
           "sim_ms"},
          {"sim.interrupts", count(tr.interrupts), "count"},
          {"trace.events", count(tr.trace_events), "count"},
          {"trace.dropped", count(tr.trace_dropped), "count"},
          {"trace.overhead_pct", 100.0 * (tr.drive_s - untraced_s) / untraced_s, "%"},
      });
  return 0;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1\n"
               "       %s --selftest\nworkloads:",
               argv0, argv0);
  for (const WorkloadDef& d : Workloads()) {
    std::fprintf(stderr, " %s", d.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseUint(const char* s, uint64_t* out) {
  const char* end = s + std::strlen(s);
  const auto res = std::from_chars(s, end, *out);
  return res.ec == std::errc() && res.ptr == end;
}

}  // namespace
}  // namespace hbench

int main(int argc, char** argv) {
  using namespace hbench;
  std::string workload;
  uint64_t seed = 0;
  uint64_t seconds = 0;
  uint64_t trace = 2;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      return RunSelfTest();
    }
    if (i + 1 >= argc) {
      return Usage(argv[0]);
    }
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed" && ParseUint(value, &seed)) {
      have_seed = true;
    } else if (arg == "--seconds" && ParseUint(value, &seconds) && seconds > 0) {
      have_seconds = true;
    } else if (arg != "--trace" || !ParseUint(value, &trace) || trace > 1) {
      return Usage(argv[0]);
    }
  }
  const WorkloadDef* def = FindWorkload(workload);
  if (def == nullptr || !have_seed || !have_seconds || trace > 1) {
    return Usage(argv[0]);
  }
  PrintMachine();
  return trace == 0 ? EndToEnd(*def, seed, static_cast<double>(seconds))
                    : Layers(*def, seed, static_cast<double>(seconds));
}

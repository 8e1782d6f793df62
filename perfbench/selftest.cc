#include "perfbench/selftest.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "perfbench/measure.h"
#include "perfbench/probes.h"
#include "perfbench/workloads.h"
#include "src/common/prng.h"

namespace hbench {
namespace {

using hscommon::kMillisecond;
using hscommon::kSecond;

class Report {
 public:
  void Check(bool ok, const std::string& what) {
    std::printf("%s  %s\n", ok ? "PASS" : "FAIL", what.c_str());
    failures_ += ok ? 0 : 1;
  }
  int failures() const { return failures_; }

 private:
  int failures_ = 0;
};

void TestNearestRank(Report* r) {
  std::vector<int64_t> ten = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  // Ranks ceil(q * 10): p50 -> 5th, p99.99 -> 10th, p0.01 -> 1st.
  r->Check(NearestRank(ten, 5000) == 5, "nearest rank: p50 of 1..10 is 5");
  r->Check(NearestRank(ten, 9999) == 10, "nearest rank: p99.99 of 1..10 is 10");
  r->Check(NearestRank(ten, 1) == 1, "nearest rank: p0.01 of 1..10 is 1");
  std::vector<int64_t> three = {30, 10, 20};
  r->Check(NearestRank(three, 5000) == 20, "nearest rank: p50 of {10,20,30} is 20");
  // 20000 samples: p99.99 has rank ceil(19998.0) = 19998, leaving two samples beyond.
  std::vector<int64_t> many(20000);
  std::iota(many.begin(), many.end(), int64_t{1});
  hscommon::Prng prng(3);
  for (size_t i = many.size() - 1; i > 0; --i) {
    std::swap(many[i], many[prng.UniformU64(i + 1)]);
  }
  r->Check(NearestRank(many, 9999) == 19998, "nearest rank: p99.99 of 1..20000 is 19998");
  r->Check(NearestRank(many, 5000) == 10000, "nearest rank: p50 of 1..20000 is 10000");
  std::vector<int64_t> none;
  r->Check(NearestRank(none, 5000) == 0, "nearest rank: no samples gives 0");
}

void TestApparatus(const WorkloadDef& def, Report* r) {
  constexpr uint64_t kSeed = 7;
  Checks checks;
  const PlainCycle plain = RunPlainCycle(def, kSeed, &checks);
  const ProbedCycle probed = RunProbedCycle(def, kSeed, &checks);
  const TracedCycle traced = RunTracedCycle(def, kSeed, &checks);
  const std::string& n = def.name;
  r->Check(plain.digest.dispatches > 0 && plain.ops.wakeups > 0,
           n + ": the drive dispatches and wakes threads");
  r->Check(probed.digest == plain.digest, n + ": decorators leave the digest unchanged");
  const int64_t max_latency =
      probed.latencies.empty()
          ? 0
          : *std::max_element(probed.latencies.begin(), probed.latencies.end());
  const double sum_latency = std::accumulate(probed.latencies.begin(), probed.latencies.end(), 0.0);
  r->Check(probed.latencies.size() == probed.sim_latency_count &&
               sum_latency == probed.sim_latency_sum &&
               static_cast<double>(max_latency) == probed.sim_latency_max,
           n + ": decorator latency equals ThreadStats::sched_latency (" +
               std::to_string(probed.latencies.size()) + " samples)");
  r->Check(traced.replay.picks > 0 && traced.replay.mismatches == 0,
           n + ": replay reproduces every pick (" + std::to_string(traced.replay.picks) +
               " picks, " + std::to_string(traced.replay.admin.calls) + " admin writes)");
  r->Check(traced.digest == plain.digest, n + ": the traced drive leaves the digest unchanged");
  r->Check(traced.trace_dropped == 0 && traced.trace_events > 0,
           n + ": the tracer kept every event");
  for (const std::string& f : checks.failures()) {
    std::printf("      %s: %s\n", n.c_str(), f.c_str());
  }
  r->Check(checks.ok(), n + ": run checks (invariants, replica call counts)");
}

}  // namespace

int RunSelfTest() {
  Report r;
  TestNearestRank(&r);

  const WorkloadDef one_cpu{"toy-workstation", [](uint64_t seed) {
                              return MakeWorkstation(
                                  {.users = 2, .decoders = 1, .horizon = 30 * kSecond}, seed);
                            }};
  TenantsShape toy;
  toy.tenants = 4;
  toy.users = 10;
  toy.sessions = 3;
  toy.horizon = 3 * kSecond;
  const WorkloadDef shared{"toy-4cpu-shared", [toy](uint64_t seed) { return MakeTenants(toy, seed); }};
  TenantsShape toy_sharded = toy;
  toy_sharded.sharded = true;
  toy_sharded.storm_period = 10 * kMillisecond;
  const WorkloadDef sharded{"toy-4cpu-sharded",
                            [toy_sharded](uint64_t seed) { return MakeTenants(toy_sharded, seed); }};
  for (const WorkloadDef* def : {&one_cpu, &shared, &sharded}) {
    TestApparatus(*def, &r);
  }
  std::printf("%s: %d failed\n", r.failures() == 0 ? "selftest passed" : "selftest FAILED",
              r.failures());
  return r.failures() == 0 ? 0 : 1;
}

}  // namespace hbench

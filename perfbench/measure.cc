#include "perfbench/measure.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "src/sim/shard.h"

namespace hbench {

void Checks::Expect(bool ok, const std::string& what) {
  if (!ok) {
    failures_.push_back(what);
  }
}

void Checks::Expect(const hscommon::Status& s, const std::string& what) {
  if (!s.ok()) {
    failures_.push_back(what + ": " + s.ToString());
  }
}

hscommon::StatusOr<std::unique_ptr<Instance>> BuildInstance(const WorkloadDef& def,
                                                            uint64_t seed,
                                                            const Probes& probes) {
  auto inst = std::make_unique<Instance>();
  const int64_t t0 = CpuNs();
  inst->inputs = def.generate(seed);
  Inputs& in = *inst->inputs;
  if (probes.workloads != nullptr) {
    for (hsim::ScenarioThreadSpec& t : in.scenario.threads) {
      t.make_workload = [make = std::move(t.make_workload), stats = probes.workloads] {
        return TimedWorkload(make(), stats);
      };
    }
  }
  const int64_t t1 = CpuNs();
  inst->sys = std::make_unique<hsim::System>(in.config);
  hsim::System& sys = *inst->sys;
  const hsim::LeafSchedulerFactory factory =
      probes.leaves != nullptr ? TimedLeafFactory(in.factory, probes.leaves) : in.factory;
  auto binding = hsim::BuildScenario(in.scenario, "sfq", factory, sys);
  if (!binding.ok()) {
    return binding.status();
  }
  for (const hsim::InterruptSourceConfig& irq : in.interrupts) {
    sys.AddInterruptSource(irq);
  }
  AdminLog* log = &inst->admin;
  log->set_weight_times.reserve(in.admin.size());
  for (const AdminWrite& w : in.admin) {
    const auto node = binding->nodes.find(w.node);
    if (node == binding->nodes.end()) {
      return hscommon::InvalidArgument("admin write names unknown node " + w.node);
    }
    const hsfq::NodeId id = node->second;
    if (w.kind == AdminWrite::Kind::kReweight) {
      const hscommon::Weight weight = w.weight;
      sys.At(w.at, [log, id, weight](hsim::System& s) {
        ++log->issued;
        if (s.tree().SetNodeWeight(id, weight).ok()) {
          log->set_weight_times.push_back(s.now());
        } else {
          ++log->refused;
        }
      });
      continue;
    }
    const auto to = binding->nodes.find(w.to);
    if (to == binding->nodes.end()) {
      return hscommon::InvalidArgument("admin write names unknown node " + w.to);
    }
    const hsfq::NodeId dest = to->second;
    sys.At(w.at, [log, id, dest](hsim::System& s) {
      ++log->issued;
      if (!s.tree().MoveNode(id, dest, s.now()).ok()) {
        ++log->refused;
      }
    });
  }
  const int64_t t2 = CpuNs();
  inst->generate_s = static_cast<double>(t1 - t0) * 1e-9;
  inst->build_s = static_cast<double>(t2 - t1) * 1e-9;
  in.scenario = hsim::ScenarioSpec{};  // only needed to build
  return inst;
}

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(hash));
  return buf;
}

Digest SimDigest(const hsim::System& sys) {
  Digest d;
  uint64_t h = 1469598103934665603ULL;  // FNV-1a
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (hsfq::ThreadId t = 0; t < sys.ThreadCount(); ++t) {
    const hsim::ThreadStats& s = sys.StatsOf(t);
    mix(static_cast<uint64_t>(s.total_service));
    mix(s.dispatches);
    mix(s.wakeups);
    d.dispatches += s.dispatches;
    d.wakeups += s.wakeups;
  }
  mix(static_cast<uint64_t>(sys.now()));
  mix(sys.interrupt_count());
  d.hash = h;
  return d;
}

Ops CountOps(const Instance& inst) {
  Ops ops;
  const hsim::System& sys = *inst.sys;
  for (hsfq::ThreadId t = 0; t < sys.ThreadCount(); ++t) {
    const hsim::ThreadStats& s = sys.StatsOf(t);
    ops.wakeups += s.wakeups;
    ops.jobs += s.deadline_jobs;
    ops.late_jobs += s.deadline_misses;
  }
  for (const hmpeg::MpegPlayerWorkload* p : inst.inputs->players) {
    ops.frames += p->frames_decoded();
    ops.late_frames += p->late_frames();
  }
  ops.writes = inst.admin.issued;
  ops.refused_writes = inst.admin.refused;
  return ops;
}

namespace {

// Bytes the simulator keeps in per-thread latency sample vectors; 0 if ThreadStats no
// longer keeps them.
template <typename Stats>
size_t LatencySampleBytes(const Stats& s) {
  if constexpr (requires { s.latency_samples.capacity(); }) {
    return s.latency_samples.capacity() * sizeof(s.latency_samples[0]);
  } else {
    return 0;
  }
}

// Builds, or records why it could not.
std::unique_ptr<Instance> Build(const WorkloadDef& def, uint64_t seed, const Probes& probes,
                                Checks* checks) {
  auto built = BuildInstance(def, seed, probes);
  if (!built.ok()) {
    checks->Expect(built.status(), "build");
    return nullptr;
  }
  checks->Expect((*built)->sys->tree().CheckInvariants(), "invariants after build");
  return std::move(*built);
}

}  // namespace

PlainCycle RunPlainCycle(const WorkloadDef& def, uint64_t seed, Checks* checks) {
  PlainCycle c;
  const std::unique_ptr<Instance> inst = Build(def, seed, {}, checks);
  if (inst == nullptr) {
    return c;
  }
  c.horizon_s = hscommon::ToSeconds(inst->inputs->horizon);
  c.generate_s = inst->generate_s;
  c.build_s = inst->build_s;
  const int64_t t0 = CpuNs();
  inst->sys->RunUntil(inst->inputs->horizon);
  c.drive_s = CpuSecondsSince(t0);
  checks->Expect(inst->sys->tree().CheckInvariants(), "invariants after the drive");
  c.digest = SimDigest(*inst->sys);
  c.ops = CountOps(*inst);
  return c;
}

ProbedCycle RunProbedCycle(const WorkloadDef& def, uint64_t seed, Checks* checks) {
  ProbedCycle c;
  LeafProbe leaves(/*record_latency=*/true);
  CallStats workloads;
  const std::unique_ptr<Instance> inst = Build(def, seed, {&leaves, &workloads}, checks);
  if (inst == nullptr) {
    return c;
  }
  const hsim::System& sys = *inst->sys;
  inst->sys->RunUntil(inst->inputs->horizon);
  checks->Expect(sys.tree().CheckInvariants(), "invariants after the probed drive");
  c.digest = SimDigest(sys);
  c.ops = CountOps(*inst);
  c.latencies = std::move(leaves.latencies());
  for (hsfq::ThreadId t = 0; t < sys.ThreadCount(); ++t) {
    const hscommon::RunningStats& lat = sys.StatsOf(t).sched_latency;
    c.sim_latency_count += lat.count();
    c.sim_latency_sum += lat.sum();
    c.sim_latency_max = std::max(c.sim_latency_max, lat.max());
  }
  return c;
}

TracedCycle RunTracedCycle(const WorkloadDef& def, uint64_t seed, Checks* checks) {
  TracedCycle c;
  LeafProbe live_leaves(/*record_latency=*/true);
  LeafProbe replica_leaves(/*record_latency=*/false);
  CallStats workloads;
  const std::unique_ptr<Instance> live = Build(def, seed, {&live_leaves, &workloads}, checks);
  const std::unique_ptr<Instance> replica = Build(def, seed, {&replica_leaves, nullptr}, checks);
  if (live == nullptr || replica == nullptr) {
    return c;
  }
  hsim::System& sys = *live->sys;
  const Inputs& in = *live->inputs;
  const uint64_t marks_at_build = sys.tree().DirtyMarkCount();
  const uint64_t appends_at_build = sys.tree().DirtyAppendCount();

  htrace::Tracer tracer(in.trace_ring, sys.ncpus());
  sys.SetTracer(&tracer);
  Replayer replayer(&replica->sys->tree(), in.config.sharded);
  std::vector<htrace::TraceEvent> events;
  size_t next_weight = 0;
  for (Time until = 0; until < in.horizon;) {
    until = std::min(until + in.trace_window, in.horizon);
    const int64_t t0 = CpuNs();
    sys.RunUntil(until);
    c.drive_s += CpuSecondsSince(t0);
    c.trace_dropped += tracer.TotalDropped();
    MergeRings(tracer, live->admin.set_weight_times, &next_weight, &events);
    c.trace_events += events.size() - 1;  // less the ring's start marker
    replayer.Replay(events);
    tracer.Clear();
  }
  sys.SetTracer(nullptr);

  checks->Expect(sys.tree().CheckInvariants(), "invariants after the traced drive");
  checks->Expect(replica->sys->tree().CheckInvariants(), "replica invariants after replay");
  checks->Expect(c.trace_dropped == 0, "tracer dropped events");
  checks->Expect(replayer.stats().mismatches == 0, "replayed picks differ from the live run");
  checks->Expect(replica->sys->tree().schedule_count() == sys.tree().schedule_count() &&
                     replica->sys->tree().update_count() == sys.tree().update_count(),
                 "replica saw a different number of Schedule/Update calls");

  c.digest = SimDigest(sys);
  c.ops = CountOps(*live);
  c.replay = replayer.stats();
  for (size_t i = 0; i < kLeafClassCount; ++i) {
    c.live_leaf[i] = live_leaves.stats(static_cast<LeafClass>(i));
  }
  c.replica_leaf = replica_leaves.Total();
  c.workload = workloads;
  c.latencies = std::move(live_leaves.latencies());
  c.dirty_marks = sys.tree().DirtyMarkCount() - marks_at_build;
  c.dirty_appends = sys.tree().DirtyAppendCount() - appends_at_build;
  c.bytes_per_leaf = static_cast<double>(sys.tree().ArenaFootprintBytes()) /
                     static_cast<double>(std::max<size_t>(1, in.leaves));
  size_t sample_bytes = 0;
  for (hsfq::ThreadId t = 0; t < sys.ThreadCount(); ++t) {
    sample_bytes += LatencySampleBytes(sys.StatsOf(t));
  }
  c.latency_samples_mb = static_cast<double>(sample_bytes) / (1024.0 * 1024.0);
  c.interrupts = sys.interrupt_count();
  if (const hsim::ShardSet* sh = sys.shards(); sh != nullptr) {
    c.reconcile_rounds = sh->reconcile_rounds();
    c.entries_processed = sh->entries_processed();
    c.full_resyncs = sh->full_resyncs();
    c.subtree_resyncs = sh->subtree_resyncs();
    c.swept_leaves = sh->swept_leaves();
  }
  for (int cpu = 0; cpu < sys.ncpus(); ++cpu) {
    c.steals += sys.StealsOn(cpu);
    c.migrations += sys.MigrationsOn(cpu);
  }
  return c;
}

}  // namespace hbench

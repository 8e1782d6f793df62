// Building a workload into a System and the three kinds of run the benchmark makes
// of it: plain (timed), latency-probed, and traced with hook replay.

#ifndef HSCHED_PERFBENCH_MEASURE_H_
#define HSCHED_PERFBENCH_MEASURE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/probes.h"
#include "perfbench/replay.h"
#include "perfbench/workloads.h"
#include "src/common/status.h"
#include "src/sim/system.h"

namespace hbench {

// Admin writes as they were issued during the drive.
struct AdminLog {
  uint64_t issued = 0;
  uint64_t refused = 0;
  // Simulated time of every accepted SetNodeWeight, in issue order (see MergeRings).
  std::vector<Time> set_weight_times;
};

// What to decorate while building; null members build undecorated.
struct Probes {
  LeafProbe* leaves = nullptr;
  CallStats* workloads = nullptr;
};

// A built System with the inputs it was built from. Heap-allocated and immovable: the
// drive's scripted admin events hold a pointer to `admin`.
struct Instance {
  std::unique_ptr<Inputs> inputs;
  AdminLog admin;
  std::unique_ptr<hsim::System> sys;
  double generate_s = 0.0;  // seeded generation of the inputs
  double build_s = 0.0;     // System, tree, leaf schedulers, threads, interrupts, writes
};

// Generates the workload's inputs from `seed` and builds them, timing both steps.
// Checks the structure's invariants after the build (outside the timed steps).
hscommon::StatusOr<std::unique_ptr<Instance>> BuildInstance(const WorkloadDef& def,
                                                            uint64_t seed,
                                                            const Probes& probes);

// The simulated outcome a behaviour-preserving change must leave unchanged: a hash of
// every thread's service, dispatch count and wakeup count, plus the clock and the
// interrupt count.
struct Digest {
  uint64_t hash = 0;
  uint64_t dispatches = 0;
  uint64_t wakeups = 0;
  bool operator==(const Digest&) const = default;
  std::string Hex() const;
};
Digest SimDigest(const hsim::System& sys);

// Ops a run attempted and failed: wakeups, deadline-stamped jobs (real-time jobs and
// paced frames) and admin writes; late jobs and frames and refused writes fail.
struct Ops {
  uint64_t wakeups = 0;
  uint64_t jobs = 0;
  uint64_t late_jobs = 0;
  uint64_t frames = 0;
  uint64_t late_frames = 0;
  uint64_t writes = 0;
  uint64_t refused_writes = 0;
  uint64_t attempted() const { return wakeups + jobs + frames + writes; }
  uint64_t failed() const { return late_jobs + late_frames + refused_writes; }
  bool operator==(const Ops&) const = default;
};
Ops CountOps(const Instance& inst);

// Runs a check and records the first failure.
class Checks {
 public:
  void Expect(bool ok, const std::string& what);
  void Expect(const hscommon::Status& s, const std::string& what);
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

// One untraced, undecorated build + drive: the timed unit of the end-to-end metrics.
struct PlainCycle {
  double horizon_s = 0.0;  // simulated
  double generate_s = 0.0;
  double build_s = 0.0;
  double drive_s = 0.0;
  Digest digest;
  Ops ops;
};
PlainCycle RunPlainCycle(const WorkloadDef& def, uint64_t seed, Checks* checks);

// A build + drive with decorated leaves and workloads (no tracer).
struct ProbedCycle {
  Digest digest;
  Ops ops;
  std::vector<int64_t> latencies;  // wakeup -> first pick, simulated ns
  // Totals the simulator itself keeps over the same wakeups (for the self-test).
  uint64_t sim_latency_count = 0;
  double sim_latency_sum = 0.0;
  double sim_latency_max = 0.0;
};
ProbedCycle RunProbedCycle(const WorkloadDef& def, uint64_t seed, Checks* checks);

// A decorated drive with a tracer attached, replayed window by window into a replica.
struct TracedCycle {
  double drive_s = 0.0;  // host time inside RunUntil only
  Digest digest;
  Ops ops;
  ReplayStats replay;
  LeafClassStats live_leaf[kLeafClassCount];
  LeafClassStats replica_leaf;  // all classes, calls made inside replayed hooks
  CallStats workload;
  std::vector<int64_t> latencies;  // wakeup -> first pick, simulated ns
  uint64_t trace_events = 0;
  uint64_t trace_dropped = 0;
  uint64_t dirty_marks = 0;
  uint64_t dirty_appends = 0;
  double bytes_per_leaf = 0.0;
  double latency_samples_mb = 0.0;
  uint64_t interrupts = 0;
  // Sharded dispatch only.
  uint64_t reconcile_rounds = 0;
  uint64_t entries_processed = 0;
  uint64_t full_resyncs = 0;
  uint64_t subtree_resyncs = 0;
  uint64_t swept_leaves = 0;
  uint64_t steals = 0;
  uint64_t migrations = 0;
};
TracedCycle RunTracedCycle(const WorkloadDef& def, uint64_t seed, Checks* checks);

}  // namespace hbench

#endif  // HSCHED_PERFBENCH_MEASURE_H_

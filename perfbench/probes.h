// Timing probes the benchmark wraps around the libraries' public extension points.
//
// Nothing inside the libraries is instrumented. Leaf schedulers are decorated through
// the LeafSchedulerFactory handed to hsim::BuildScenario, and workloads through
// ScenarioThreadSpec::make_workload. Each decorator forwards every call unchanged and
// times the calls that make up the layer's work, so a decorated run is the same
// simulation as a plain one (the self-test checks that its digest does not move).

#ifndef HSCHED_PERFBENCH_PROBES_H_
#define HSCHED_PERFBENCH_PROBES_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

#include "src/hsfq/leaf_scheduler.h"
#include "src/sim/scenario.h"
#include "src/sim/workload.h"

namespace hbench {

using hscommon::Time;
using hsfq::ThreadId;

inline int64_t HostNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(HostNs() - start_ns) * 1e-9;
}

// CPU time of the calling thread. Set-up and drive times use it rather than wall time:
// on an idle machine the two agree, and it leaves out time the thread was not running.
inline int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

inline double CpuSecondsSince(int64_t start_ns) {
  return static_cast<double>(CpuNs() - start_ns) * 1e-9;
}

// Mean host ns one timed interval adds by itself: two back-to-back HostNs() reads.
// Every per-call figure below has this subtracted once per call.
double CalibrateClockNs();

// Calls of one kind and the host time they took, clock reads included.
struct CallStats {
  uint64_t calls = 0;
  int64_t raw_ns = 0;

  void Add(int64_t ns) {
    ++calls;
    raw_ns += ns;
  }
  void Merge(const CallStats& o) {
    calls += o.calls;
    raw_ns += o.raw_ns;
  }
  // Host seconds spent in the calls, with the clock cost removed (never negative).
  double NetSeconds(double clock_ns) const;
  // Mean host ns per call, with the clock cost removed.
  double MeanNs(double clock_ns) const;
};

// The leaf-scheduler registry classes the benchmark reports separately.
enum class LeafClass { kSfq = 0, kTs = 1, kEdf = 2, kOther = 3 };
inline constexpr size_t kLeafClassCount = 4;
LeafClass LeafClassOf(const std::string& registry_name);

struct LeafClassStats {
  CallStats pick;      // PickNext
  CallStats charge;    // Charge
  CallStats runnable;  // ThreadRunnable
};

// State shared by every decorated leaf of one System: per-class timings and, when
// asked for, the wakeup latency of every thread — simulated ns from ThreadRunnable to
// the PickNext that returns the thread. That is the simulator's wakeup -> first
// dispatch latency, measured at the leaf boundary.
class LeafProbe {
 public:
  explicit LeafProbe(bool record_latency) : record_latency_(record_latency) {}

  LeafProbe(const LeafProbe&) = delete;
  LeafProbe& operator=(const LeafProbe&) = delete;

  void OnRunnable(ThreadId thread, Time now);
  void OnPicked(ThreadId thread, Time now);

  LeafClassStats& stats(LeafClass c) { return classes_[static_cast<size_t>(c)]; }
  const LeafClassStats& stats(LeafClass c) const { return classes_[static_cast<size_t>(c)]; }
  // All classes merged.
  LeafClassStats Total() const;

  std::vector<int64_t>& latencies() { return latencies_; }

 private:
  bool record_latency_;
  std::array<LeafClassStats, kLeafClassCount> classes_;
  std::vector<Time> wake_;  // per thread id; -1 when no wakeup awaits its first pick
  std::vector<int64_t> latencies_;
};

// Wraps `inner` so every leaf it makes reports into `probe`.
hsim::LeafSchedulerFactory TimedLeafFactory(hsim::LeafSchedulerFactory inner,
                                            LeafProbe* probe);

// Wraps a workload so every NextAction call is timed into `stats`.
std::unique_ptr<hsim::Workload> TimedWorkload(std::unique_ptr<hsim::Workload> inner,
                                              CallStats* stats);

// Nearest-rank percentile of `samples` at `per_10k` / 10000 (5000 = median, 9999 =
// p99.99): the sample at 1-based rank ceil(per_10k * n / 10000) in sorted order.
// Reorders `samples`; 0 when there are none.
int64_t NearestRank(std::vector<int64_t>& samples, uint32_t per_10k);

}  // namespace hbench

#endif  // HSCHED_PERFBENCH_PROBES_H_

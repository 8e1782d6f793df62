// Per-layer attribution of the hsfq layer by replaying the recorded kernel-hook
// stream into a replica System that was built from the same scenario but never run.
//
// The replica receives exactly the calls the live run made into its scheduling
// structure — SetRun, Sleep, Schedule (or ScheduleLeaf when dispatch is sharded),
// Update, SetNodeWeight and MoveNode — in recorded order, each one timed. Every
// replayed pick is compared with the thread the live run dispatched.

#ifndef HSCHED_PERFBENCH_REPLAY_H_
#define HSCHED_PERFBENCH_REPLAY_H_

#include <cstdint>
#include <vector>

#include "perfbench/probes.h"
#include "src/hsfq/structure.h"
#include "src/trace/tracer.h"

namespace hbench {

struct ReplayStats {
  CallStats setrun;
  CallStats sleep;
  CallStats schedule;
  CallStats update;
  CallStats admin;  // SetNodeWeight and MoveNode
  uint64_t picks = 0;
  uint64_t mismatches = 0;

  CallStats Hooks() const;  // every replayed call, admin included
};

// The tracer's rings merged in MergedSnapshot() order: time, then kUpdate before other
// events at the same time, then ring, then sequence. SetNodeWeight records time 0 (it
// takes no clock), so a plain merge can hoist it ahead of earlier events of other CPUs;
// each kSetWeight is re-timed here from `set_weight_times`, the issue times of the
// writes in order, starting at *next and advancing it.
void MergeRings(const htrace::Tracer& tracer, const std::vector<hscommon::Time>& set_weight_times,
                size_t* next, std::vector<htrace::TraceEvent>* out);

class Replayer {
 public:
  Replayer(hsfq::SchedulingStructure* replica, bool sharded)
      : replica_(replica), sharded_(sharded) {}

  // Replays one window's merged events. After the first mismatch the replica no longer
  // follows the live run, so nothing more is replayed and every later pick counts as a
  // mismatch.
  void Replay(const std::vector<htrace::TraceEvent>& events);

  const ReplayStats& stats() const { return stats_; }

 private:
  hsfq::SchedulingStructure* replica_;
  bool sharded_;
  bool diverged_ = false;
  ReplayStats stats_;
};

}  // namespace hbench

#endif  // HSCHED_PERFBENCH_REPLAY_H_

#include "perfbench/replay.h"

namespace hbench {

using htrace::EventType;
using htrace::TraceEvent;

CallStats ReplayStats::Hooks() const {
  CallStats all;
  for (const CallStats* c : {&setrun, &sleep, &schedule, &update, &admin}) {
    all.Merge(*c);
  }
  return all;
}

void MergeRings(const htrace::Tracer& tracer, const std::vector<hscommon::Time>& set_weight_times,
                size_t* next, std::vector<TraceEvent>* out) {
  const auto ncpus = static_cast<size_t>(tracer.ncpus());
  std::vector<std::vector<TraceEvent>> rings(ncpus);
  size_t total = 0;
  for (size_t r = 0; r < ncpus; ++r) {
    const htrace::EventRing& ring = tracer.ring(static_cast<int>(r));
    rings[r].reserve(ring.size());
    for (size_t i = 0; i < ring.size(); ++i) {
      TraceEvent e = ring.At(i);
      if (e.type == EventType::kSetWeight && *next < set_weight_times.size()) {
        e.time = set_weight_times[(*next)++];
      }
      rings[r].push_back(e);
    }
    total += ring.size();
  }
  out->clear();
  out->reserve(total);
  const auto rank = [](const TraceEvent& e) { return e.type == EventType::kUpdate ? 0 : 1; };
  std::vector<size_t> pos(ncpus, 0);
  while (out->size() < total) {
    size_t best = ncpus;
    for (size_t r = 0; r < ncpus; ++r) {
      if (pos[r] >= rings[r].size()) {
        continue;
      }
      if (best == ncpus) {
        best = r;
        continue;
      }
      const TraceEvent& cand = rings[r][pos[r]];
      const TraceEvent& cur = rings[best][pos[best]];
      if (cand.time < cur.time || (cand.time == cur.time && rank(cand) < rank(cur))) {
        best = r;
      }
    }
    out->push_back(rings[best][pos[best]++]);
  }
}

void Replayer::Replay(const std::vector<TraceEvent>& events) {
  for (const TraceEvent& e : events) {
    if (diverged_) {
      if (e.type == EventType::kSchedule) {
        ++stats_.picks;
        ++stats_.mismatches;
      }
      continue;
    }
    const int cpu = e.cpu;
    switch (e.type) {
      case EventType::kSetRun: {
        const int64_t t0 = HostNs();
        replica_->SetRun(e.a, e.time);
        stats_.setrun.Add(HostNs() - t0);
        break;
      }
      case EventType::kSleep: {
        const int64_t t0 = HostNs();
        replica_->Sleep(e.a, e.time);
        stats_.sleep.Add(HostNs() - t0);
        break;
      }
      case EventType::kSchedule: {
        hsfq::ThreadId picked;
        const int64_t t0 = HostNs();
        if (sharded_) {
          bool more = false;
          picked = replica_->ScheduleLeaf(e.node, e.time, cpu, &more);
        } else {
          picked = replica_->Schedule(e.time, cpu);
        }
        stats_.schedule.Add(HostNs() - t0);
        ++stats_.picks;
        if (picked != e.a) {
          ++stats_.mismatches;
          diverged_ = true;
        }
        break;
      }
      case EventType::kUpdate: {
        const int64_t t0 = HostNs();
        replica_->Update(e.a, e.b, e.time, (e.flags & 1) != 0, cpu);
        stats_.update.Add(HostNs() - t0);
        break;
      }
      case EventType::kSetWeight: {
        const int64_t t0 = HostNs();
        const hscommon::Status s = replica_->SetNodeWeight(e.node, e.a);
        stats_.admin.Add(HostNs() - t0);
        diverged_ = diverged_ || !s.ok();
        break;
      }
      case EventType::kMoveNode: {
        const int64_t t0 = HostNs();
        const hscommon::Status s =
            replica_->MoveNode(e.node, static_cast<hsfq::NodeId>(e.a), e.time);
        stats_.admin.Add(HostNs() - t0);
        diverged_ = diverged_ || !s.ok();
        break;
      }
      default:
        break;  // simulator-side and per-level events carry no hook call
    }
  }
}

}  // namespace hbench

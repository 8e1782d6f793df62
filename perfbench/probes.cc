#include "perfbench/probes.h"

#include <algorithm>
#include <utility>

namespace hbench {

double CalibrateClockNs() {
  constexpr int kBatches = 11;
  constexpr int kReads = 2000;
  std::array<double, kBatches> means{};
  for (double& m : means) {
    int64_t sum = 0;
    for (int i = 0; i < kReads; ++i) {
      const int64_t t0 = HostNs();
      sum += HostNs() - t0;
    }
    m = static_cast<double>(sum) / kReads;
  }
  std::sort(means.begin(), means.end());
  return means[kBatches / 2];
}

double CallStats::NetSeconds(double clock_ns) const {
  const double net = static_cast<double>(raw_ns) - static_cast<double>(calls) * clock_ns;
  return std::max(0.0, net) * 1e-9;
}

double CallStats::MeanNs(double clock_ns) const {
  return calls == 0 ? 0.0 : NetSeconds(clock_ns) * 1e9 / static_cast<double>(calls);
}

LeafClass LeafClassOf(const std::string& registry_name) {
  if (registry_name == "sfq") {
    return LeafClass::kSfq;
  }
  if (registry_name == "ts" || registry_name == "ts_svr4" || registry_name == "svr4") {
    return LeafClass::kTs;
  }
  if (registry_name == "edf") {
    return LeafClass::kEdf;
  }
  return LeafClass::kOther;
}

void LeafProbe::OnRunnable(ThreadId thread, Time now) {
  if (!record_latency_) {
    return;
  }
  if (thread >= wake_.size()) {
    wake_.resize(thread + 1, -1);
  }
  wake_[thread] = now;
}

void LeafProbe::OnPicked(ThreadId thread, Time now) {
  if (!record_latency_ || thread >= wake_.size() || wake_[thread] < 0) {
    return;
  }
  latencies_.push_back(now - wake_[thread]);
  wake_[thread] = -1;
}

LeafClassStats LeafProbe::Total() const {
  LeafClassStats total;
  for (const LeafClassStats& c : classes_) {
    total.pick.Merge(c.pick);
    total.charge.Merge(c.charge);
    total.runnable.Merge(c.runnable);
  }
  return total;
}

namespace {

// Forwards every LeafScheduler call, including the ones with default implementations
// (a class's own HasDispatchable is what keeps it single-service on SMP), and times
// the three calls that do a class's scheduling work.
class TimedLeaf final : public hsfq::LeafScheduler {
 public:
  TimedLeaf(std::unique_ptr<hsfq::LeafScheduler> inner, LeafProbe* probe,
            LeafClassStats* stats)
      : inner_(std::move(inner)), probe_(probe), stats_(stats) {}

  hscommon::Status AddThread(ThreadId thread, const hsfq::ThreadParams& params) override {
    return inner_->AddThread(thread, params);
  }
  hscommon::Status AdmitQuery(const hsfq::ThreadParams& params) const override {
    return inner_->AdmitQuery(params);
  }
  bool HasAdmissionControl() const override { return inner_->HasAdmissionControl(); }
  void RevokeAdmissions() override { inner_->RevokeAdmissions(); }
  double BookedUtilization() const override { return inner_->BookedUtilization(); }
  void RemoveThread(ThreadId thread) override { inner_->RemoveThread(thread); }
  hscommon::Status SetThreadParams(ThreadId thread,
                                   const hsfq::ThreadParams& params) override {
    return inner_->SetThreadParams(thread, params);
  }

  void ThreadRunnable(ThreadId thread, Time now) override {
    probe_->OnRunnable(thread, now);
    const int64_t t0 = HostNs();
    inner_->ThreadRunnable(thread, now);
    stats_->runnable.Add(HostNs() - t0);
  }
  void ThreadBlocked(ThreadId thread, Time now) override {
    inner_->ThreadBlocked(thread, now);
  }
  ThreadId PickNext(Time now) override {
    const int64_t t0 = HostNs();
    const ThreadId picked = inner_->PickNext(now);
    stats_->pick.Add(HostNs() - t0);
    probe_->OnPicked(picked, now);
    return picked;
  }
  void Charge(ThreadId thread, hscommon::Work used, Time now, bool still_runnable) override {
    const int64_t t0 = HostNs();
    inner_->Charge(thread, used, now, still_runnable);
    stats_->charge.Add(HostNs() - t0);
  }

  bool HasRunnable() const override { return inner_->HasRunnable(); }
  bool HasDispatchable() const override { return inner_->HasDispatchable(); }
  bool IsThreadRunnable(ThreadId thread) const override {
    return inner_->IsThreadRunnable(thread);
  }
  hscommon::Work PreferredQuantum(ThreadId thread) const override {
    return inner_->PreferredQuantum(thread);
  }
  void OnResourceBlocked(ThreadId holder, ThreadId waiter) override {
    inner_->OnResourceBlocked(holder, waiter);
  }
  void OnResourceReleased(ThreadId holder, ThreadId waiter) override {
    inner_->OnResourceReleased(holder, waiter);
  }
  std::string Name() const override { return inner_->Name(); }

 private:
  std::unique_ptr<hsfq::LeafScheduler> inner_;
  LeafProbe* probe_;
  LeafClassStats* stats_;
};

class TimedWorkloadImpl final : public hsim::Workload {
 public:
  TimedWorkloadImpl(std::unique_ptr<hsim::Workload> inner, CallStats* stats)
      : inner_(std::move(inner)), stats_(stats) {}

  hsim::WorkloadAction NextAction(Time now) override {
    const int64_t t0 = HostNs();
    const hsim::WorkloadAction action = inner_->NextAction(now);
    stats_->Add(HostNs() - t0);
    return action;
  }

 private:
  std::unique_ptr<hsim::Workload> inner_;
  CallStats* stats_;
};

}  // namespace

hsim::LeafSchedulerFactory TimedLeafFactory(hsim::LeafSchedulerFactory inner,
                                            LeafProbe* probe) {
  return [inner = std::move(inner), probe](const std::string& name)
             -> hscommon::StatusOr<std::unique_ptr<hsfq::LeafScheduler>> {
    auto made = inner(name);
    if (!made.ok()) {
      return made.status();
    }
    return std::unique_ptr<hsfq::LeafScheduler>(
        std::make_unique<TimedLeaf>(std::move(*made), probe, &probe->stats(LeafClassOf(name))));
  };
}

std::unique_ptr<hsim::Workload> TimedWorkload(std::unique_ptr<hsim::Workload> inner,
                                              CallStats* stats) {
  return std::make_unique<TimedWorkloadImpl>(std::move(inner), stats);
}

int64_t NearestRank(std::vector<int64_t>& samples, uint32_t per_10k) {
  if (samples.empty()) {
    return 0;
  }
  const uint64_t n = samples.size();
  uint64_t rank = (static_cast<uint64_t>(per_10k) * n + 9999) / 10000;
  rank = std::clamp<uint64_t>(rank, 1, n);
  const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

}  // namespace hbench

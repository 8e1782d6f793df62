#include "perfbench/workloads.h"

#include <algorithm>
#include <utility>

#include "src/common/prng.h"
#include "src/rt/edf.h"
#include "src/sched/registry.h"
#include "src/sim/multi_tenant.h"

namespace hbench {

using hscommon::kMillisecond;
using hscommon::kSecond;

namespace {

// Per-entity PRNG stream, the repository's convention for forking a scenario seed.
uint64_t StreamSeed(uint64_t seed, uint64_t index) { return seed * 1000003 + index; }

hsim::ScenarioThreadSpec ThreadSpec(std::string name, std::string leaf,
                                const hsfq::ThreadParams& params, Time start,
                                std::function<std::unique_ptr<hsim::Workload>()> make) {
  hsim::ScenarioThreadSpec t;
  t.name = std::move(name);
  t.leaf_path = std::move(leaf);
  t.params = params;
  t.start_time = start;
  t.make_workload = std::move(make);
  return t;
}

// Root weights of Figure 2: hard-rt 1, soft-rt 3, best-effort 6. The EDF class books
// at most its share of the CPU.
constexpr hscommon::Weight kHardWeight = 1;
constexpr hscommon::Weight kSoftWeight = 3;
constexpr hscommon::Weight kBestEffortWeight = 6;
constexpr double kHardShare =
    static_cast<double>(kHardWeight) / (kHardWeight + kSoftWeight + kBestEffortWeight);

// The tenants workloads: sessions offer kLoad of kTenantCpus CPUs in bursts averaging
// kMeanBurst, an admin write lands every kAdminInterval, and the traced run drives
// kTenantTraceWindow at a time into rings of kTenantTraceRing events per CPU.
constexpr int kTenantCpus = 4;
constexpr double kLoad = 0.9;
constexpr Work kMeanBurst = kMillisecond;
constexpr Time kAdminInterval = 10 * kMillisecond;
constexpr Time kTenantTraceWindow = 50 * kMillisecond;
constexpr size_t kTenantTraceRing = size_t{1} << 18;

// Writes users' weights and moves users between tenants at a fixed rate. Moves never
// clash on a name: a spare tenant takes a few users out, and each leaves a hole (a
// tenant without that user name) that a later move fills from another tenant.
std::vector<AdminWrite> MakeAdminWrites(const TenantsShape& shape, uint64_t seed) {
  std::vector<AdminWrite> out;
  constexpr size_t kSpareUsers = 8;
  const size_t tenants = shape.tenants;
  const size_t users = shape.users;
  const size_t spare = tenants;  // the spare tenant's index
  const auto path_of_tenant = [&](size_t t) {
    return t == spare ? std::string("/spare") : "/t" + std::to_string(t);
  };
  // occupant[t * users + name]: the user (t0 * users + name at generation) that holds
  // user name `name` under tenant t, or -1.
  std::vector<int64_t> occupant((tenants + 1) * users, -1);
  for (size_t i = 0; i < tenants * users; ++i) {
    occupant[i] = static_cast<int64_t>(i);
  }
  std::vector<std::pair<size_t, size_t>> holes;  // (regular tenant, name) pairs
  size_t spare_count = 0;

  hscommon::Prng prng(StreamSeed(seed, 0xad1));
  const auto write = [&](Time at, int64_t user, AdminWrite::Kind kind) {
    AdminWrite w;
    w.at = at;
    w.kind = kind;
    const auto u = static_cast<size_t>(user);
    w.node = "/t" + std::to_string(u / users) + "/u" + std::to_string(u % users);
    return w;
  };
  const auto move = [&](size_t from, size_t to, size_t name, Time at) {
    const int64_t user = occupant[from * users + name];
    AdminWrite w = write(at, user, AdminWrite::Kind::kMove);
    w.to = path_of_tenant(to);
    occupant[to * users + name] = user;
    occupant[from * users + name] = -1;
    out.push_back(std::move(w));
  };

  uint64_t k = 0;
  for (Time at = kAdminInterval; at < shape.horizon; at += kAdminInterval) {
    if (++k % 2 == 1) {
      AdminWrite w = write(at, static_cast<int64_t>(prng.UniformU64(tenants * users)),
                           AdminWrite::Kind::kReweight);
      w.weight = 1 + prng.UniformU64(3);
      out.push_back(std::move(w));
      continue;
    }
    if (holes.empty() || (spare_count < kSpareUsers && prng.Bernoulli(0.5))) {
      // Take a user out to the spare tenant, leaving a hole behind.
      for (;;) {
        const size_t from = prng.UniformU64(tenants);
        const size_t name = prng.UniformU64(users);
        if (occupant[from * users + name] < 0 || occupant[spare * users + name] >= 0) {
          continue;
        }
        move(from, spare, name, at);
        holes.emplace_back(from, name);
        ++spare_count;
        break;
      }
      continue;
    }
    // Fill a hole from another tenant (moving the hole there) or from the spare.
    const size_t h = prng.UniformU64(holes.size());
    const auto [to, name] = holes[h];
    size_t from = spare;
    if (occupant[spare * users + name] < 0 || prng.Bernoulli(0.5)) {
      do {
        from = prng.UniformU64(tenants);
      } while (from == to || occupant[from * users + name] < 0);
    }
    move(from, to, name, at);
    if (from == spare) {
      holes.erase(holes.begin() + static_cast<std::ptrdiff_t>(h));
      --spare_count;
    } else {
      holes[h] = {from, name};
    }
  }
  return out;
}

}  // namespace

// Figure 2 (examples/multiuser_workstation.cc) with `users` users under best-effort,
// each owning an SFQ batch leaf and an SVR4 time-sharing leaf:
//
//   /hard-rt (1, EDF)        periodic jobs, deadline = period, admitted within 10%
//   /soft-rt (3, SFQ)        paced MPEG decoders at 30 fps (open-loop releases)
//   /best-effort (6)
//     /user<i> (1)
//       /batch (1, SFQ)      two CPU-bound compilations, weights 2:1
//       /ts (1, SVR4 TS)     two closed-loop interactive editors and a bursty daemon
//
// One CPU, 5 ms quantum, and Poisson interrupts stealing ~2% of the CPU (the paper's
// fluctuation-constrained server).
std::unique_ptr<Inputs> MakeWorkstation(const WorkstationShape& shape, uint64_t seed) {
  auto in = std::make_unique<Inputs>();
  in->config.default_quantum = 5 * kMillisecond;
  in->horizon = shape.horizon;
  in->trace_window = 5 * kSecond;
  in->trace_ring = size_t{1} << 17;
  in->factory = [](const std::string& name)
      -> hscommon::StatusOr<std::unique_ptr<hsfq::LeafScheduler>> {
    if (name == "edf") {
      return std::unique_ptr<hsfq::LeafScheduler>(std::make_unique<hleaf::EdfScheduler>(
          hleaf::EdfScheduler::Config{.utilization_limit = kHardShare}));
    }
    return hleaf::MakeLeafScheduler(name);
  };

  hscommon::Prng prng(seed);
  uint64_t stream = 0;
  auto& nodes = in->scenario.nodes;
  auto& threads = in->scenario.threads;
  nodes.push_back({"/hard-rt", kHardWeight, /*is_leaf=*/true, "edf"});
  nodes.push_back({"/soft-rt", kSoftWeight, /*is_leaf=*/true, "sfq"});
  nodes.push_back({"/best-effort", kBestEffortWeight, /*is_leaf=*/false, ""});

  struct Task {
    const char* name;
    Time period;
    Work wcet;
  };
  static constexpr Task kTasks[] = {
      {"daq", 100 * kMillisecond, 1 * kMillisecond},
      {"control", 500 * kMillisecond, 3 * kMillisecond},
      {"sensor", 200 * kMillisecond, 2 * kMillisecond},
      {"logger", 250 * kMillisecond, 1 * kMillisecond},
  };
  for (const Task& task : kTasks) {
    const uint64_t wl_seed = StreamSeed(seed, ++stream);
    const Time period = task.period;
    const Work wcet = task.wcet;
    threads.push_back(ThreadSpec(task.name, "/hard-rt", {.period = period, .computation = wcet},
                             static_cast<Time>(prng.UniformU64(static_cast<uint64_t>(period))),
                             [period, wcet, wl_seed] {
                               return std::make_unique<hsim::RtPeriodicWorkload>(
                                   period, wcet, 0, /*jitter=*/0.2, wl_seed);
                             }));
  }

  // Decoders start evenly spread over one frame period, so their frames interleave.
  constexpr Time kFramePeriod = kSecond / 30;
  const auto phase = static_cast<Time>(prng.UniformU64(kFramePeriod));
  for (int d = 0; d < shape.decoders; ++d) {
    hmpeg::VbrTraceConfig tc;
    tc.frame_count = 3000;
    tc.mean_cost_i = 1500 * hscommon::kMicrosecond;
    tc.mean_cost_p = 1000 * hscommon::kMicrosecond;
    tc.mean_cost_b = 600 * hscommon::kMicrosecond;
    tc.seed = StreamSeed(seed, ++stream);
    auto trace = std::make_shared<const hmpeg::VbrTrace>(hmpeg::VbrTrace::Generate(tc));
    in->traces.push_back(trace);
    std::vector<const hmpeg::MpegPlayerWorkload*>* players = &in->players;
    threads.push_back(ThreadSpec(
        "decode" + std::to_string(d), "/soft-rt", {.weight = 1},
        phase + d * kFramePeriod / shape.decoders, [trace, players] {
          auto player = std::make_unique<hmpeg::MpegPlayerWorkload>(
              trace.get(), hmpeg::MpegPlayerWorkload::Config{
                               .mode = hmpeg::MpegPlayerWorkload::Mode::kPaced, .fps = 30.0});
          players->push_back(player.get());
          return player;
        }));
  }

  for (int u = 0; u < shape.users; ++u) {
    const std::string user = "/best-effort/user" + std::to_string(u);
    nodes.push_back({user, 1, /*is_leaf=*/false, ""});
    nodes.push_back({user + "/batch", 1, /*is_leaf=*/true, "sfq"});
    nodes.push_back({user + "/ts", 1, /*is_leaf=*/true, "ts"});
    const std::string tag = "u" + std::to_string(u) + ".";
    for (const hscommon::Weight w : {2, 1}) {
      threads.push_back(ThreadSpec(tag + "cc" + std::to_string(w), user + "/batch", {.weight = w},
                               static_cast<Time>(prng.UniformU64(10 * kMillisecond)),
                               [] { return std::make_unique<hsim::CpuBoundWorkload>(); }));
    }
    for (int e = 0; e < 2; ++e) {
      const uint64_t wl_seed = StreamSeed(seed, ++stream);
      threads.push_back(ThreadSpec(tag + "editor" + std::to_string(e), user + "/ts",
                               {.priority = 40},
                               static_cast<Time>(prng.UniformU64(100 * kMillisecond)),
                               [wl_seed] {
                                 return std::make_unique<hsim::InteractiveWorkload>(
                                     wl_seed, 60 * kMillisecond, 3 * kMillisecond);
                               }));
    }
    const uint64_t wl_seed = StreamSeed(seed, ++stream);
    threads.push_back(ThreadSpec(tag + "daemon", user + "/ts", {.priority = 29},
                             static_cast<Time>(prng.UniformU64(100 * kMillisecond)),
                             [wl_seed] {
                               return std::make_unique<hsim::BurstyWorkload>(
                                   wl_seed, 1 * kMillisecond, 8 * kMillisecond,
                                   20 * kMillisecond, 200 * kMillisecond);
                             }));
  }
  for (const auto& n : nodes) {
    in->leaves += n.is_leaf ? 1 : 0;
  }

  in->interrupts.push_back(hsim::InterruptSourceConfig{
      .arrival = hsim::InterruptSourceConfig::Arrival::kPoisson,
      .interval = 1 * kMillisecond,
      .service = 20 * hscommon::kMicrosecond,
      .exponential_service = true,
      .seed = StreamSeed(seed, ++stream)});
  return in;
}

// Closed-loop bursty sessions, one per user, in the tenant -> user -> session tree of
// hsim::MakeMultiTenantScenario. Bursts average kMeanBurst; sleeps are sized so the
// sessions offer kLoad of the machine, and starts spread over one mean cycle.
std::unique_ptr<Inputs> MakeTenants(const TenantsShape& shape, uint64_t seed) {
  auto in = std::make_unique<Inputs>();
  hsim::MultiTenantSpec spec;
  spec.tenants = shape.tenants;
  spec.users_per_tenant = shape.users;
  spec.sessions_per_user = shape.sessions;
  spec.active_per_user = 1;
  spec.seed = seed;
  const double sessions = static_cast<double>(shape.tenants * shape.users);
  const Work burst = kMeanBurst;
  const auto sleep = static_cast<Time>(static_cast<double>(burst) *
                                       (sessions / (kLoad * kTenantCpus) - 1.0));
  spec.min_burst = burst / 2;
  spec.max_burst = burst + burst / 2;
  spec.min_sleep = sleep / 2;
  spec.max_sleep = sleep + sleep / 2;
  spec.start_window = burst + sleep;
  spec.storm_period = shape.storm_period;
  spec.horizon = shape.horizon;
  in->scenario = hsim::MakeMultiTenantScenario(spec);
  in->scenario.nodes.push_back({"/spare", 1, /*is_leaf=*/false, ""});
  in->leaves = hsim::MultiTenantLeafCount(spec);
  in->factory = hleaf::MakeLeafScheduler;
  in->config.ncpus = kTenantCpus;
  in->config.sharded = shape.sharded;
  in->admin = MakeAdminWrites(shape, seed);
  in->horizon = shape.horizon;
  in->trace_window = kTenantTraceWindow;
  in->trace_ring = kTenantTraceRing;
  return in;
}

const std::vector<WorkloadDef>& Workloads() {
  static const std::vector<WorkloadDef> defs = [] {
    std::vector<WorkloadDef> d;
    d.push_back({"workstation", [](uint64_t seed) { return MakeWorkstation({}, seed); }});
    TenantsShape wide;
    wide.horizon = 240 * kSecond;
    d.push_back({"tenants-1e6", [wide](uint64_t seed) { return MakeTenants(wide, seed); }});
    TenantsShape sharded;
    sharded.users = 100;
    sharded.sharded = true;
    sharded.storm_period = 10 * kMillisecond;
    d.push_back(
        {"tenants-1e5-sharded", [sharded](uint64_t seed) { return MakeTenants(sharded, seed); }});
    return d;
  }();
  return defs;
}

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& d : Workloads()) {
    if (d.name == name) {
      return &d;
    }
  }
  return nullptr;
}

}  // namespace hbench

// The benchmark's workloads: seeded generators of everything a run feeds the
// libraries. The libraries receive only the generated Inputs, never the seed.

#ifndef HSCHED_PERFBENCH_WORKLOADS_H_
#define HSCHED_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/mpeg/player.h"
#include "src/mpeg/trace.h"
#include "src/sim/scenario.h"
#include "src/sim/system.h"

namespace hbench {

using hscommon::Time;
using hscommon::Work;

// One hsfq_admin write issued from a scripted event during the drive. Nodes are named
// by their path at generation time; node ids survive moves, so the path is resolved
// once, at build.
struct AdminWrite {
  enum class Kind { kReweight, kMove };
  Time at = 0;
  Kind kind = Kind::kReweight;
  std::string node;
  std::string to;               // kMove: destination tenant
  hscommon::Weight weight = 1;  // kReweight
};

struct Inputs {
  hsim::ScenarioSpec scenario;  // leaves that name no scheduler get "sfq"
  hsim::LeafSchedulerFactory factory;
  hsim::System::Config config;
  std::vector<hsim::InterruptSourceConfig> interrupts;
  std::vector<AdminWrite> admin;
  Time horizon = 0;
  // The traced run drives in windows of this simulated length; each window's events
  // must fit a ring of `trace_ring` events per CPU.
  Time trace_window = 0;
  size_t trace_ring = 0;
  size_t leaves = 0;  // leaf nodes, the bytes-per-leaf denominator
  // Paced decoders, whose frames are deadline-stamped jobs. Filled in as the
  // scenario's workloads are made; the traces outlive the decoders reading them.
  std::vector<const hmpeg::MpegPlayerWorkload*> players;
  std::vector<std::shared_ptr<const hmpeg::VbrTrace>> traces;
};

// The paper's Figure 2 workstation, widened to `users` users (see workloads.cc).
struct WorkstationShape {
  int users = 8;
  int decoders = 2;
  Time horizon = 1800 * hscommon::kSecond;
};

// hsim::MakeMultiTenantScenario traffic with admin writes alongside (see workloads.cc).
struct TenantsShape {
  size_t tenants = 100;
  size_t users = 1000;
  size_t sessions = 10;
  bool sharded = false;
  Time storm_period = 0;  // 0: wakeups spread out; else snapped to this period
  Time horizon = 60 * hscommon::kSecond;
};

std::unique_ptr<Inputs> MakeWorkstation(const WorkstationShape& shape, uint64_t seed);
std::unique_ptr<Inputs> MakeTenants(const TenantsShape& shape, uint64_t seed);

struct WorkloadDef {
  std::string name;
  std::function<std::unique_ptr<Inputs>(uint64_t seed)> generate;
};

// The workloads BENCHMARK.json names, at full scale.
const std::vector<WorkloadDef>& Workloads();
const WorkloadDef* FindWorkload(const std::string& name);

}  // namespace hbench

#endif  // HSCHED_PERFBENCH_WORKLOADS_H_

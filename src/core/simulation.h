// The collapsed-hierarchy simulators (paper §3).
//
// One origin server, one proxy cache, a scripted Workload. The three
// simulator generations differ only in configuration:
//
//   BaseSimulatorConfig():      preload + full re-fetch on expiry
//   OptimizedSimulatorConfig(): preload + conditional GET on expiry
//   TraceDriven():              preload + conditional GET (trace runs
//                               replay only files present at the start of
//                               the month, paper §4.2, so the cache starts
//                               warm and the metrics isolate consistency
//                               traffic)
//
// A run is a one-node tree driven by the shared Replay loop
// (src/core/replay.h): a deterministic merge-walk over the modification and
// request streams — a modification at time t is visible to a request at
// time t.

#ifndef WEBCC_SRC_CORE_SIMULATION_H_
#define WEBCC_SRC_CORE_SIMULATION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/cache/policy_factory.h"
#include "src/cache/proxy_cache.h"
#include "src/core/metrics.h"
#include "src/sim/fault_plan.h"
#include "src/workload/workload.h"

namespace webcc {

// One served request as a SimObserver sees it: the serve verdict plus a
// copy of the cache entry's state immediately after the serve.
struct ServeObservation {
  uint64_t request_index = 0;  // replay index in the workload's request stream
  ObjectId object = 0;
  SimTime at;
  ServeResult result;
  bool has_entry = false;  // false when nothing is cached afterwards
  CacheEntry entry;        // meaningful only when has_entry
};

// Model-based-checking hooks (the chaos oracle, src/chaos/). The replay
// reports every applied modification and every serve in replay order;
// OnRunEnd fires once after trailing events drain, immediately before the
// run's statistics are collected. Hooks may throw — the chaos oracle throws
// OracleViolation — and the exception propagates out of RunSimulation.
class SimObserver {
 public:
  virtual ~SimObserver() = default;
  // Fires once per run after preload and the stats reset, before the first
  // workload event — the hook that lets an observer probe live world state
  // (e.g. the server's subscription count) from later callbacks. The
  // references stay valid until OnRunEnd returns.
  virtual void OnRunStart(const ProxyCache& cache, const OriginServer& server) {
    (void)cache;
    (void)server;
  }
  virtual void OnModification(ObjectId object, SimTime at) {
    (void)object;
    (void)at;
  }
  virtual void OnServe(const ServeObservation& observation) { (void)observation; }
  virtual void OnRunEnd(const ProxyCache& cache, const OriginServer& server) {
    (void)cache;
    (void)server;
  }
};

struct SimulationConfig {
  PolicyConfig policy;
  RefreshMode refresh_mode = RefreshMode::kConditionalGet;
  bool preload = true;
  int64_t cache_capacity_bytes = 0;  // 0 = unbounded (the paper's setting)
  // Measurement warm-up: events before epoch+warmup still execute (the
  // cache fills, windows arm), but all statistics are reset at the first
  // request at or after it — the standard way to exclude cold-start
  // transients without preloading.
  SimDuration warmup = SimDuration(0);
  // Fault injection (src/sim/fault_plan.h): the cache's link to the origin.
  // Every run rides the one Replay loop (src/core/replay.h) and its
  // SimEngine, so loss, downtime, crash/restart and invalidation redelivery
  // are scheduled deterministically from the seed. A disabled plan is a
  // passthrough, and an armed all-zero plan changes nothing.
  FaultConfig faults;

  // Chaos-harness hooks — both inert by default.
  //
  // Non-owning observation hook; must outlive the run. Null = no reporting.
  SimObserver* observer = nullptr;
  // Test seam: when set, the cache's policy comes from this factory instead
  // of MakePolicy(policy), while `policy` still declares the parameters an
  // oracle checks against — how tests/chaos/ plants a deliberately broken
  // policy behind an honest-looking config.
  std::function<std::unique_ptr<ConsistencyPolicy>()> policy_factory;

  static SimulationConfig Base(PolicyConfig policy);
  static SimulationConfig Optimized(PolicyConfig policy);
  static SimulationConfig TraceDriven(PolicyConfig policy);
};

struct SimulationResult {
  std::string workload_name;
  std::string policy_desc;
  ServerStats server;
  CacheStats cache;
  ConsistencyMetrics metrics;
};

// Replays `load` under `config`. Deterministic: equal inputs, equal outputs.
SimulationResult RunSimulation(const Workload& load, const SimulationConfig& config);

}  // namespace webcc

#endif  // WEBCC_SRC_CORE_SIMULATION_H_

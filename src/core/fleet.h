// Cache fleets: one origin serving MANY independent proxies.
//
// §1's complaint about invalidation protocols: "Servers must keep track of
// where their objects are currently cached, introducing scalability
// problems or necessitating hierarchical caching." This simulator splits a
// workload's clients across N sibling caches and measures how the server's
// costs scale with N: invalidation bookkeeping (live subscriptions),
// notice fan-out (every change notifies every holder), and operation counts
// — against the time-based protocols whose server cost is driven by
// requests, not by the holder population.
//
// A fleet is one Replay (src/core/replay.h) over a forest of N roots that
// share one SimEngine, one OriginServer and one ObjectStore: member i is
// root i and serves exactly the requests with client_id % N == i. Members
// never talk to each other, but every change fans out from the one origin
// to every member holding the object. The origin keeps a ledger per member
// (per CacheId); the server columns are their sum, "total origin-side work
// the fleet generated".
//
// peak_subscriptions is the origin's high-water mark of live (cache,
// object) subscriptions, kept as they are made.
//
// Faults: member i's link to the origin carries FaultConfig::ForLink(i) —
// an independently seeded substream plus any member-targeted
// LinkFaultOverride knobs — drawn up to the member's own horizon (its last
// request or the last modification, plus 24 h); the shared clock runs to
// the latest member's. FaultConfig::snapshot_crash_request indexes the
// member's OWN serves, matching the observer's request_index stream for
// that member.

#ifndef WEBCC_SRC_CORE_FLEET_H_
#define WEBCC_SRC_CORE_FLEET_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/cache/policy_factory.h"
#include "src/cache/proxy_cache.h"
#include "src/core/metrics.h"
#include "src/core/simulation.h"
#include "src/workload/workload.h"

namespace webcc {

struct FleetConfig {
  PolicyConfig policy;
  uint32_t num_caches = 10;
  RefreshMode refresh_mode = RefreshMode::kConditionalGet;
  bool preload = true;
  // Per-link fault schedules (src/sim/fault_plan.h); link overrides address
  // members by index. Every member rides the same Replay loop whether or
  // not a plan is enabled.
  FaultConfig faults;
  // Chaos-harness hook: returns the observer for member i (null for none).
  // It sees member i's serves and every modification. Must outlive the run.
  std::function<SimObserver*(uint32_t member)> member_observer;
  // Keep each member's full SimulationResult in FleetResult::member_results
  // (the chaos oracle verifies members individually). Off by default: the
  // aggregate columns are all the figures need.
  bool keep_member_results = false;
};

// Per-member failure spread: how unevenly the fleet degraded. All zero on a
// clean network.
struct FleetMemberSummary {
  uint32_t member = 0;
  uint64_t requests = 0;
  uint64_t stale_hits = 0;
  uint64_t degraded_serves = 0;
  uint64_t failed_requests = 0;
  uint64_t crashes = 0;
  int64_t unavailable_seconds = 0;  // crash-to-restart dark time

  double StaleRate() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(stale_hits) / static_cast<double>(requests);
  }
};

struct FleetResult {
  std::string policy_desc;
  uint32_t num_caches = 0;
  ServerStats server;
  // Aggregates across all member caches.
  uint64_t requests = 0;
  uint64_t stale_hits = 0;
  uint64_t misses = 0;
  int64_t total_link_bytes = 0;
  uint64_t modifications = 0;  // workload changes (fan-out denominator)
  // Server-side bookkeeping: live (cache, object) subscriptions at the end
  // of the run, and their high-water mark (see file comment).
  size_t final_subscriptions = 0;
  size_t peak_subscriptions = 0;
  // Failure spread, one entry per member in member order.
  std::vector<FleetMemberSummary> members;
  // Full per-member results when FleetConfig::keep_member_results is set.
  std::vector<SimulationResult> member_results;

  double StaleRate() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(stale_hits) / static_cast<double>(requests);
  }
  // The worst single member's client-visible staleness — the §1 weakness is
  // per-holder, and the fleet average hides a dark member.
  double WorstMemberStaleRate() const;
  // Members that went entirely dark at least once (crash or failed serves).
  uint32_t DarkMembers() const;
  // Invalidation notices per modification: how the holder population
  // amplifies every change (≈ N for a preloaded fleet, §1's complaint;
  // retries push it higher under faults).
  double FanOutAmplification() const;
};

// Replays `load` with requests routed to cache (client_id % num_caches).
FleetResult RunFleetSimulation(const Workload& load, const FleetConfig& config);

}  // namespace webcc

#endif  // WEBCC_SRC_CORE_FLEET_H_

// One replay loop for every cache topology.
//
// The paper's simulators replay a modification stream against a request
// stream over a flattened hierarchy, and Figure 1 argues that the collapsed
// cache and the cache tree are the same replay over a different shape.
// Replay() is that replay. It drives a CacheTree — a list of proxy caches,
// each naming its parent (the origin or an earlier node) and carrying its
// upstream link's fault config — through one deterministic merge-walk:
//
//   RunSimulation           a one-node tree
//   RunHierarchySimulation  cache-2 under the origin, cache-1a/1b under it
//   RunFleetSimulation      one one-node tree per member, each serving its
//                           share of the clients
//
// The loop always owns one SimEngine and one OriginServer, and gives every
// link a FaultPlan. A disabled plan is a passthrough, so a fault-free run
// and an armed all-zero run take the same code. Crash/restart events,
// invalidation redelivery timers and jittered deliveries ride the engine and
// interleave with the workload in timestamp order. A modification at time t
// is visible to a request at time t.

#ifndef WEBCC_SRC_CORE_REPLAY_H_
#define WEBCC_SRC_CORE_REPLAY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/cache/policy_factory.h"
#include "src/cache/proxy_cache.h"
#include "src/core/simulation.h"
#include "src/origin/server.h"
#include "src/sim/fault_plan.h"
#include "src/workload/workload.h"

namespace webcc {

// One proxy cache in a CacheTree.
struct CacheNode {
  static constexpr int kOrigin = -1;

  std::string name;
  // kOrigin for the root (node 0, the only child of the origin); otherwise
  // the index of an earlier node.
  int parent = kOrigin;
  // The upstream link's fault config (a FaultConfig::ForLink result). Its
  // crash schedule and recovery mode apply to this node's cache; its
  // snapshot_crash_request indexes this leaf's own serves.
  FaultConfig link;
  // Leaves serve the requests with client_id % share_of == share_index;
  // share_of == 0 marks an interior node. Every leaf of a tree uses the same
  // share_of. Requests no leaf claims are skipped.
  uint32_t share_of = 0;
  uint32_t share_index = 0;
  // Sees this leaf's serves (request_index counts the leaf's own serves)
  // and every modification. May be null; must outlive the replay.
  SimObserver* observer = nullptr;
};

struct CacheTree {
  std::vector<CacheNode> nodes;
  PolicyConfig policy;
  // When set, every node's policy comes from this factory instead of
  // MakePolicy(policy) (the chaos harness's broken-policy seam).
  std::function<std::unique_ptr<ConsistencyPolicy>()> policy_factory;
  CacheConfig cache;
  bool preload = true;
  // Statistics of the server and every node reset at the first request at
  // or after epoch + warmup.
  SimDuration warmup = SimDuration(0);
  // Redelivery cadence of queued invalidations, at the origin and at every
  // interior node.
  SimDuration invalidation_retry_interval = Minutes(5);
};

struct CacheNodeResult {
  CacheStats stats;
  // This node's parent-side ledger for notices forwarded to its children
  // (all zero for leaves and for policies that never forward).
  uint64_t child_invalidations_sent = 0;
  uint64_t child_invalidations_delivered = 0;
  uint64_t child_invalidations_dropped = 0;
  uint64_t child_invalidations_queued = 0;
  uint64_t child_invalidations_redelivered = 0;
  size_t pending_child_invalidations = 0;  // gauge at end of run
};

struct ReplayResult {
  std::string policy_desc;  // the root's policy
  ServerStats server;
  std::vector<CacheNodeResult> nodes;  // in CacheTree::nodes order
};

// Replays `load` through `tree`. Deterministic: equal inputs, equal outputs.
// Each call counts as one point in GlobalSweepExecStats.
ReplayResult Replay(const Workload& load, const CacheTree& tree);

// Cumulative execution counters, exposed so the bench harness can report
// points/sec and replayed-events/sec without instrumenting every figure.
struct SweepExecStats {
  uint64_t points = 0;    // Replay calls completed
  uint64_t requests = 0;  // workload requests served across them
};
SweepExecStats GlobalSweepExecStats();

}  // namespace webcc

#endif  // WEBCC_SRC_CORE_REPLAY_H_

#include "src/core/replay.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <sstream>

#include "src/cache/faulted_link.h"
#include "src/cache/origin_upstream.h"
#include "src/cache/snapshot.h"
#include "src/sim/engine.h"
#include "src/util/check.h"

namespace webcc {

namespace {

// Monotonic execution counters for the bench harness; ordering across
// threads is irrelevant, only the totals are read.
std::atomic<uint64_t> g_points_run{0};
std::atomic<uint64_t> g_requests_replayed{0};

constexpr uint64_t kNoCrashRequest = std::numeric_limits<uint64_t>::max();

// Maps the sim-layer recovery mode onto the cache-layer snapshot modes,
// resolving kAuto against the policy actually in use (§6: invalidation
// recovery must be conservative — the server forgot nothing, but the cache
// cannot know which notices it missed).
void ResolveCrashRecovery(CrashRecovery mode, const ConsistencyPolicy& policy,
                          SnapshotRecovery* recovery, bool* cold_start) {
  *recovery = SnapshotRecovery::kTrustSnapshot;
  *cold_start = false;
  switch (mode) {
    case CrashRecovery::kAuto:
      *recovery = policy.UsesServerInvalidation() ? SnapshotRecovery::kRevalidateAll
                                                  : SnapshotRecovery::kTrustSnapshot;
      break;
    case CrashRecovery::kTrustSnapshot:
      *recovery = SnapshotRecovery::kTrustSnapshot;
      break;
    case CrashRecovery::kRevalidateAll:
      *recovery = SnapshotRecovery::kRevalidateAll;
      break;
    case CrashRecovery::kColdStart:
      *cold_start = true;
      break;
  }
}

// One cache of the running tree: the cache itself, its link's fault plan,
// its crash/restart state, and — for leaves — its serve counter.
struct LiveNode {
  std::unique_ptr<FaultPlan> plan;
  // Exactly one of the two is set: a root talks to the origin, any other
  // node to its parent cache.
  std::unique_ptr<OriginUpstream> origin;
  std::unique_ptr<FaultedLink> link;
  std::unique_ptr<ProxyCache> cache;
  SnapshotRecovery recovery = SnapshotRecovery::kTrustSnapshot;
  bool cold_start = false;
  // Stands in for the on-disk metadata file: captured at crash time (a
  // perfectly synced disk), never written in cold-start mode (the disk died
  // with the process).
  std::string disk_image;
  std::function<void(SimTime)> contact_upstream;  // first contact after a restart
  SimObserver* observer = nullptr;
  size_t root = 0;                           // index of this node's root
  uint64_t served = 0;                       // the leaf's own replay index
  uint64_t crash_request = kNoCrashRequest;  // snapshot_crash_request, leaf-local

  void ScheduleCrashes(SimEngine& engine) {
    for (const CacheCrashEvent& crash : plan->cache_crashes()) {
      engine.ScheduleAt(crash.at, [this, &engine] {
        if (!cold_start) {
          std::ostringstream os;
          SaveCacheSnapshot(*cache, os);
          disk_image = os.str();
        }
        cache->Crash(engine.Now());
      });
      engine.ScheduleAt(crash.at + crash.outage, [this, &engine] {
        cache->Restart(engine.Now());
        if (!disk_image.empty()) {
          std::istringstream is(disk_image);
          const int64_t restored = LoadCacheSnapshot(*cache, is, recovery);
          WEBCC_CHECK_GE(restored, 0) << "crash-time snapshot must reload";
          disk_image.clear();
        }
        // The upstream re-drives whatever notices it queued for us meanwhile.
        contact_upstream(engine.Now());
      });
    }
  }

  // Serves one request. The chaos harness's arbitrary-index crash hook runs
  // first: an instantaneous snapshot->crash->restore cycle before the
  // leaf's crash_request-th serve, skipped while a scheduled outage already
  // has the cache dark (a dead process cannot crash again).
  void Serve(const RequestEvent& req) {
    if (served == crash_request && !cache->crashed()) [[unlikely]] {
      SnapshotCrashCycle(*cache, req.at, recovery, cold_start);
      contact_upstream(req.at);
    }
    // Object ids are dense and assigned in creation order, so the workload's
    // object_index doubles as the ObjectId.
    const auto object = static_cast<ObjectId>(req.object_index);
    if (observer != nullptr) [[unlikely]] {
      ServeObserved(object, req.at);
    } else {
      // Only an observer needs the serving entry; resolving it costs a probe.
      cache->HandleRequest(object, req.at);
    }
    ++served;
  }

  // Serves and reports to the observer, reusing the serving entry
  // HandleRequest resolved instead of probing the index a second time. Out
  // of line so the unobserved serve loop stays small.
  [[gnu::noinline]] void ServeObserved(ObjectId object, SimTime at) {
    ServeObservation obs;
    obs.request_index = served;
    obs.object = object;
    obs.at = at;
    obs.result = cache->HandleRequest(object, at, &obs.entry);
    observer->OnServe(obs);
  }
};

}  // namespace

SweepExecStats GlobalSweepExecStats() {
  return SweepExecStats{g_points_run.load(std::memory_order_relaxed),
                        g_requests_replayed.load(std::memory_order_relaxed)};
}

ReplayResult Replay(const Workload& load, const CacheTree& tree) {
  WEBCC_CHECK(!tree.nodes.empty()) << "a cache tree needs a root";

  // Request routing: residue of client_id modulo the leaves' common share_of
  // (no division per request in the common single-leaf tree).
  uint32_t share_of = 0;
  for (const CacheNode& node : tree.nodes) {
    if (node.share_of != 0) {
      WEBCC_CHECK(share_of == 0 || share_of == node.share_of) << "leaves disagree on share_of";
      share_of = node.share_of;
    }
  }
  WEBCC_CHECK_GT(share_of, 0u) << "a cache tree needs a leaf";
  std::vector<LiveNode*> leaf_for_residue(share_of, nullptr);
  const auto route = [&leaf_for_residue, share_of](const RequestEvent& req) {
    return leaf_for_residue[share_of == 1 ? 0 : req.client_id % share_of];
  };

  std::vector<LiveNode> nodes(tree.nodes.size());
  size_t roots_left = 0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    const CacheNode& spec = tree.nodes[i];
    if (spec.parent == CacheNode::kOrigin) {
      nodes[i].root = i;
      ++roots_left;
    } else {
      WEBCC_CHECK(spec.parent >= 0 && static_cast<size_t>(spec.parent) < i)
          << "a node's parent must be an earlier node";
      nodes[i].root = nodes[spec.parent].root;
    }
    if (spec.share_of != 0) {
      WEBCC_CHECK_LT(spec.share_index, share_of);
      WEBCC_CHECK(leaf_for_residue[spec.share_index] == nullptr) << "two leaves share a residue";
      leaf_for_residue[spec.share_index] = &nodes[i];
    }
  }

  // Each root's horizon: its leaves' last request or the last modification,
  // plus slack so trailing invalidation retries and restarts get to run.
  // Every node plans its faults against its root's horizon; the clock stops
  // at the latest one.
  std::vector<SimTime> horizon(nodes.size(), SimTime::Epoch());
  std::vector<bool> found(nodes.size(), false);
  for (auto it = load.requests.rbegin(); it != load.requests.rend() && roots_left > 0; ++it) {
    const LiveNode* leaf = route(*it);
    if (leaf != nullptr && !found[leaf->root]) {
      found[leaf->root] = true;
      horizon[leaf->root] = it->at;
      --roots_left;
    }
  }
  SimTime end = SimTime::Epoch();
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].root == i) {
      if (!load.modifications.empty()) {
        horizon[i] = std::max(horizon[i], load.modifications.back().at);
      }
      horizon[i] = horizon[i] + Hours(24);
      end = std::max(end, horizon[i]);
    }
  }

  SimEngine engine;
  OriginServer server(&engine, tree.invalidation_retry_interval);
  for (const ObjectSpec& spec : load.objects) {
    server.store().Create(spec.name, spec.type, spec.size_bytes,
                          SimTime::Epoch() - spec.initial_age);
  }

  for (size_t i = 0; i < nodes.size(); ++i) {
    const CacheNode& spec = tree.nodes[i];
    LiveNode& node = nodes[i];
    node.plan = std::make_unique<FaultPlan>(spec.link, horizon[node.root]);
    Upstream* upstream = nullptr;
    if (spec.parent == CacheNode::kOrigin) {
      node.origin = std::make_unique<OriginUpstream>(&server, node.plan.get());
      upstream = node.origin.get();
      node.contact_upstream = [&server, id = node.origin->id()](SimTime at) {
        server.NoteCacheContact(id, at);
      };
    } else {
      ProxyCache& parent = *nodes[spec.parent].cache;
      parent.ArmChildRedelivery(&engine, tree.invalidation_retry_interval);
      node.link = std::make_unique<FaultedLink>(&parent, node.plan.get(), &engine);
      upstream = node.link.get();
      node.contact_upstream = [&parent, link = node.link.get()](SimTime at) {
        parent.NoteChildContact(link, at);
      };
    }
    node.cache = std::make_unique<ProxyCache>(
        spec.name, upstream,
        tree.policy_factory ? tree.policy_factory() : MakePolicy(tree.policy), tree.cache,
        &server.store());
    if (node.origin != nullptr) {
      node.origin->SetCache(node.cache.get());
    } else {
      node.link->SetChild(node.cache.get());
    }
    ResolveCrashRecovery(spec.link.crash_recovery, node.cache->policy(), &node.recovery,
                         &node.cold_start);
    if (spec.share_of != 0) {
      node.observer = spec.observer;
      if (spec.link.snapshot_crash_request >= 0) {
        node.crash_request = static_cast<uint64_t>(spec.link.snapshot_crash_request);
      }
    }
  }

  if (tree.preload) {
    for (LiveNode& node : nodes) {
      node.cache->Preload(server.store(), SimTime::Epoch());
    }
  }
  // Preload must not count as consistency traffic.
  const auto reset_stats = [&server, &nodes] {
    server.ResetStats();
    for (LiveNode& node : nodes) {
      node.cache->ResetStats();
    }
  };
  reset_stats();
  std::vector<SimObserver*> observers;
  for (LiveNode& node : nodes) {
    if (node.observer != nullptr) {
      node.observer->OnRunStart(*node.cache, server);
      observers.push_back(node.observer);
    }
  }
  for (LiveNode& node : nodes) {
    node.ScheduleCrashes(engine);
  }

  // Trace-compiled and campus workloads cluster changes into co-timed
  // bursts: advance the engine once per burst, then apply its members in
  // schedule order.
  const ModificationEvent* next_mod = load.modifications.data();
  const ModificationEvent* const mods_end = next_mod + load.modifications.size();
  const auto apply_modifications_until = [&](SimTime until) {
    while (next_mod != mods_end && next_mod->at <= until) {
      const SimTime at = next_mod->at;
      engine.RunUntil(at);
      do {
        server.ModifyObject(next_mod->object_index, at, next_mod->new_size);
        for (SimObserver* observer : observers) {
          observer->OnModification(static_cast<ObjectId>(next_mod->object_index), at);
        }
        ++next_mod;
      } while (next_mod != mods_end && next_mod->at == at);
    }
  };

  // Merge-walk; ties resolve modification-before-request.
  const SimTime warmup_end = SimTime::Epoch() + tree.warmup;
  bool measuring = tree.warmup.seconds() == 0;
  for (const RequestEvent& req : load.requests) {
    LiveNode* leaf = route(req);
    if (leaf == nullptr) {
      continue;
    }
    apply_modifications_until(req.at);
    engine.RunUntil(req.at);
    if (!measuring && req.at >= warmup_end) {
      reset_stats();
      measuring = true;
    }
    leaf->Serve(req);
  }
  // Trailing modifications still cost invalidation traffic.
  apply_modifications_until(end);
  // Drain trailing redelivery timers and restarts. Bounded by the horizon:
  // a flush timer for a permanently dark cache reschedules forever.
  engine.RunUntil(end);
  for (LiveNode& node : nodes) {
    if (node.observer != nullptr) {
      node.observer->OnRunEnd(*node.cache, server);
    }
  }

  ReplayResult result;
  result.policy_desc = nodes.front().cache->policy().Describe();
  result.server = server.stats();
  result.subscriptions = server.SubscriptionCount();
  result.peak_subscriptions = server.PeakSubscriptionCount();
  result.nodes.reserve(nodes.size());
  uint64_t served = 0;
  for (const LiveNode& node : nodes) {
    const ProxyCache& cache = *node.cache;
    CacheNodeResult& out = result.nodes.emplace_back();
    out.stats = cache.stats();
    if (node.origin != nullptr) {
      out.server = server.stats(node.origin->id());
    }
    out.child_invalidations_sent = cache.child_invalidations_sent();
    out.child_invalidations_delivered = cache.child_invalidations_delivered();
    out.child_invalidations_dropped = cache.child_invalidations_dropped();
    out.child_invalidations_queued = cache.child_invalidations_queued();
    out.child_invalidations_redelivered = cache.child_invalidations_redelivered();
    out.pending_child_invalidations = cache.PendingChildInvalidations();
    served += node.served;
  }
  g_points_run.fetch_add(1, std::memory_order_relaxed);
  g_requests_replayed.fetch_add(served, std::memory_order_relaxed);
  return result;
}

}  // namespace webcc

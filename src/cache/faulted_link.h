// One faulted parent<->child edge in a cache hierarchy.
//
// A FaultedLink sits on a single tree edge and plays both directions of it:
// as the child's Upstream it carries fetches up to the parent cache, and as
// the InvalidationSink registered with the parent it carries invalidation
// notices back down. Both directions consult the SAME per-link FaultPlan,
// so a partition window cuts fetches and notices together — which is what
// makes "an invalidation lost on the L2 link darkens both leaves" a
// property the hierarchy simulator can actually exhibit.
//
// Uplink (fetches): RunFaultedExchange drives the parent call under the
// plan's loss/downtime/bounded-retry model, exactly like OriginUpstream's
// faulted path. The parent processes every request that reaches it (a lost
// reply legitimately duplicates parent work).
//
// Downlink (invalidations): a notice is lost or blocked synchronously
// (returning false so the parent queues it for redelivery), or committed —
// possibly after a jitter delay. A jittered delivery that fails on arrival
// re-parks itself via ProxyCache::QueueChildInvalidation.
//
// With the plan disabled every call is a transparent passthrough, so a
// fault-free tree replays exactly as if the child called its parent
// directly.

#ifndef WEBCC_SRC_CACHE_FAULTED_LINK_H_
#define WEBCC_SRC_CACHE_FAULTED_LINK_H_

#include "src/cache/proxy_cache.h"
#include "src/cache/upstream.h"
#include "src/sim/fault_plan.h"

namespace webcc {

class SimEngine;

class FaultedLink : public Upstream, public InvalidationSink {
 public:
  // `plan` and `engine` must outlive the link; the engine carries jittered
  // downlink deliveries.
  FaultedLink(ProxyCache* parent, FaultPlan* plan, SimEngine* engine);

  // The child cache is constructed after the link (it takes the link as its
  // upstream), so it is attached here before the first delivery.
  void SetChild(InvalidationSink* child) { child_ = child; }

  // --- Upstream (the child fetching through this edge) ---
  FullReply FetchFull(ObjectId id, SimTime now) override;
  CondReply FetchIfModified(ObjectId id, uint64_t held_version, SimTime now) override;
  void SubscribeInvalidation(InvalidationSink* sink, ObjectId id) override;
  void UnsubscribeInvalidation(InvalidationSink* sink, ObjectId id) override;

  // --- InvalidationSink (the parent delivering through this edge) ---
  bool DeliverInvalidation(ObjectId id, SimTime now) override;

 private:
  ProxyCache* parent_;
  FaultPlan* plan_;
  SimEngine* engine_;
  InvalidationSink* child_ = nullptr;
};

}  // namespace webcc

#endif  // WEBCC_SRC_CACHE_FAULTED_LINK_H_

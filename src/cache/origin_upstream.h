// Adapter presenting an OriginServer as an Upstream.

#ifndef WEBCC_SRC_CACHE_ORIGIN_UPSTREAM_H_
#define WEBCC_SRC_CACHE_ORIGIN_UPSTREAM_H_

#include <unordered_map>

#include "src/cache/upstream.h"
#include "src/origin/server.h"
#include "src/sim/fault_plan.h"

namespace webcc {

class OriginUpstream : public Upstream {
 public:
  explicit OriginUpstream(OriginServer* server);

  // Routes every exchange through `plan` (message loss, downtime, bounded
  // retry). Null or a disabled plan disarms: fetches become the original
  // infallible direct calls. The plan must outlive this upstream.
  void ArmFaults(FaultPlan* plan) { faults_ = plan != nullptr && plan->enabled() ? plan : nullptr; }

  FullReply FetchFull(ObjectId id, SimTime now) override;
  CondReply FetchIfModified(ObjectId id, uint64_t held_version, SimTime now) override;
  void SubscribeInvalidation(InvalidationSink* sink, ObjectId id) override;
  void UnsubscribeInvalidation(InvalidationSink* sink, ObjectId id) override;

  OriginServer* server() { return server_; }

 private:
  // The origin identifies caches by CacheId; register each sink on first use.
  CacheId IdFor(InvalidationSink* sink);

  OriginServer* server_;
  FaultPlan* faults_ = nullptr;  // null unless an enabled plan is armed
  std::unordered_map<InvalidationSink*, CacheId> cache_ids_;
};

}  // namespace webcc

#endif  // WEBCC_SRC_CACHE_ORIGIN_UPSTREAM_H_

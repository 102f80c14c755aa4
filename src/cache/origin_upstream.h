// Adapter presenting an OriginServer as an Upstream.
//
// One OriginUpstream is one cache's link to the origin: it attaches the
// cache to the server on construction and carries every exchange under the
// cache's CacheId, so the origin's per-cache ledger, fault plan and notice
// queue are that cache's alone.

#ifndef WEBCC_SRC_CACHE_ORIGIN_UPSTREAM_H_
#define WEBCC_SRC_CACHE_ORIGIN_UPSTREAM_H_

#include "src/cache/upstream.h"
#include "src/origin/server.h"
#include "src/sim/fault_plan.h"

namespace webcc {

class OriginUpstream : public Upstream {
 public:
  // `plan` faults the link both ways: fetches (message loss, downtime,
  // bounded retry) and the origin's notices to this cache. Null or a
  // disabled plan makes fetches the original infallible direct calls. The
  // plan must outlive this upstream.
  explicit OriginUpstream(OriginServer* server, FaultPlan* plan = nullptr);

  // The cache is constructed after its upstream (it takes the upstream as
  // an argument), so it is bound here; an unbound upstream binds the first
  // cache that subscribes.
  void SetCache(InvalidationSink* cache);

  FullReply FetchFull(ObjectId id, SimTime now) override;
  CondReply FetchIfModified(ObjectId id, uint64_t held_version, SimTime now) override;
  void SubscribeInvalidation(InvalidationSink* sink, ObjectId id) override;
  void UnsubscribeInvalidation(InvalidationSink* sink, ObjectId id) override;

  OriginServer* server() { return server_; }
  CacheId id() const { return id_; }

 private:
  OriginServer* server_;
  FaultPlan* faults_;  // null unless an enabled plan is armed
  CacheId id_;
  InvalidationSink* cache_ = nullptr;
};

}  // namespace webcc

#endif  // WEBCC_SRC_CACHE_ORIGIN_UPSTREAM_H_

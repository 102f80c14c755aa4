// The origin (primary) server.
//
// Serves documents and conditional requests, tracks which caches hold which
// objects for the invalidation protocol, and is the authoritative accountant
// for all bytes crossing the cache<->server link (the paper's "goodness"
// metric after flattening the hierarchy is exactly this byte count, §3).
//
// Server operations, the Figure 8 metric, are: full document requests,
// If-Modified-Since queries (a combined query+retransmit counts once), and
// invalidation notices sent.

#ifndef WEBCC_SRC_ORIGIN_SERVER_H_
#define WEBCC_SRC_ORIGIN_SERVER_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/http/message.h"
#include "src/origin/object_store.h"
#include "src/sim/engine.h"
#include "src/sim/fault_plan.h"
#include "src/util/sim_time.h"

namespace webcc {

// Identifies a cache registered with the server for invalidation callbacks.
using CacheId = uint32_t;
inline constexpr CacheId kInvalidCacheId = static_cast<CacheId>(-1);

// Delivery endpoint for invalidation notices (implemented by ProxyCache).
class InvalidationSink {
 public:
  virtual ~InvalidationSink() = default;

  // Delivers "object `id` changed" at time `now`. Returns false if the cache
  // is unreachable, in which case the server must keep retrying (paper §1:
  // "If a machine with data cached cannot be notified, the server must
  // continue trying to reach it").
  virtual bool DeliverInvalidation(ObjectId id, SimTime now) = 0;
};

struct ServerStats {
  uint64_t get_requests = 0;        // full document requests served
  uint64_t ims_queries = 0;         // conditional GETs handled
  uint64_t ims_not_modified = 0;    // of which answered 304 Not Modified
  uint64_t invalidations_sent = 0;  // invalidation notices, incl. retries
  uint64_t invalidation_retries = 0;
  // Fault accounting: notices lost in transit, notices parked in the
  // per-cache pending queues, and queued notices later delivered.
  uint64_t invalidations_lost = 0;
  uint64_t invalidations_queued = 0;
  uint64_t invalidations_redelivered = 0;
  // Delivery-outcome ledger: every notice counted in invalidations_sent
  // resolves to exactly one of lost / delivered / undeliverable (crossed the
  // wire but the sink refused it — crashed or partitioned), or is still in
  // jittered flight (OriginServer::InvalidationsInFlight, kept outside the
  // stats so a warmup reset cannot unbalance it). The chaos oracle asserts
  // sent == lost + delivered + undeliverable + in-flight (invariant 3).
  uint64_t invalidations_delivered = 0;
  uint64_t invalidations_undeliverable = 0;
  uint64_t files_transferred = 0;   // document bodies shipped
  int64_t bytes_sent = 0;           // server -> cache
  int64_t bytes_received = 0;       // cache -> server (requests, queries)

  // Figure 8's y-axis.
  uint64_t TotalOperations() const {
    return get_requests + ims_queries + invalidations_sent;
  }
  int64_t TotalBytes() const { return bytes_sent + bytes_received; }
};

class OriginServer {
 public:
  // `engine` may be null if invalidation retry timers are not needed (all
  // sinks always reachable — the paper's base configuration).
  explicit OriginServer(SimEngine* engine = nullptr,
                        SimDuration retry_interval = Minutes(5));

  ObjectStore& store() { return store_; }
  const ObjectStore& store() const { return store_; }

  // --- Document service ---

  struct GetResult {
    int64_t body_bytes = 0;
    uint64_t version = 0;
    SimTime last_modified;
    std::optional<SimTime> expires;  // explicit Expires header, if provided
  };
  // Serves a full document. Accounts one inbound control message, one
  // outbound document transfer.
  GetResult HandleGet(ObjectId id, SimTime now);

  struct ConditionalResult {
    bool modified = false;     // true -> body shipped
    int64_t body_bytes = 0;    // 0 when not modified
    uint64_t version = 0;
    SimTime last_modified;
    std::optional<SimTime> expires;
  };
  // Serves an If-Modified-Since query against the version the cache holds.
  // Comparing versions rather than timestamps makes the check exact at
  // one-second resolution; the HTTP layer maps versions to Last-Modified
  // dates for serialization. Counts one query op either way (the paper's
  // combined "send this file if it has changed" request, §3).
  ConditionalResult HandleConditionalGet(ObjectId id, uint64_t held_version, SimTime now);

  // Optional policy for asserting explicit Expires headers (objects with a
  // priori known lifetimes — daily news, weekly schedules; paper §6). When
  // set, every response carries the computed Expires value (nullopt = no
  // header for this object).
  using ExpiresProvider = std::function<std::optional<SimTime>(const WebObject&, SimTime now)>;
  void SetExpiresProvider(ExpiresProvider provider) { expires_provider_ = std::move(provider); }

  // --- Modification + invalidation ---

  // Registers a cache for invalidation callbacks; returns its id.
  CacheId RegisterCache(InvalidationSink* sink);

  // Reverse lookup for callers (the fault simulator) that hold the sink but
  // not the id. kInvalidCacheId when the sink was never registered.
  CacheId IdOf(const InvalidationSink* sink) const;

  // Arms fault injection on the invalidation path: notices pass a loss draw
  // and a server-uptime check, undeliverable ones are queued per cache
  // (deduplicated — a second change to a queued object is one notice) and
  // re-driven on a retry_interval timer. Null or a disabled plan disarms.
  // Plan must outlive us.
  void ArmFaults(FaultPlan* plan) { faults_ = plan != nullptr && plan->enabled() ? plan : nullptr; }

  // A cache got back in touch (reconnect/restart): immediately re-drive its
  // queued invalidations instead of waiting out the retry timer. Paper §1:
  // the server "must continue trying to reach it".
  void NoteCacheContact(CacheId cache, SimTime now);

  // Invalidations currently parked across all per-cache queues.
  size_t PendingInvalidations() const;

  // Notices sent but still riding a jitter delay — neither delivered nor
  // failed yet. A gauge, not a stat: it survives ResetStats() so the
  // delivery-outcome ledger (ServerStats) stays balanced even when a notice
  // was launched before a warmup reset and lands after it.
  int64_t InvalidationsInFlight() const { return invalidations_inflight_; }

  // Marks that `cache` holds `object`; future changes trigger a callback.
  void Subscribe(CacheId cache, ObjectId object);
  void Unsubscribe(CacheId cache, ObjectId object);
  bool IsSubscribed(CacheId cache, ObjectId object) const;

  // Applies a modification and notifies subscribed caches. new_size < 0
  // keeps the object's size.
  void ModifyObject(ObjectId id, SimTime at, int64_t new_size = -1);

  // Bookkeeping footprint of the invalidation protocol: total live
  // (cache, object) subscriptions. The paper's scalability complaint (§1).
  size_t SubscriptionCount() const { return subscription_count_; }

  const ServerStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ServerStats{}; }

 private:
  void SendInvalidation(CacheId cache, ObjectId id, SimTime now, bool is_retry);
  // Fault-path transmit: loss draw, uptime check, optional jitter delay.
  // Failures end up in the pending queue; `from_queue` marks redeliveries.
  void FaultedSend(CacheId cache, ObjectId id, SimTime now, bool from_queue);
  void EnqueuePending(CacheId cache, ObjectId id);
  void FlushPending(CacheId cache, SimTime now);
  void ArmFlushTimer();

  SimEngine* engine_;
  SimDuration retry_interval_;
  ExpiresProvider expires_provider_;
  ObjectStore store_;
  ServerStats stats_;
  FaultPlan* faults_ = nullptr;  // null unless an enabled plan is armed
  std::vector<InvalidationSink*> sinks_;             // indexed by CacheId
  std::vector<std::vector<bool>> subscriptions_;     // [cache][object]
  size_t subscription_count_ = 0;
  std::vector<std::vector<ObjectId>> pending_;       // per-cache FIFO of queued notices
  std::vector<std::vector<bool>> pending_flag_;      // per-cache dedup for pending_
  bool flush_timer_armed_ = false;
  int64_t invalidations_inflight_ = 0;               // jitter-delayed, undecided
};

}  // namespace webcc

#endif  // WEBCC_SRC_ORIGIN_SERVER_H_

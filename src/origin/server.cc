#include "src/origin/server.h"

#include "src/util/check.h"


namespace webcc {

ServerStats& ServerStats::operator+=(const ServerStats& other) {
  get_requests += other.get_requests;
  ims_queries += other.ims_queries;
  ims_not_modified += other.ims_not_modified;
  invalidations_sent += other.invalidations_sent;
  invalidation_retries += other.invalidation_retries;
  invalidations_lost += other.invalidations_lost;
  invalidations_queued += other.invalidations_queued;
  invalidations_redelivered += other.invalidations_redelivered;
  invalidations_delivered += other.invalidations_delivered;
  invalidations_undeliverable += other.invalidations_undeliverable;
  files_transferred += other.files_transferred;
  bytes_sent += other.bytes_sent;
  bytes_received += other.bytes_received;
  return *this;
}

OriginServer::OriginServer(SimEngine* engine, SimDuration retry_interval)
    : engine_(engine), retry_interval_(retry_interval) {}

OriginServer::GetResult OriginServer::HandleGet(ObjectId id, SimTime now, CacheId cache) {

  WEBCC_CHECK(store_.Contains(id));
  const WebObject& obj = store_.Get(id);
  ServerStats& stats = LedgerFor(cache);
  ++stats.get_requests;
  ++stats.files_transferred;
  stats.bytes_received += ControlWireBytes();
  stats.bytes_sent += DocumentWireBytes(obj.size_bytes);
  GetResult result{obj.size_bytes, obj.version, obj.last_modified, std::nullopt};
  if (expires_provider_) {
    result.expires = expires_provider_(obj, now);
  }
  return result;
}

OriginServer::ConditionalResult OriginServer::HandleConditionalGet(ObjectId id,
                                                                   uint64_t held_version,
                                                                   SimTime now, CacheId cache) {

  WEBCC_CHECK(store_.Contains(id));
  const WebObject& obj = store_.Get(id);
  ServerStats& stats = LedgerFor(cache);
  ++stats.ims_queries;
  stats.bytes_received += ControlWireBytes();
  ConditionalResult result;
  result.version = obj.version;
  result.last_modified = obj.last_modified;
  if (expires_provider_) {
    result.expires = expires_provider_(obj, now);
  }
  if (obj.version == held_version) {
    ++stats.ims_not_modified;
    stats.bytes_sent += ControlWireBytes();  // 304 Not Modified
    result.modified = false;
    return result;
  }
  ++stats.files_transferred;
  stats.bytes_sent += DocumentWireBytes(obj.size_bytes);
  result.modified = true;
  result.body_bytes = obj.size_bytes;
  return result;
}

CacheId OriginServer::RegisterCache(InvalidationSink* sink) {
  const CacheId id = static_cast<CacheId>(caches_.size());
  caches_.emplace_back().sink = sink;
  return id;
}

void OriginServer::SetSink(CacheId cache, InvalidationSink* sink) {
  WEBCC_CHECK_LT(cache, caches_.size());
  WEBCC_CHECK(sink != nullptr);
  caches_[cache].sink = sink;
}

CacheId OriginServer::IdOf(const InvalidationSink* sink) const {
  for (CacheId id = 0; id < caches_.size(); ++id) {
    if (caches_[id].sink == sink) return id;
  }
  return kInvalidCacheId;
}

void OriginServer::ArmFaults(CacheId cache, FaultPlan* plan) {
  WEBCC_CHECK_LT(cache, caches_.size());
  caches_[cache].faults = plan != nullptr && plan->enabled() ? plan : nullptr;
}

void OriginServer::Subscribe(CacheId cache, ObjectId object) {
  WEBCC_CHECK_LT(cache, caches_.size());
  WEBCC_CHECK(caches_[cache].sink != nullptr) << "subscription before SetSink";
  auto& subs = caches_[cache].subscribed;
  if (object >= subs.size()) {
    subs.resize(object + 1, false);
  }
  if (!subs[object]) {
    subs[object] = true;
    if (++subscription_count_ > peak_subscription_count_) {
      peak_subscription_count_ = subscription_count_;
    }
  }
}

void OriginServer::Unsubscribe(CacheId cache, ObjectId object) {
  WEBCC_CHECK_LT(cache, caches_.size());
  auto& subs = caches_[cache].subscribed;
  if (object < subs.size() && subs[object]) {
    subs[object] = false;
    --subscription_count_;
  }
}

bool OriginServer::IsSubscribed(CacheId cache, ObjectId object) const {
  WEBCC_CHECK_LT(cache, caches_.size());
  const auto& subs = caches_[cache].subscribed;
  return object < subs.size() && subs[object];
}

void OriginServer::ModifyObject(ObjectId id, SimTime at, int64_t new_size) {
  store_.Modify(id, at, new_size);
  for (CacheId cache = 0; cache < caches_.size(); ++cache) {
    const auto& subs = caches_[cache].subscribed;
    if (id < subs.size() && subs[id]) {
      SendInvalidation(cache, id, at, /*is_retry=*/false);
    }
  }
}

void OriginServer::SendInvalidation(CacheId cache, ObjectId id, SimTime now, bool is_retry) {
  if (caches_[cache].faults != nullptr) {
    FaultedSend(cache, id, now, /*from_queue=*/is_retry);
    return;
  }
  ServerStats& stats = caches_[cache].stats;
  ++stats.invalidations_sent;
  if (is_retry) {
    ++stats.invalidation_retries;
  }
  stats.bytes_sent += ControlWireBytes();
  if (caches_[cache].sink->DeliverInvalidation(id, now)) {
    ++stats.invalidations_delivered;
    return;
  }
  ++stats.invalidations_undeliverable;
  // Unreachable cache: the notice was lost; keep retrying on a timer so the
  // cache eventually learns of the change. Without an engine the loss is
  // permanent (callers that model unreachability must provide an engine).
  if (engine_ != nullptr) {
    engine_->ScheduleAfter(retry_interval_, [this, cache, id] {
      SendInvalidation(cache, id, engine_->Now(), /*is_retry=*/true);
    });
  }
}

void OriginServer::FaultedSend(CacheId cache, ObjectId id, SimTime now, bool from_queue) {
  AttachedCache& to = caches_[cache];
  if (!to.faults->ServerUp(now)) {
    // The origin itself is down: nothing goes on the wire; park the notice.
    EnqueuePending(cache, id);
    return;
  }
  ++to.stats.invalidations_sent;
  if (from_queue) {
    ++to.stats.invalidation_retries;
  }
  to.stats.bytes_sent += ControlWireBytes();
  if (to.faults->LoseMessage()) {
    ++to.stats.invalidations_lost;
    EnqueuePending(cache, id);
    return;
  }
  const SimDuration jitter = to.faults->Jitter();
  if (jitter > SimDuration(0) && engine_ != nullptr) {
    ++to.invalidations_inflight;
    engine_->ScheduleAfter(jitter, [this, cache, id, from_queue] {
      AttachedCache& at = caches_[cache];
      --at.invalidations_inflight;
      if (at.sink->DeliverInvalidation(id, engine_->Now())) {
        ++at.stats.invalidations_delivered;
        if (from_queue) ++at.stats.invalidations_redelivered;
      } else {
        ++at.stats.invalidations_undeliverable;
        EnqueuePending(cache, id);
      }
    });
    return;
  }
  if (to.sink->DeliverInvalidation(id, now)) {
    ++to.stats.invalidations_delivered;
    if (from_queue) ++to.stats.invalidations_redelivered;
    return;
  }
  ++to.stats.invalidations_undeliverable;
  EnqueuePending(cache, id);
}

void OriginServer::EnqueuePending(CacheId cache, ObjectId id) {
  WEBCC_CHECK_LT(cache, caches_.size());
  AttachedCache& to = caches_[cache];
  if (id >= to.pending_flag.size()) {
    to.pending_flag.resize(id + 1, false);
  }
  if (to.pending_flag[id]) {
    return;  // a notice for this object is already queued for this cache
  }
  to.pending_flag[id] = true;
  to.pending.push_back(id);
  ++to.stats.invalidations_queued;
  ArmFlushTimer(cache);
}

void OriginServer::ArmFlushTimer(CacheId cache) {
  if (engine_ == nullptr || caches_[cache].flush_timer_armed) {
    return;
  }
  caches_[cache].flush_timer_armed = true;
  engine_->ScheduleAfter(retry_interval_, [this, cache] {
    caches_[cache].flush_timer_armed = false;
    FlushPending(cache, engine_->Now());
    if (!caches_[cache].pending.empty()) {
      ArmFlushTimer(cache);  // something still stuck; keep trying (paper §1)
    }
  });
}

void OriginServer::FlushPending(CacheId cache, SimTime now) {
  WEBCC_CHECK_LT(cache, caches_.size());
  std::vector<ObjectId> batch;
  batch.swap(caches_[cache].pending);
  for (const ObjectId id : batch) {
    caches_[cache].pending_flag[id] = false;
  }
  for (const ObjectId id : batch) {
    // Skip notices the cache no longer cares about (it dropped or
    // revalidated the object while partitioned).
    if (!IsSubscribed(cache, id)) {
      continue;
    }
    SendInvalidation(cache, id, now, /*is_retry=*/true);
  }
}

void OriginServer::NoteCacheContact(CacheId cache, SimTime now) {
  FlushPending(cache, now);
}

int64_t OriginServer::InvalidationsInFlight(CacheId cache) const {
  WEBCC_CHECK_LT(cache, caches_.size());
  return caches_[cache].invalidations_inflight;
}

ServerStats OriginServer::stats() const {
  ServerStats total = unattributed_;
  for (const AttachedCache& cache : caches_) total += cache.stats;
  return total;
}

const ServerStats& OriginServer::stats(CacheId cache) const {
  WEBCC_CHECK_LT(cache, caches_.size());
  return caches_[cache].stats;
}

void OriginServer::ResetStats() {
  unattributed_ = ServerStats{};
  for (AttachedCache& cache : caches_) cache.stats = ServerStats{};
}

}  // namespace webcc

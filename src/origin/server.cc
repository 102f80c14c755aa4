#include "src/origin/server.h"

#include "src/util/check.h"


namespace webcc {

OriginServer::OriginServer(SimEngine* engine, SimDuration retry_interval)
    : engine_(engine), retry_interval_(retry_interval) {}

OriginServer::GetResult OriginServer::HandleGet(ObjectId id, SimTime now) {

  WEBCC_CHECK(store_.Contains(id));
  const WebObject& obj = store_.Get(id);
  ++stats_.get_requests;
  ++stats_.files_transferred;
  stats_.bytes_received += ControlWireBytes();
  stats_.bytes_sent += DocumentWireBytes(obj.size_bytes);
  GetResult result{obj.size_bytes, obj.version, obj.last_modified, std::nullopt};
  if (expires_provider_) {
    result.expires = expires_provider_(obj, now);
  }
  return result;
}

OriginServer::ConditionalResult OriginServer::HandleConditionalGet(ObjectId id,
                                                                   uint64_t held_version,
                                                                   SimTime now) {

  WEBCC_CHECK(store_.Contains(id));
  const WebObject& obj = store_.Get(id);
  ++stats_.ims_queries;
  stats_.bytes_received += ControlWireBytes();
  ConditionalResult result;
  result.version = obj.version;
  result.last_modified = obj.last_modified;
  if (expires_provider_) {
    result.expires = expires_provider_(obj, now);
  }
  if (obj.version == held_version) {
    ++stats_.ims_not_modified;
    stats_.bytes_sent += ControlWireBytes();  // 304 Not Modified
    result.modified = false;
    return result;
  }
  ++stats_.files_transferred;
  stats_.bytes_sent += DocumentWireBytes(obj.size_bytes);
  result.modified = true;
  result.body_bytes = obj.size_bytes;
  return result;
}

CacheId OriginServer::RegisterCache(InvalidationSink* sink) {
  WEBCC_CHECK(sink != nullptr);
  const CacheId id = static_cast<CacheId>(sinks_.size());
  sinks_.push_back(sink);
  subscriptions_.emplace_back();
  pending_.emplace_back();
  pending_flag_.emplace_back();
  return id;
}

CacheId OriginServer::IdOf(const InvalidationSink* sink) const {
  for (CacheId id = 0; id < sinks_.size(); ++id) {
    if (sinks_[id] == sink) return id;
  }
  return kInvalidCacheId;
}

void OriginServer::Subscribe(CacheId cache, ObjectId object) {
  WEBCC_CHECK_LT(cache, sinks_.size());
  auto& subs = subscriptions_[cache];
  if (object >= subs.size()) {
    subs.resize(object + 1, false);
  }
  if (!subs[object]) {
    subs[object] = true;
    ++subscription_count_;
  }
}

void OriginServer::Unsubscribe(CacheId cache, ObjectId object) {
  WEBCC_CHECK_LT(cache, sinks_.size());
  auto& subs = subscriptions_[cache];
  if (object < subs.size() && subs[object]) {
    subs[object] = false;
    --subscription_count_;
  }
}

bool OriginServer::IsSubscribed(CacheId cache, ObjectId object) const {
  WEBCC_CHECK_LT(cache, sinks_.size());
  const auto& subs = subscriptions_[cache];
  return object < subs.size() && subs[object];
}

void OriginServer::ModifyObject(ObjectId id, SimTime at, int64_t new_size) {
  store_.Modify(id, at, new_size);
  for (CacheId cache = 0; cache < sinks_.size(); ++cache) {
    if (IsSubscribed(cache, id)) {
      SendInvalidation(cache, id, at, /*is_retry=*/false);
    }
  }
}

void OriginServer::SendInvalidation(CacheId cache, ObjectId id, SimTime now, bool is_retry) {
  if (faults_ != nullptr) {
    FaultedSend(cache, id, now, /*from_queue=*/is_retry);
    return;
  }
  ++stats_.invalidations_sent;
  if (is_retry) {
    ++stats_.invalidation_retries;
  }
  stats_.bytes_sent += ControlWireBytes();
  if (sinks_[cache]->DeliverInvalidation(id, now)) {
    ++stats_.invalidations_delivered;
    return;
  }
  ++stats_.invalidations_undeliverable;
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
  if (!faults_->ServerUp(now)) {
    // The origin itself is down: nothing goes on the wire; park the notice.
    EnqueuePending(cache, id);
    return;
  }
  ++stats_.invalidations_sent;
  if (from_queue) {
    ++stats_.invalidation_retries;
  }
  stats_.bytes_sent += ControlWireBytes();
  if (faults_->LoseMessage()) {
    ++stats_.invalidations_lost;
    EnqueuePending(cache, id);
    return;
  }
  const SimDuration jitter = faults_->Jitter();
  if (jitter > SimDuration(0) && engine_ != nullptr) {
    ++invalidations_inflight_;
    engine_->ScheduleAfter(jitter, [this, cache, id, from_queue] {
      --invalidations_inflight_;
      if (sinks_[cache]->DeliverInvalidation(id, engine_->Now())) {
        ++stats_.invalidations_delivered;
        if (from_queue) ++stats_.invalidations_redelivered;
      } else {
        ++stats_.invalidations_undeliverable;
        EnqueuePending(cache, id);
      }
    });
    return;
  }
  if (sinks_[cache]->DeliverInvalidation(id, now)) {
    ++stats_.invalidations_delivered;
    if (from_queue) ++stats_.invalidations_redelivered;
    return;
  }
  ++stats_.invalidations_undeliverable;
  EnqueuePending(cache, id);
}

void OriginServer::EnqueuePending(CacheId cache, ObjectId id) {
  WEBCC_CHECK_LT(cache, pending_.size());
  auto& flags = pending_flag_[cache];
  if (id >= flags.size()) {
    flags.resize(id + 1, false);
  }
  if (flags[id]) {
    return;  // a notice for this object is already queued for this cache
  }
  flags[id] = true;
  pending_[cache].push_back(id);
  ++stats_.invalidations_queued;
  ArmFlushTimer();
}

void OriginServer::ArmFlushTimer() {
  if (engine_ == nullptr || flush_timer_armed_) {
    return;
  }
  flush_timer_armed_ = true;
  engine_->ScheduleAfter(retry_interval_, [this] {
    flush_timer_armed_ = false;
    const SimTime now = engine_->Now();
    for (CacheId cache = 0; cache < sinks_.size(); ++cache) {
      FlushPending(cache, now);
    }
    if (PendingInvalidations() > 0) {
      ArmFlushTimer();  // something still stuck; keep trying (paper §1)
    }
  });
}

void OriginServer::FlushPending(CacheId cache, SimTime now) {
  WEBCC_CHECK_LT(cache, pending_.size());
  std::vector<ObjectId> batch;
  batch.swap(pending_[cache]);
  for (const ObjectId id : batch) {
    pending_flag_[cache][id] = false;
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
  if (pending_.empty()) {
    return;
  }
  FlushPending(cache, now);
}

size_t OriginServer::PendingInvalidations() const {
  size_t total = 0;
  for (const auto& queue : pending_) total += queue.size();
  return total;
}

}  // namespace webcc

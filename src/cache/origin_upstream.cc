#include "src/cache/origin_upstream.h"

#include "src/util/check.h"


namespace webcc {

OriginUpstream::OriginUpstream(OriginServer* server, FaultPlan* plan)
    : server_(server), faults_(plan != nullptr && plan->enabled() ? plan : nullptr) {
  WEBCC_CHECK(server != nullptr);
  id_ = server_->RegisterCache();
  server_->ArmFaults(id_, faults_);
}

void OriginUpstream::SetCache(InvalidationSink* cache) {
  cache_ = cache;
  server_->SetSink(id_, cache);
}

Upstream::FullReply OriginUpstream::FetchFull(ObjectId id, SimTime now) {
  FullReply reply;
  if (faults_ == nullptr) {
    const auto result = server_->HandleGet(id, now, id_);
    reply.body_bytes = result.body_bytes;
    reply.version = result.version;
    reply.last_modified = result.last_modified;
    reply.expires = result.expires;
    return reply;
  }
  const ExchangeOutcome outcome = RunFaultedExchange(*faults_, now, [&](SimTime at) {
    // The server processes every request that reaches it, even if the reply
    // is then lost — retransmits legitimately duplicate server work.
    const auto result = server_->HandleGet(id, at, id_);
    reply.body_bytes = result.body_bytes;
    reply.version = result.version;
    reply.last_modified = result.last_modified;
    reply.expires = result.expires;
  });
  reply.ok = outcome.ok;
  reply.attempts = outcome.attempts;
  reply.fetch_delay = outcome.elapsed;
  return reply;
}

Upstream::CondReply OriginUpstream::FetchIfModified(ObjectId id, uint64_t held_version,
                                                    SimTime now) {
  CondReply reply;
  if (faults_ == nullptr) {
    const auto result = server_->HandleConditionalGet(id, held_version, now, id_);
    reply.modified = result.modified;
    reply.body_bytes = result.body_bytes;
    reply.version = result.version;
    reply.last_modified = result.last_modified;
    reply.expires = result.expires;
    return reply;
  }
  const ExchangeOutcome outcome = RunFaultedExchange(*faults_, now, [&](SimTime at) {
    const auto result = server_->HandleConditionalGet(id, held_version, at, id_);
    reply.modified = result.modified;
    reply.body_bytes = result.body_bytes;
    reply.version = result.version;
    reply.last_modified = result.last_modified;
    reply.expires = result.expires;
  });
  reply.ok = outcome.ok;
  reply.attempts = outcome.attempts;
  reply.fetch_delay = outcome.elapsed;
  return reply;
}

void OriginUpstream::SubscribeInvalidation(InvalidationSink* sink, ObjectId id) {
  if (cache_ == nullptr) {
    SetCache(sink);
  }
  WEBCC_CHECK(sink == cache_) << "an OriginUpstream carries one cache";
  server_->Subscribe(id_, id);
}

void OriginUpstream::UnsubscribeInvalidation(InvalidationSink* sink, ObjectId id) {
  if (sink == cache_) {
    server_->Unsubscribe(id_, id);
  }
}

}  // namespace webcc

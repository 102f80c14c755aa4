#include "src/cache/origin_upstream.h"

#include "src/util/check.h"


namespace webcc {

OriginUpstream::OriginUpstream(OriginServer* server) : server_(server) {
  WEBCC_CHECK(server != nullptr);
}

Upstream::FullReply OriginUpstream::FetchFull(ObjectId id, SimTime now) {
  FullReply reply;
  if (faults_ == nullptr) {
    const auto result = server_->HandleGet(id, now);
    reply.body_bytes = result.body_bytes;
    reply.version = result.version;
    reply.last_modified = result.last_modified;
    reply.expires = result.expires;
    return reply;
  }
  const ExchangeOutcome outcome = RunFaultedExchange(*faults_, now, [&](SimTime at) {
    // The server processes every request that reaches it, even if the reply
    // is then lost — retransmits legitimately duplicate server work.
    const auto result = server_->HandleGet(id, at);
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
    const auto result = server_->HandleConditionalGet(id, held_version, now);
    reply.modified = result.modified;
    reply.body_bytes = result.body_bytes;
    reply.version = result.version;
    reply.last_modified = result.last_modified;
    reply.expires = result.expires;
    return reply;
  }
  const ExchangeOutcome outcome = RunFaultedExchange(*faults_, now, [&](SimTime at) {
    const auto result = server_->HandleConditionalGet(id, held_version, at);
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

CacheId OriginUpstream::IdFor(InvalidationSink* sink) {
  const auto it = cache_ids_.find(sink);
  if (it != cache_ids_.end()) {
    return it->second;
  }
  const CacheId id = server_->RegisterCache(sink);
  cache_ids_.emplace(sink, id);
  return id;
}

void OriginUpstream::SubscribeInvalidation(InvalidationSink* sink, ObjectId id) {
  server_->Subscribe(IdFor(sink), id);
}

void OriginUpstream::UnsubscribeInvalidation(InvalidationSink* sink, ObjectId id) {
  const auto it = cache_ids_.find(sink);
  if (it != cache_ids_.end()) {
    server_->Unsubscribe(it->second, id);
  }
}

}  // namespace webcc

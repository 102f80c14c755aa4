#include "src/cache/faulted_link.h"

#include "src/sim/engine.h"
#include "src/util/check.h"

namespace webcc {

FaultedLink::FaultedLink(ProxyCache* parent, FaultPlan* plan, SimEngine* engine)
    : parent_(parent), plan_(plan), engine_(engine) {
  WEBCC_CHECK(parent != nullptr);
  WEBCC_CHECK(plan != nullptr);
  WEBCC_CHECK(engine != nullptr);
}

Upstream::FullReply FaultedLink::FetchFull(ObjectId id, SimTime now) {
  if (!plan_->enabled()) {
    return parent_->FetchFull(id, now);
  }
  FullReply reply;
  const ExchangeOutcome outcome = RunFaultedExchange(*plan_, now, [&](SimTime at) {
    reply = parent_->FetchFull(id, at);
  });
  // The exchange can fail on the wire (outcome) or at the far end (a
  // crashed or cut-off parent answered "no"); either way the child fails.
  reply.ok = outcome.ok && reply.ok;
  reply.attempts = outcome.attempts;
  reply.fetch_delay = outcome.elapsed;
  return reply;
}

Upstream::CondReply FaultedLink::FetchIfModified(ObjectId id, uint64_t held_version,
                                                 SimTime now) {
  if (!plan_->enabled()) {
    return parent_->FetchIfModified(id, held_version, now);
  }
  CondReply reply;
  const ExchangeOutcome outcome = RunFaultedExchange(*plan_, now, [&](SimTime at) {
    reply = parent_->FetchIfModified(id, held_version, at);
  });
  reply.ok = outcome.ok && reply.ok;
  reply.attempts = outcome.attempts;
  reply.fetch_delay = outcome.elapsed;
  return reply;
}

void FaultedLink::SubscribeInvalidation(InvalidationSink* sink, ObjectId id) {
  // The parent sees the LINK as its child sink, so deliveries route back
  // through this edge's fault model.
  if (child_ == nullptr) {
    child_ = sink;
  }
  parent_->SubscribeInvalidation(this, id);
}

void FaultedLink::UnsubscribeInvalidation(InvalidationSink* sink, ObjectId id) {
  (void)sink;
  parent_->UnsubscribeInvalidation(this, id);
}

bool FaultedLink::DeliverInvalidation(ObjectId id, SimTime now) {
  WEBCC_CHECK(child_ != nullptr) << "FaultedLink delivery before SetChild";
  if (!plan_->enabled()) {
    return child_->DeliverInvalidation(id, now);
  }
  if (!plan_->ServerUp(now)) {
    return false;  // link partitioned: nothing goes on the wire
  }
  if (plan_->LoseMessage()) {
    return false;  // notice lost in flight; the parent queues it
  }
  const SimDuration jitter = plan_->Jitter();
  if (jitter > SimDuration(0)) {
    engine_->ScheduleAfter(jitter, [this, id] {
      if (!child_->DeliverInvalidation(id, engine_->Now())) {
        // Committed to the wire but refused on arrival (child crashed
        // meanwhile): re-park it with the parent for redelivery.
        parent_->QueueChildInvalidation(this, id);
      }
    });
    return true;  // committed: the parent counts it delivered
  }
  return child_->DeliverInvalidation(id, now);
}

}  // namespace webcc

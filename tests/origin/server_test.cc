#include "src/origin/server.h"

#include <vector>

#include <gtest/gtest.h>

#include "src/http/message.h"
#include "src/sim/fault_plan.h"

namespace webcc {
namespace {

// Minimal sink that records deliveries and can simulate unreachability.
class RecordingSink : public InvalidationSink {
 public:
  bool DeliverInvalidation(ObjectId id, SimTime now) override {
    if (!reachable) {
      ++dropped;
      return false;
    }
    deliveries.push_back({id, now});
    return true;
  }

  struct Delivery {
    ObjectId id;
    SimTime at;
  };
  std::vector<Delivery> deliveries;
  int dropped = 0;
  bool reachable = true;
};

class ServerTest : public ::testing::Test {
 protected:
  ServerTest() : server_() {
    obj_ = server_.store().Create("/doc.html", FileType::kHtml, 6000, SimTime::Epoch() - Days(5));
  }

  OriginServer server_;
  ObjectId obj_ = kInvalidObjectId;
};

TEST_F(ServerTest, HandleGetReturnsDocumentAndAccounts) {
  const auto result = server_.HandleGet(obj_, SimTime::Epoch());
  EXPECT_EQ(result.body_bytes, 6000);
  EXPECT_EQ(result.version, 1u);
  EXPECT_EQ(result.last_modified, SimTime::Epoch() - Days(5));

  const ServerStats& s = server_.stats();
  EXPECT_EQ(s.get_requests, 1u);
  EXPECT_EQ(s.files_transferred, 1u);
  EXPECT_EQ(s.bytes_received, kControlMessageBytes);
  EXPECT_EQ(s.bytes_sent, kControlMessageBytes + 6000);
  EXPECT_EQ(s.TotalOperations(), 1u);
}

TEST_F(ServerTest, ConditionalGetNotModified) {
  const auto result = server_.HandleConditionalGet(obj_, /*held_version=*/1, SimTime::Epoch());
  EXPECT_FALSE(result.modified);
  EXPECT_EQ(result.body_bytes, 0);

  const ServerStats& s = server_.stats();
  EXPECT_EQ(s.ims_queries, 1u);
  EXPECT_EQ(s.ims_not_modified, 1u);
  EXPECT_EQ(s.files_transferred, 0u);
  // Query + 304: two control messages total.
  EXPECT_EQ(s.TotalBytes(), 2 * kControlMessageBytes);
}

TEST_F(ServerTest, ConditionalGetModifiedShipsBody) {
  server_.ModifyObject(obj_, SimTime::Epoch() + Hours(1));
  const auto result = server_.HandleConditionalGet(obj_, 1, SimTime::Epoch() + Hours(2));
  EXPECT_TRUE(result.modified);
  EXPECT_EQ(result.body_bytes, 6000);
  EXPECT_EQ(result.version, 2u);

  const ServerStats& s = server_.stats();
  EXPECT_EQ(s.ims_queries, 1u);
  EXPECT_EQ(s.ims_not_modified, 0u);
  EXPECT_EQ(s.files_transferred, 1u);
  // A combined query+retransmit counts as ONE server operation (paper §3).
  EXPECT_EQ(s.TotalOperations(), 1u);
}

TEST_F(ServerTest, InvalidationDeliveredToSubscribers) {
  RecordingSink sink;
  const CacheId cache = server_.RegisterCache(&sink);
  server_.Subscribe(cache, obj_);
  EXPECT_TRUE(server_.IsSubscribed(cache, obj_));

  server_.ModifyObject(obj_, SimTime::Epoch() + Hours(3));
  ASSERT_EQ(sink.deliveries.size(), 1u);
  EXPECT_EQ(sink.deliveries[0].id, obj_);
  EXPECT_EQ(sink.deliveries[0].at, SimTime::Epoch() + Hours(3));
  EXPECT_EQ(server_.stats().invalidations_sent, 1u);
  EXPECT_EQ(server_.stats().bytes_sent, kControlMessageBytes);
}

TEST_F(ServerTest, NoInvalidationWithoutSubscription) {
  RecordingSink sink;
  server_.RegisterCache(&sink);
  server_.ModifyObject(obj_, SimTime::Epoch() + Hours(1));
  EXPECT_TRUE(sink.deliveries.empty());
  EXPECT_EQ(server_.stats().invalidations_sent, 0u);
}

TEST_F(ServerTest, UnsubscribeStopsNotices) {
  RecordingSink sink;
  const CacheId cache = server_.RegisterCache(&sink);
  server_.Subscribe(cache, obj_);
  server_.Unsubscribe(cache, obj_);
  EXPECT_FALSE(server_.IsSubscribed(cache, obj_));
  server_.ModifyObject(obj_, SimTime::Epoch() + Hours(1));
  EXPECT_TRUE(sink.deliveries.empty());
}

TEST_F(ServerTest, SubscriptionCountTracksBookkeeping) {
  RecordingSink a;
  RecordingSink b;
  const CacheId ca = server_.RegisterCache(&a);
  const CacheId cb = server_.RegisterCache(&b);
  const ObjectId second =
      server_.store().Create("/b.gif", FileType::kGif, 100, SimTime::Epoch());
  EXPECT_EQ(server_.SubscriptionCount(), 0u);
  server_.Subscribe(ca, obj_);
  server_.Subscribe(ca, obj_);  // idempotent
  server_.Subscribe(cb, obj_);
  server_.Subscribe(cb, second);
  EXPECT_EQ(server_.SubscriptionCount(), 3u);
  server_.Unsubscribe(cb, second);
  EXPECT_EQ(server_.SubscriptionCount(), 2u);
}

TEST_F(ServerTest, EveryChangeNotifiesEverySubscriber) {
  RecordingSink a;
  RecordingSink b;
  server_.Subscribe(server_.RegisterCache(&a), obj_);
  server_.Subscribe(server_.RegisterCache(&b), obj_);
  for (int i = 1; i <= 4; ++i) {
    server_.ModifyObject(obj_, SimTime::Epoch() + Hours(i));
  }
  EXPECT_EQ(a.deliveries.size(), 4u);
  EXPECT_EQ(b.deliveries.size(), 4u);
  EXPECT_EQ(server_.stats().invalidations_sent, 8u);
}

TEST(ServerRetryTest, RetriesUnreachableCacheUntilDelivered) {
  SimEngine engine;
  OriginServer server(&engine, /*retry_interval=*/Minutes(5));
  const ObjectId obj = server.store().Create("/x", FileType::kHtml, 100, SimTime::Epoch());
  RecordingSink sink;
  sink.reachable = false;
  server.Subscribe(server.RegisterCache(&sink), obj);

  server.ModifyObject(obj, SimTime::Epoch());
  EXPECT_EQ(sink.dropped, 1);

  // Two retry windows pass while the cache is down.
  engine.RunUntil(SimTime::Epoch() + Minutes(11));
  EXPECT_EQ(sink.dropped, 3);
  EXPECT_TRUE(sink.deliveries.empty());

  // The cache comes back; the next retry succeeds and retries stop.
  sink.reachable = true;
  engine.RunUntil(SimTime::Epoch() + Hours(2));
  ASSERT_EQ(sink.deliveries.size(), 1u);
  EXPECT_EQ(sink.deliveries[0].id, obj);
  EXPECT_EQ(sink.dropped, 3);
  EXPECT_EQ(server.stats().invalidation_retries, 3u);
  EXPECT_EQ(server.stats().invalidations_sent, 4u);
}

TEST(ServerRetryTest, NoEngineMeansNoRetries) {
  OriginServer server;  // no engine
  const ObjectId obj = server.store().Create("/x", FileType::kHtml, 100, SimTime::Epoch());
  RecordingSink sink;
  sink.reachable = false;
  server.Subscribe(server.RegisterCache(&sink), obj);
  server.ModifyObject(obj, SimTime::Epoch());
  EXPECT_EQ(sink.dropped, 1);
  EXPECT_EQ(server.stats().invalidations_sent, 1u);
}

TEST_F(ServerTest, ExpiresProviderPropagates) {
  server_.SetExpiresProvider([](const WebObject& obj, SimTime now) -> std::optional<SimTime> {
    (void)obj;
    return now + Days(1);
  });
  const auto get = server_.HandleGet(obj_, SimTime::Epoch());
  ASSERT_TRUE(get.expires.has_value());
  EXPECT_EQ(*get.expires, SimTime::Epoch() + Days(1));
  const auto cond = server_.HandleConditionalGet(obj_, 1, SimTime::Epoch() + Hours(1));
  ASSERT_TRUE(cond.expires.has_value());
  EXPECT_EQ(*cond.expires, SimTime::Epoch() + Hours(1) + Days(1));
}

TEST_F(ServerTest, ResetStatsClears) {
  server_.HandleGet(obj_, SimTime::Epoch());
  server_.ResetStats();
  EXPECT_EQ(server_.stats().get_requests, 0u);
  EXPECT_EQ(server_.stats().TotalBytes(), 0);
}

TEST_F(ServerTest, PeakSubscriptionCountIsTheHighWaterMark) {
  RecordingSink a;
  RecordingSink b;
  const CacheId ca = server_.RegisterCache(&a);
  const CacheId cb = server_.RegisterCache(&b);
  server_.Subscribe(ca, obj_);
  server_.Subscribe(cb, obj_);
  server_.Unsubscribe(ca, obj_);
  server_.Subscribe(cb, obj_);  // already held: no new subscription
  EXPECT_EQ(server_.SubscriptionCount(), 1u);
  EXPECT_EQ(server_.PeakSubscriptionCount(), 2u);
}

void ExpectLedgersSumToStats(const OriginServer& server, CacheId a, CacheId b) {
  ServerStats sum = server.stats(a);
  sum += server.stats(b);
  const ServerStats total = server.stats();
  EXPECT_EQ(sum.get_requests, total.get_requests);
  EXPECT_EQ(sum.ims_queries, total.ims_queries);
  EXPECT_EQ(sum.invalidations_sent, total.invalidations_sent);
  EXPECT_EQ(sum.invalidation_retries, total.invalidation_retries);
  EXPECT_EQ(sum.invalidations_lost, total.invalidations_lost);
  EXPECT_EQ(sum.invalidations_queued, total.invalidations_queued);
  EXPECT_EQ(sum.invalidations_redelivered, total.invalidations_redelivered);
  EXPECT_EQ(sum.invalidations_delivered, total.invalidations_delivered);
  EXPECT_EQ(sum.invalidations_undeliverable, total.invalidations_undeliverable);
  EXPECT_EQ(sum.bytes_sent, total.bytes_sent);
  EXPECT_EQ(sum.bytes_received, total.bytes_received);
}

TEST(ServerLedgerTest, FaultPlanArmedForOneCacheLeavesTheOtherLedgerClean) {
  SimEngine engine;
  OriginServer server(&engine, Minutes(5));
  const ObjectId obj = server.store().Create("/x", FileType::kHtml, 100, SimTime::Epoch());
  FaultConfig dead;
  dead.loss_rate = 1.0;
  FaultPlan plan(dead, SimTime::Epoch() + Days(1));
  RecordingSink lossy;
  RecordingSink clean;
  const CacheId a = server.RegisterCache(&lossy);
  const CacheId b = server.RegisterCache(&clean);
  server.ArmFaults(a, &plan);
  server.Subscribe(a, obj);
  server.Subscribe(b, obj);
  server.HandleGet(obj, SimTime::Epoch(), b);

  for (int i = 1; i <= 3; ++i) {
    engine.RunUntil(SimTime::Epoch() + Hours(i));
    server.ModifyObject(obj, engine.Now());
  }
  engine.RunUntil(SimTime::Epoch() + Hours(5));

  EXPECT_TRUE(lossy.deliveries.empty());
  EXPECT_GT(server.stats(a).invalidations_lost, 3u);  // retries lose too
  EXPECT_EQ(server.stats(a).invalidations_lost, server.stats(a).invalidations_sent);
  EXPECT_EQ(clean.deliveries.size(), 3u);
  EXPECT_EQ(server.stats(b).invalidations_sent, 3u);
  EXPECT_EQ(server.stats(b).invalidations_delivered, 3u);
  EXPECT_EQ(server.stats(b).invalidations_lost, 0u);
  EXPECT_EQ(server.stats(b).invalidations_queued, 0u);
  EXPECT_EQ(server.stats(b).get_requests, 1u);
  EXPECT_EQ(server.stats(a).get_requests, 0u);
  ExpectLedgersSumToStats(server, a, b);
}

TEST(ServerLedgerTest, EachCacheHasItsOwnFlushTimer) {
  SimEngine engine;
  OriginServer server(&engine, Minutes(5));
  const ObjectId obj = server.store().Create("/x", FileType::kHtml, 100, SimTime::Epoch());
  FaultConfig dead;
  dead.loss_rate = 1.0;
  FaultConfig quiet;
  quiet.armed = true;  // faulted path, no faults drawn
  FaultPlan dead_plan(dead, SimTime::Epoch() + Days(1));
  FaultPlan quiet_plan(quiet, SimTime::Epoch() + Days(1));
  RecordingSink lossy;
  RecordingSink late;
  const CacheId a = server.RegisterCache(&lossy);
  const CacheId b = server.RegisterCache(&late);
  server.ArmFaults(a, &dead_plan);
  server.ArmFaults(b, &quiet_plan);
  server.Subscribe(a, obj);

  // a's notice is lost at t=0: its timer fires every 5 min from t=5m.
  server.ModifyObject(obj, SimTime::Epoch());
  // b refuses a notice at t=2m: its own timer is due at t=7m.
  server.Subscribe(b, obj);
  late.reachable = false;
  engine.RunUntil(SimTime::Epoch() + Minutes(2));
  server.ModifyObject(obj, engine.Now());
  EXPECT_EQ(server.stats(b).invalidations_queued, 1u);
  late.reachable = true;

  engine.RunUntil(SimTime::Epoch() + Minutes(6));
  EXPECT_GE(server.stats(a).invalidation_retries, 1u);  // a's timer fired
  EXPECT_TRUE(late.deliveries.empty());                 // and left b's queue alone
  engine.RunUntil(SimTime::Epoch() + Minutes(7));
  ASSERT_EQ(late.deliveries.size(), 1u);
  EXPECT_EQ(late.deliveries[0].at, SimTime::Epoch() + Minutes(7));
  EXPECT_EQ(server.stats(b).invalidations_redelivered, 1u);
  EXPECT_EQ(server.stats(b).invalidations_lost, 0u);
  ExpectLedgersSumToStats(server, a, b);
}

}  // namespace
}  // namespace webcc

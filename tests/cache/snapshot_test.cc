#include "src/cache/snapshot.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include <gtest/gtest.h>

#include "src/cache/origin_upstream.h"
#include "src/cache/policy_factory.h"

namespace webcc {
namespace {

class SnapshotTest : public ::testing::Test {
 protected:
  SnapshotTest() : upstream_(&server_) {
    a_ = server_.store().Create("/a.html", FileType::kHtml, 4000, SimTime::Epoch() - Days(10));
    b_ = server_.store().Create("/b.gif", FileType::kGif, 7000, SimTime::Epoch() - Days(50));
  }

  std::unique_ptr<ProxyCache> MakeCache(PolicyConfig policy) {
    return std::make_unique<ProxyCache>("snap", &upstream_, MakePolicy(policy), CacheConfig{},
                                        &server_.store());
  }

  OriginServer server_;
  OriginUpstream upstream_;
  ObjectId a_ = kInvalidObjectId;
  ObjectId b_ = kInvalidObjectId;
};

TEST_F(SnapshotTest, SaveLoadRoundTripPreservesEntries) {
  auto before = MakeCache(PolicyConfig::Ttl(Hours(48)));
  before->HandleRequest(a_, SimTime::Epoch());
  before->HandleRequest(b_, SimTime::Epoch() + Hours(1));

  std::stringstream snapshot;
  SaveCacheSnapshot(*before, snapshot);

  auto after = MakeCache(PolicyConfig::Ttl(Hours(48)));
  const int64_t restored =
      LoadCacheSnapshot(*after, snapshot, SnapshotRecovery::kTrustSnapshot);
  EXPECT_EQ(restored, 2);
  EXPECT_EQ(after->EntryCount(), 2u);
  EXPECT_EQ(after->StoredBytes(), before->StoredBytes());

  const CacheEntry* entry = after->Find(a_);
  ASSERT_NE(entry, nullptr);
  const CacheEntry* original = before->Find(a_);
  EXPECT_EQ(entry->version, original->version);
  EXPECT_EQ(entry->last_modified, original->last_modified);
  EXPECT_EQ(entry->fetched_at, original->fetched_at);
  EXPECT_EQ(entry->validated_at, original->validated_at);
  EXPECT_EQ(entry->expires_at, original->expires_at);
  EXPECT_EQ(entry->valid, original->valid);
  EXPECT_EQ(entry->type, FileType::kHtml);
}

TEST_F(SnapshotTest, TrustedRestartServesWithoutTraffic) {
  auto before = MakeCache(PolicyConfig::Ttl(Hours(48)));
  before->HandleRequest(a_, SimTime::Epoch());
  std::stringstream snapshot;
  SaveCacheSnapshot(*before, snapshot);

  auto after = MakeCache(PolicyConfig::Ttl(Hours(48)));
  LoadCacheSnapshot(*after, snapshot, SnapshotRecovery::kTrustSnapshot);
  server_.ResetStats();
  const ServeResult result = after->HandleRequest(a_, SimTime::Epoch() + Hours(2));
  EXPECT_EQ(result.kind, ServeKind::kHitFresh);
  EXPECT_EQ(server_.stats().TotalBytes(), 0);
}

TEST_F(SnapshotTest, RevalidateAllForcesConditionalGets) {
  auto before = MakeCache(PolicyConfig::Ttl(Hours(48)));
  before->HandleRequest(a_, SimTime::Epoch());
  std::stringstream snapshot;
  SaveCacheSnapshot(*before, snapshot);

  auto after = MakeCache(PolicyConfig::Ttl(Hours(48)));
  LoadCacheSnapshot(*after, snapshot, SnapshotRecovery::kRevalidateAll);
  const ServeResult result = after->HandleRequest(a_, SimTime::Epoch() + Hours(2));
  EXPECT_EQ(result.kind, ServeKind::kHitValidated);  // 304, body kept
  EXPECT_EQ(server_.stats().ims_not_modified, 1u);
}

TEST_F(SnapshotTest, RestartLosesInvalidationSubscriptions) {
  // The §6 recovery gap, reproduced: a naively restored invalidation cache
  // serves stale data because the server no longer knows it exists.
  auto before = MakeCache(PolicyConfig::Invalidation());
  before->HandleRequest(a_, SimTime::Epoch());
  EXPECT_EQ(server_.SubscriptionCount(), 1u);
  std::stringstream snapshot;
  SaveCacheSnapshot(*before, snapshot);
  before.reset();  // the "crash" — but the server still holds its registration
  // Model the server noticing the dead cache (or a fresh registration):
  // a NEW cache instance restores the snapshot with no subscriptions.
  OriginServer fresh_server;
  fresh_server.store().Create("/a.html", FileType::kHtml, 4000, SimTime::Epoch() - Days(10));
  fresh_server.store().Create("/b.gif", FileType::kGif, 7000, SimTime::Epoch() - Days(50));
  OriginUpstream fresh_upstream(&fresh_server);
  ProxyCache after("snap2", &fresh_upstream, MakePolicy(PolicyConfig::Invalidation()),
                   CacheConfig{}, &fresh_server.store());
  snapshot.seekg(0);
  LoadCacheSnapshot(after, snapshot, SnapshotRecovery::kTrustSnapshot);
  EXPECT_EQ(fresh_server.SubscriptionCount(), 0u);

  fresh_server.ModifyObject(0, SimTime::Epoch() + Hours(1));
  const ServeResult result = after.HandleRequest(0, SimTime::Epoch() + Hours(2));
  EXPECT_EQ(result.kind, ServeKind::kHitFresh);
  EXPECT_TRUE(result.stale);  // never told about the change

  // The conservative recovery avoids this at the cost of revalidation.
  ProxyCache safe("snap3", &fresh_upstream, MakePolicy(PolicyConfig::Invalidation()),
                  CacheConfig{}, &fresh_server.store());
  std::stringstream snapshot2;
  snapshot.clear();
  snapshot.seekg(0);
  LoadCacheSnapshot(safe, snapshot, SnapshotRecovery::kRevalidateAll);
  const ServeResult safe_result = safe.HandleRequest(0, SimTime::Epoch() + Hours(2));
  EXPECT_EQ(safe_result.kind, ServeKind::kMissRefetched);
  EXPECT_FALSE(safe_result.stale);
}

TEST_F(SnapshotTest, FileRoundTrip) {
  auto cache = MakeCache(PolicyConfig::Alex(0.1));
  cache->HandleRequest(a_, SimTime::Epoch());
  const std::string path = ::testing::TempDir() + "/webcc_snapshot_test.txt";
  ASSERT_TRUE(SaveCacheSnapshotFile(*cache, path));
  auto restored = MakeCache(PolicyConfig::Alex(0.1));
  EXPECT_EQ(LoadCacheSnapshotFile(*restored, path, SnapshotRecovery::kTrustSnapshot), 1);
  EXPECT_TRUE(restored->Contains(a_));
}

TEST_F(SnapshotTest, FailedSaveLeavesThePreviousSnapshotIntact) {
  // The atomic-save regression: SaveCacheSnapshotFile writes a sibling temp
  // file and renames it over the target, so a failed save must never damage
  // an existing good snapshot.
  auto cache = MakeCache(PolicyConfig::Ttl(Hours(48)));
  cache->HandleRequest(a_, SimTime::Epoch());
  cache->HandleRequest(b_, SimTime::Epoch() + Hours(1));
  const std::string path = ::testing::TempDir() + "/webcc_snapshot_atomic_test.txt";
  std::remove(path.c_str());
  ASSERT_TRUE(SaveCacheSnapshotFile(*cache, path));

  // Sabotage the save: a directory squatting on the temp path makes the
  // temp-file open (and any rename over it) fail.
  const std::string tmp_path = path + ".tmp";
  ASSERT_EQ(::mkdir(tmp_path.c_str(), 0755), 0);
  auto bigger = MakeCache(PolicyConfig::Ttl(Hours(48)));
  bigger->HandleRequest(a_, SimTime::Epoch());
  EXPECT_FALSE(SaveCacheSnapshotFile(*bigger, path));

  // The original two-entry snapshot still loads, byte-for-byte usable.
  auto restored = MakeCache(PolicyConfig::Ttl(Hours(48)));
  EXPECT_EQ(LoadCacheSnapshotFile(*restored, path, SnapshotRecovery::kTrustSnapshot), 2);
  EXPECT_TRUE(restored->Contains(a_));
  EXPECT_TRUE(restored->Contains(b_));

  // Remove the obstruction: the save succeeds and replaces the snapshot.
  ASSERT_EQ(::rmdir(tmp_path.c_str()), 0);
  EXPECT_TRUE(SaveCacheSnapshotFile(*bigger, path));
  auto replaced = MakeCache(PolicyConfig::Ttl(Hours(48)));
  EXPECT_EQ(LoadCacheSnapshotFile(*replaced, path, SnapshotRecovery::kTrustSnapshot), 1);
  std::remove(path.c_str());
}

TEST_F(SnapshotTest, SaveIntoMissingDirectoryFailsWithoutCreatingFiles) {
  auto cache = MakeCache(PolicyConfig::Ttl(Hours(48)));
  cache->HandleRequest(a_, SimTime::Epoch());
  const std::string path = "/nonexistent-webcc-dir/snapshot.txt";
  EXPECT_FALSE(SaveCacheSnapshotFile(*cache, path));
  std::ifstream check(path);
  EXPECT_FALSE(check.good());
  std::ifstream tmp_check(path + ".tmp");
  EXPECT_FALSE(tmp_check.good());
}

namespace {
constexpr const char* kMagic = "#webcc-cache-snapshot v1\n";
}

TEST_F(SnapshotTest, ParseErrorsReported) {
  auto cache = MakeCache(PolicyConfig::Ttl(Hours(1)));
  SnapshotParseError error;

  std::istringstream bad_fields(std::string(kMagic) + "1 2 3\n");
  EXPECT_EQ(LoadCacheSnapshot(*cache, bad_fields, SnapshotRecovery::kTrustSnapshot, &error), -1);
  EXPECT_NE(error.message.find("9 fields"), std::string::npos);

  std::istringstream bad_type(std::string(kMagic) + "0 99 100 1 0 0 0 0 1\n");
  EXPECT_EQ(LoadCacheSnapshot(*cache, bad_type, SnapshotRecovery::kTrustSnapshot, &error), -1);
  EXPECT_NE(error.message.find("type"), std::string::npos);

  std::istringstream bad_int(std::string(kMagic) + "0 1 xyz 1 0 0 0 0 1\n");
  EXPECT_EQ(LoadCacheSnapshot(*cache, bad_int, SnapshotRecovery::kTrustSnapshot, &error), -1);

  std::istringstream bad_valid(std::string(kMagic) + "0 1 100 1 0 0 0 0 7\n");
  EXPECT_EQ(LoadCacheSnapshot(*cache, bad_valid, SnapshotRecovery::kTrustSnapshot, &error), -1);

  std::istringstream bad_id(std::string(kMagic) + "-4 1 100 1 0 0 0 0 1\n");
  EXPECT_EQ(LoadCacheSnapshot(*cache, bad_id, SnapshotRecovery::kTrustSnapshot, &error), -1);
  EXPECT_NE(error.message.find("object id"), std::string::npos);

  // Ids at or past kInvalidObjectId, and ids past the world's two objects:
  // rejected, never truncated to a smaller id and never handed to the index.
  for (const char* id : {"4294967295", "4294967296", "99999999999", "2", "3"}) {
    std::istringstream out_of_world(std::string(kMagic) + id + " 1 100 1 0 0 0 0 1\n");
    EXPECT_EQ(LoadCacheSnapshot(*cache, out_of_world, SnapshotRecovery::kTrustSnapshot, &error),
              -1)
        << id;
    EXPECT_NE(error.message.find("out of range"), std::string::npos) << id;
    EXPECT_EQ(error.line, 2u) << id;
  }
  // A good line before the bad one is not installed either.
  std::istringstream good_then_far(std::string(kMagic) + "0 1 100 1 0 0 0 0 1\n" +
                                   "4294967296 1 100 1 0 0 0 0 1\n");
  EXPECT_EQ(LoadCacheSnapshot(*cache, good_then_far, SnapshotRecovery::kTrustSnapshot, &error),
            -1);
  EXPECT_EQ(error.line, 3u);
  // Without an oracle there is no world size, but kInvalidObjectId and up
  // are still out of range.
  ProxyCache no_oracle("snap", &upstream_, MakePolicy(PolicyConfig::Ttl(Hours(1))), CacheConfig{},
                       nullptr);
  for (const char* id : {"4294967295", "4294967296"}) {
    std::istringstream invalid_id(std::string(kMagic) + id + " 1 100 1 0 0 0 0 1\n");
    EXPECT_EQ(LoadCacheSnapshot(no_oracle, invalid_id, SnapshotRecovery::kTrustSnapshot, &error),
              -1)
        << id;
    EXPECT_NE(error.message.find("out of range"), std::string::npos) << id;
  }
  EXPECT_EQ(no_oracle.EntryCount(), 0u);

  EXPECT_EQ(LoadCacheSnapshotFile(*cache, "/nonexistent/x", SnapshotRecovery::kTrustSnapshot,
                                  &error),
            -1);
  EXPECT_NE(error.message.find("cannot open"), std::string::npos);
  EXPECT_EQ(cache->EntryCount(), 0u);  // every failure left the cache untouched
}

TEST_F(SnapshotTest, MissingMagicHeaderRejected) {
  auto cache = MakeCache(PolicyConfig::Ttl(Hours(1)));
  SnapshotParseError error;
  // A valid-looking entry line, but the file does not announce itself as a
  // snapshot — e.g. someone pointed the loader at the wrong file.
  std::istringstream no_header("0 1 100 1 0 0 0 0 1\n");
  EXPECT_EQ(LoadCacheSnapshot(*cache, no_header, SnapshotRecovery::kTrustSnapshot, &error), -1);
  EXPECT_NE(error.message.find("header"), std::string::npos);
  EXPECT_EQ(cache->EntryCount(), 0u);

  std::istringstream empty("");
  EXPECT_EQ(LoadCacheSnapshot(*cache, empty, SnapshotRecovery::kTrustSnapshot, &error), -1);
  EXPECT_NE(error.message.find("header"), std::string::npos);
}

TEST_F(SnapshotTest, TruncatedFileLeavesNoPartialState) {
  // The regression this guards: a snapshot cut off mid-line used to restore
  // every entry before the corruption and then fail, leaving the cache half
  // loaded with no way to tell.
  auto cache = MakeCache(PolicyConfig::Ttl(Hours(1)));
  SnapshotParseError error;
  std::istringstream truncated(std::string(kMagic) +
                               "0 1 100 1 0 0 0 0 1\n"
                               "1 1 200 1 0 0 0\n");  // line chopped mid-record
  EXPECT_EQ(LoadCacheSnapshot(*cache, truncated, SnapshotRecovery::kTrustSnapshot, &error), -1);
  EXPECT_EQ(error.line, 3u);
  EXPECT_EQ(cache->EntryCount(), 0u);  // the good first line was NOT installed
  EXPECT_EQ(cache->StoredBytes(), 0);
}

TEST_F(SnapshotTest, DuplicateObjectIdRejectedGracefully) {
  // Used to die on a WEBCC_CHECK inside RestoreEntry (after installing the
  // first copy); now a diagnostic parse error with the cache untouched.
  auto cache = MakeCache(PolicyConfig::Ttl(Hours(1)));
  SnapshotParseError error;
  std::istringstream duplicate(std::string(kMagic) +
                               "0 1 100 1 0 0 0 0 1\n"
                               "0 1 100 1 0 0 0 0 1\n");
  EXPECT_EQ(LoadCacheSnapshot(*cache, duplicate, SnapshotRecovery::kTrustSnapshot, &error), -1);
  EXPECT_NE(error.message.find("duplicate"), std::string::npos);
  EXPECT_EQ(error.line, 3u);
  EXPECT_EQ(cache->EntryCount(), 0u);
}

TEST_F(SnapshotTest, AlreadyCachedObjectRejectedGracefully) {
  auto cache = MakeCache(PolicyConfig::Ttl(Hours(48)));
  cache->HandleRequest(a_, SimTime::Epoch());  // live entry for object 0
  SnapshotParseError error;
  std::istringstream clash(std::string(kMagic) + "0 1 100 1 0 0 0 0 1\n");
  EXPECT_EQ(LoadCacheSnapshot(*cache, clash, SnapshotRecovery::kTrustSnapshot, &error), -1);
  EXPECT_NE(error.message.find("already cached"), std::string::npos);
  EXPECT_EQ(cache->EntryCount(), 1u);  // the live entry survives unmodified
}

TEST_F(SnapshotTest, EmptySnapshotRestoresNothing) {
  auto cache = MakeCache(PolicyConfig::Ttl(Hours(1)));
  std::istringstream empty("#webcc-cache-snapshot v1\n");
  EXPECT_EQ(LoadCacheSnapshot(*cache, empty, SnapshotRecovery::kTrustSnapshot), 0);
  EXPECT_EQ(cache->EntryCount(), 0u);
}

TEST_F(SnapshotTest, ForEachEntryVisitsLruOrder) {
  auto cache = MakeCache(PolicyConfig::Ttl(Hours(48)));
  cache->HandleRequest(a_, SimTime::Epoch());
  cache->HandleRequest(b_, SimTime::Epoch() + Seconds(1));
  cache->HandleRequest(a_, SimTime::Epoch() + Seconds(2));  // a now most recent
  std::vector<ObjectId> order;
  cache->ForEachEntry([&order](const CacheEntry& entry) { order.push_back(entry.object); });
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], a_);
  EXPECT_EQ(order[1], b_);
}

}  // namespace
}  // namespace webcc

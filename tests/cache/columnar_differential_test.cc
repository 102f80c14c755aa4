// Differential property tests for the columnar EntryTable against the
// pre-columnar map+list layout (ReferenceEntryStore): randomized
// install/touch/evict/invalidate/modify/sweep/crash/restore sequences driven
// through both stores in lockstep, asserting field-exact entries, identical
// LRU order, identical sweep counts, and column/entry mirror agreement after
// every step. Plus ProxyCache-level snapshot round-trips and RestoreEntry
// preconditions under capacity pressure, which ride the same storage layer.

#include <memory>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "src/cache/entry_table.h"
#include "src/cache/origin_upstream.h"
#include "src/cache/policy_factory.h"
#include "src/cache/proxy_cache.h"
#include "src/cache/reference_store.h"
#include "src/cache/snapshot.h"
#include "src/util/rng.h"
#include "src/util/str.h"

namespace webcc {
namespace {

using SlotId = EntryTable::SlotId;

std::vector<ObjectId> TableLruOrder(const EntryTable& table) {
  std::vector<ObjectId> order;
  for (SlotId slot = table.MruFront(); slot != EntryTable::kNoSlot; slot = table.NextOlder(slot)) {
    order.push_back(table.entry(slot).object);
  }
  return order;
}

void ExpectEntriesEqual(const CacheEntry& a, const CacheEntry& b) {
  EXPECT_EQ(a.object, b.object);
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.size_bytes, b.size_bytes);
  EXPECT_EQ(a.version, b.version);
  EXPECT_EQ(a.last_modified, b.last_modified);
  EXPECT_EQ(a.fetched_at, b.fetched_at);
  EXPECT_EQ(a.validated_at, b.validated_at);
  EXPECT_EQ(a.expires_at, b.expires_at);
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.serve_count, b.serve_count);
  ASSERT_EQ(a.serves_since_validation.size(), b.serves_since_validation.size());
  for (size_t i = 0; i < a.serves_since_validation.size(); ++i) {
    EXPECT_EQ(a.serves_since_validation[i], b.serves_since_validation[i]);
  }
}

// One randomized trial: the table and the reference store replay the same
// operation sequence; after every operation the stores must agree exactly.
void RunDifferentialTrial(uint64_t seed, int ops) {
  Rng rng(seed);
  EntryTable table;
  ReferenceEntryStore ref;
  std::vector<ObjectId> live;  // ids currently resident (unordered)
  ObjectId next_id = 0;

  const auto fill = [&](CacheEntry& entry, ObjectId id) {
    entry.object = id;
    entry.type = static_cast<FileType>(rng.UniformInt(0, kNumFileTypes - 1));
    entry.size_bytes = rng.UniformInt(1, 50000);
    entry.version = static_cast<uint64_t>(rng.UniformInt(0, 1000));
    entry.last_modified = SimTime::Epoch() + Seconds(rng.UniformInt(0, 100000));
    entry.fetched_at = SimTime::Epoch() + Seconds(rng.UniformInt(0, 100000));
    entry.validated_at = SimTime::Epoch() + Seconds(rng.UniformInt(0, 100000));
    entry.expires_at = SimTime::Epoch() + Seconds(rng.UniformInt(0, 200000));
    entry.valid = rng.UniformInt(0, 9) != 0;
    entry.serve_count = static_cast<uint64_t>(rng.UniformInt(0, 5));
    const int serves = static_cast<int>(rng.UniformInt(0, 12));  // spills the inline buffer
    entry.serves_since_validation.clear();
    for (int s = 0; s < serves; ++s) {
      entry.serves_since_validation.push_back(SimTime::Epoch() + Seconds(s));
    }
  };
  const auto pick_live = [&]() -> ObjectId {
    return live[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1))];
  };
  const auto remove_live = [&](ObjectId id) {
    for (size_t i = 0; i < live.size(); ++i) {
      if (live[i] == id) {
        live[i] = live.back();
        live.pop_back();
        return;
      }
    }
    FAIL() << "id not tracked as live";
  };

  for (int op = 0; op < ops; ++op) {
    const int64_t action = rng.UniformInt(0, 99);
    if (action < 35 || live.empty()) {
      // Install at the front (cold miss / preload shape). Same random fields
      // into both stores.
      const ObjectId id = next_id++;
      const SlotId slot = table.InsertFront(id);
      CacheEntry& te = table.entry(slot);
      fill(te, id);
      table.SyncHotColumns(slot);
      ref.InsertFront(id) = te;
      live.push_back(id);
    } else if (action < 55) {
      // Touch a live id to the front.
      const ObjectId id = pick_live();
      table.TouchFront(table.Find(id));
      ref.TouchFront(id);
    } else if (action < 65) {
      // Evict a live id.
      const ObjectId id = pick_live();
      table.Erase(table.Find(id));
      ref.Erase(id);
      remove_live(id);
    } else if (action < 72) {
      // Evict from the LRU tail, as EnforceCapacity does.
      const ObjectId id = ref.LruBack();
      EXPECT_EQ(table.entry(table.LruBack()).object, id);
      table.Erase(table.LruBack());
      ref.Erase(id);
      remove_live(id);
    } else if (action < 80) {
      // Out-of-band invalidation.
      const ObjectId id = pick_live();
      table.SetValid(table.Find(id), false);
      ref.Find(id)->valid = false;
    } else if (action < 88) {
      // In-place metadata update (refetch / 304 shape): new version and
      // horizon through the entry reference, then re-mirror.
      const ObjectId id = pick_live();
      const SlotId slot = table.Find(id);
      CacheEntry& te = table.entry(slot);
      te.version += 1;
      te.valid = true;
      te.expires_at = SimTime::Epoch() + Seconds(rng.UniformInt(0, 200000));
      te.validated_at = SimTime::Epoch() + Seconds(op);
      te.serves_since_validation.clear();
      table.SyncHotColumns(slot);
      *ref.Find(id) = te;
    } else if (action < 94) {
      // Batched expiry sweep at a random instant.
      const SimTime now = SimTime::Epoch() + Seconds(rng.UniformInt(0, 200000));
      EXPECT_EQ(table.SweepExpired(now), ref.SweepExpired(now));
    } else if (action < 97) {
      // Restore at the back (snapshot recovery shape).
      const ObjectId id = next_id++;
      const SlotId slot = table.InsertBack(id);
      CacheEntry& te = table.entry(slot);
      fill(te, id);
      table.SyncHotColumns(slot);
      ref.InsertBack(id) = te;
      live.push_back(id);
    } else {
      // Crash: both stores lose everything.
      table.Clear();
      ref.Clear();
      live.clear();
    }

    // Lockstep agreement after every operation.
    ASSERT_EQ(table.size(), ref.size());
    ASSERT_EQ(TableLruOrder(table), ref.LruOrder());
    for (ObjectId id : live) {
      const SlotId slot = table.Find(id);
      ASSERT_NE(slot, EntryTable::kNoSlot);
      const CacheEntry* re = ref.Find(id);
      ASSERT_NE(re, nullptr);
      ExpectEntriesEqual(table.entry(slot), *re);
      // The hot columns must mirror the entry record exactly.
      const CacheEntry& te = table.entry(slot);
      EXPECT_EQ(table.ValidBit(slot), te.valid);
      EXPECT_EQ(table.version(slot), te.version);
      const SimTime probe = SimTime::Epoch() + Seconds(rng.UniformInt(0, 200000));
      EXPECT_EQ(table.FreshTimeBased(slot, probe), te.valid && probe < te.expires_at);
    }
  }
}

TEST(ColumnarDifferentialTest, RandomizedOpSequencesAgreeWithReferenceModel) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(StrFormat("seed=%llu", static_cast<unsigned long long>(seed)));
    RunDifferentialTrial(seed, 400);
  }
}

TEST(ColumnarDifferentialTest, LongTrialRecyclesSlotsAndGrowsIndex) {
  RunDifferentialTrial(424242, 4000);
}

// --- ProxyCache-level properties riding the same storage ---

// Copies every cached entry in LRU order (most recent first).
std::vector<CacheEntry> EntriesInLruOrder(const ProxyCache& cache) {
  std::vector<CacheEntry> entries;
  cache.ForEachEntry([&entries](const CacheEntry& entry) { entries.push_back(entry); });
  return entries;
}

class ColumnarCacheTest : public ::testing::Test {
 protected:
  ColumnarCacheTest() : upstream_(&server_) {
    for (int i = 0; i < 40; ++i) {
      ids_.push_back(server_.store().Create(StrFormat("/o%d", i), FileType::kHtml, 6000,
                                            SimTime::Epoch() - Days(10)));
    }
  }

  std::unique_ptr<ProxyCache> MakeCache(int64_t capacity_bytes) {
    CacheConfig config;
    config.capacity_bytes = capacity_bytes;
    return std::make_unique<ProxyCache>("test", &upstream_, MakePolicy(PolicyConfig::Ttl(Hours(24))),
                                        config, &server_.store());
  }

  OriginServer server_;
  OriginUpstream upstream_;
  std::vector<ObjectId> ids_;
};

TEST_F(ColumnarCacheTest, SnapshotRoundTripPreservesOrderAndFields) {
  auto cache = MakeCache(/*capacity_bytes=*/0);
  // A shuffled request pattern gives a nontrivial LRU order.
  Rng rng(5);
  SimTime now = SimTime::Epoch();
  for (int i = 0; i < 200; ++i) {
    now += Minutes(10);
    cache->HandleRequest(ids_[static_cast<size_t>(rng.UniformInt(0, 39))], now);
  }
  const std::vector<CacheEntry> before = EntriesInLruOrder(*cache);

  std::stringstream snapshot;
  SaveCacheSnapshot(*cache, snapshot);
  auto restored = MakeCache(/*capacity_bytes=*/0);
  SnapshotParseError error;
  const int64_t loaded =
      LoadCacheSnapshot(*restored, snapshot, SnapshotRecovery::kTrustSnapshot, &error);
  ASSERT_EQ(loaded, static_cast<int64_t>(before.size())) << error.message;

  const std::vector<CacheEntry> after = EntriesInLruOrder(*restored);
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    // The nine persisted fields survive byte-exactly, in LRU order.
    EXPECT_EQ(after[i].object, before[i].object);
    EXPECT_EQ(after[i].type, before[i].type);
    EXPECT_EQ(after[i].size_bytes, before[i].size_bytes);
    EXPECT_EQ(after[i].version, before[i].version);
    EXPECT_EQ(after[i].last_modified, before[i].last_modified);
    EXPECT_EQ(after[i].fetched_at, before[i].fetched_at);
    EXPECT_EQ(after[i].validated_at, before[i].validated_at);
    EXPECT_EQ(after[i].expires_at, before[i].expires_at);
    EXPECT_EQ(after[i].valid, before[i].valid);
  }
  EXPECT_EQ(restored->StoredBytes(), cache->StoredBytes());
  EXPECT_EQ(restored->EntryCount(), cache->EntryCount());
}

TEST_F(ColumnarCacheTest, RestoreEntryRefusesDuplicates) {
  auto cache = MakeCache(/*capacity_bytes=*/0);
  CacheEntry entry;
  entry.object = ids_[3];
  entry.size_bytes = 6000;
  cache->RestoreEntry(entry);
  EXPECT_DEATH(cache->RestoreEntry(entry), "object already cached");
}

TEST_F(ColumnarCacheTest, RestoreEntryAtCapacityEvictsFromTheBack) {
  // Capacity for two restored entries; the third restore overflows and must
  // evict from the LRU back — which is the most recently *restored* entry,
  // since restores queue behind live ones in arrival order.
  auto cache = MakeCache(/*capacity_bytes=*/12000);
  for (ObjectId id = 0; id < 3; ++id) {
    CacheEntry entry;
    entry.object = ids_[id];
    entry.size_bytes = 6000;
    entry.valid = true;
    cache->RestoreEntry(entry);
  }
  EXPECT_EQ(cache->EntryCount(), 2u);
  EXPECT_EQ(cache->StoredBytes(), 12000);
  EXPECT_TRUE(cache->Contains(ids_[0]));
  EXPECT_TRUE(cache->Contains(ids_[1]));
  EXPECT_FALSE(cache->Contains(ids_[2]));  // the overflow evicted the tail = itself
  EXPECT_EQ(cache->stats().evictions, 1u);
}

TEST_F(ColumnarCacheTest, RestoredEntriesQueueBehindLiveOnes) {
  auto cache = MakeCache(/*capacity_bytes=*/0);
  cache->HandleRequest(ids_[0], SimTime::Epoch());
  cache->HandleRequest(ids_[1], SimTime::Epoch() + Seconds(1));  // order: 1 0
  CacheEntry entry;
  entry.object = ids_[7];
  entry.size_bytes = 100;
  cache->RestoreEntry(entry);
  std::vector<ObjectId> order;
  cache->ForEachEntry([&](const CacheEntry& e) { order.push_back(e.object); });
  EXPECT_EQ(order, (std::vector<ObjectId>{ids_[1], ids_[0], ids_[7]}));
}

TEST_F(ColumnarCacheTest, SweepExpiredMarksButKeepsBytes) {
  auto cache = MakeCache(/*capacity_bytes=*/0);
  SimTime now = SimTime::Epoch();
  cache->HandleRequest(ids_[0], now);
  cache->HandleRequest(ids_[1], now);
  // TTL is 24h; at +25h both copies' horizons have passed.
  EXPECT_EQ(cache->SweepExpired(now + Hours(25)), 2u);
  EXPECT_EQ(cache->EntryCount(), 2u);  // marked invalid, not evicted
  ASSERT_NE(cache->Find(ids_[0]), nullptr);
  EXPECT_FALSE(cache->Find(ids_[0])->valid);
  // The next request revalidates exactly as if the entry had merely expired.
  const ServeResult result = cache->HandleRequest(ids_[0], now + Hours(26));
  EXPECT_EQ(result.kind, ServeKind::kHitValidated);
  EXPECT_EQ(cache->SweepExpired(now + Hours(25)), 0u);  // fresh horizon set
}

TEST_F(ColumnarCacheTest, SweepExpiredWhileCrashedIsNoOp) {
  auto cache = MakeCache(/*capacity_bytes=*/0);
  cache->HandleRequest(ids_[0], SimTime::Epoch());
  cache->Crash(SimTime::Epoch() + Seconds(1));
  EXPECT_EQ(cache->SweepExpired(SimTime::Epoch() + Days(2)), 0u);
  cache->Restart(SimTime::Epoch() + Seconds(2));
}

}  // namespace
}  // namespace webcc

#include "src/cache/entry_table.h"

#include <vector>

#include <gtest/gtest.h>

#include "src/util/sim_time.h"

namespace webcc {
namespace {

using SlotId = EntryTable::SlotId;

// LRU order as a vector of object ids, most recently used first.
std::vector<ObjectId> LruOrder(const EntryTable& table) {
  std::vector<ObjectId> order;
  for (SlotId slot = table.MruFront(); slot != EntryTable::kNoSlot; slot = table.NextOlder(slot)) {
    order.push_back(table.entry(slot).object);
  }
  return order;
}

TEST(EntryTableTest, StartsEmpty) {
  EntryTable table;
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.Find(7), EntryTable::kNoSlot);
  EXPECT_EQ(table.MruFront(), EntryTable::kNoSlot);
  EXPECT_EQ(table.LruBack(), EntryTable::kNoSlot);
}

TEST(EntryTableTest, InsertFindRoundTrip) {
  EntryTable table;
  const SlotId slot = table.InsertFront(42);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.entry(slot).object, 42u);
  EXPECT_EQ(table.Find(42), slot);
  EXPECT_EQ(table.Find(43), EntryTable::kNoSlot);
  EXPECT_TRUE(table.Holds(slot, 42));
  EXPECT_FALSE(table.Holds(slot, 43));
}

TEST(EntryTableTest, InsertFrontIsMru) {
  EntryTable table;
  table.InsertFront(1);
  table.InsertFront(2);
  table.InsertFront(3);
  EXPECT_EQ(LruOrder(table), (std::vector<ObjectId>{3, 2, 1}));
  EXPECT_EQ(table.entry(table.MruFront()).object, 3u);
  EXPECT_EQ(table.entry(table.LruBack()).object, 1u);
}

TEST(EntryTableTest, InsertBackQueuesBehind) {
  EntryTable table;
  table.InsertFront(1);
  table.InsertBack(2);
  table.InsertBack(3);
  EXPECT_EQ(LruOrder(table), (std::vector<ObjectId>{1, 2, 3}));
}

TEST(EntryTableTest, TouchMovesToFront) {
  EntryTable table;
  table.InsertFront(1);
  table.InsertFront(2);
  table.InsertFront(3);  // order: 3 2 1
  table.TouchFront(table.Find(1));
  EXPECT_EQ(LruOrder(table), (std::vector<ObjectId>{1, 3, 2}));
  // Touching the front is a no-op.
  table.TouchFront(table.Find(1));
  EXPECT_EQ(LruOrder(table), (std::vector<ObjectId>{1, 3, 2}));
  // Touching the middle relinks.
  table.TouchFront(table.Find(3));
  EXPECT_EQ(LruOrder(table), (std::vector<ObjectId>{3, 1, 2}));
}

TEST(EntryTableTest, EraseUnlinksAndForgets) {
  EntryTable table;
  table.InsertFront(1);
  table.InsertFront(2);
  table.InsertFront(3);
  table.Erase(table.Find(2));
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.Find(2), EntryTable::kNoSlot);
  EXPECT_EQ(LruOrder(table), (std::vector<ObjectId>{3, 1}));
  // Erasing head and tail.
  table.Erase(table.Find(3));
  EXPECT_EQ(LruOrder(table), (std::vector<ObjectId>{1}));
  table.Erase(table.Find(1));
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.MruFront(), EntryTable::kNoSlot);
  EXPECT_EQ(table.LruBack(), EntryTable::kNoSlot);
}

TEST(EntryTableTest, SlotsAreRecycled) {
  EntryTable table;
  const SlotId first = table.InsertFront(1);
  table.Erase(first);
  const SlotId second = table.InsertFront(2);
  EXPECT_EQ(second, first);  // LIFO free list reuses the slot
  EXPECT_EQ(table.entry(second).object, 2u);
  EXPECT_FALSE(table.Holds(first, 1));  // the old binding is gone
}

TEST(EntryTableTest, RecycledSlotEntryIsReset) {
  EntryTable table;
  const SlotId slot = table.InsertFront(1);
  table.entry(slot).serve_count = 99;
  table.entry(slot).valid = false;
  table.SyncHotColumns(slot);
  table.Erase(slot);
  const SlotId reused = table.InsertFront(2);
  ASSERT_EQ(reused, slot);
  EXPECT_EQ(table.entry(reused).serve_count, 0u);
  EXPECT_TRUE(table.entry(reused).valid);
  EXPECT_TRUE(table.ValidBit(reused));
}

TEST(EntryTableTest, DuplicateInsertDies) {
  EntryTable table;
  table.InsertFront(5);
  EXPECT_DEATH(table.InsertFront(5), "object already cached");
  EXPECT_DEATH(table.InsertBack(5), "object already cached");
}

TEST(EntryTableTest, GrowsPastInitialIndexCapacity) {
  EntryTable table;
  constexpr ObjectId kCount = 10000;
  for (ObjectId id = 0; id < kCount; ++id) {
    table.InsertFront(id);
  }
  EXPECT_EQ(table.size(), static_cast<size_t>(kCount));
  for (ObjectId id = 0; id < kCount; ++id) {
    const SlotId slot = table.Find(id);
    ASSERT_NE(slot, EntryTable::kNoSlot);
    EXPECT_EQ(table.entry(slot).object, id);
  }
  // MRU order is reverse insertion order.
  EXPECT_EQ(table.entry(table.MruFront()).object, kCount - 1);
  EXPECT_EQ(table.entry(table.LruBack()).object, 0u);
}

TEST(EntryTableTest, EraseThenReinsertKeepsEveryIdFindable) {
  // Interleaved erases leave holes in the index and the free list; every
  // surviving id must stay findable, and every erased id reinsertable.
  EntryTable table;
  for (ObjectId id = 0; id < 512; ++id) {
    table.InsertFront(id);
  }
  for (ObjectId id = 0; id < 512; id += 3) {
    table.Erase(table.Find(id));
  }
  for (ObjectId id = 0; id < 512; ++id) {
    if (id % 3 == 0) {
      EXPECT_EQ(table.Find(id), EntryTable::kNoSlot) << id;
    } else {
      ASSERT_NE(table.Find(id), EntryTable::kNoSlot) << id;
      EXPECT_EQ(table.entry(table.Find(id)).object, id);
    }
  }
  // Reinsert the erased ids; everything must be findable again.
  for (ObjectId id = 0; id < 512; id += 3) {
    table.InsertFront(id);
  }
  for (ObjectId id = 0; id < 512; ++id) {
    ASSERT_NE(table.Find(id), EntryTable::kNoSlot) << id;
    EXPECT_EQ(table.entry(table.Find(id)).object, id);
  }
  EXPECT_EQ(table.size(), 512u);
}

TEST(EntryTableTest, FindPastEveryInsertedIdIsAbsent) {
  EntryTable table;
  table.InsertFront(3);
  table.InsertFront(9);
  EXPECT_EQ(table.Find(10), EntryTable::kNoSlot);
  EXPECT_EQ(table.Find(1'000'000), EntryTable::kNoSlot);
  EXPECT_EQ(table.Find(kInvalidObjectId - 1), EntryTable::kNoSlot);
  EXPECT_EQ(table.Find(kInvalidObjectId), EntryTable::kNoSlot);
  // Ids below the largest inserted one that were never inserted are absent
  // too, and the lookups above left the table as it was.
  EXPECT_EQ(table.Find(4), EntryTable::kNoSlot);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(LruOrder(table), (std::vector<ObjectId>{9, 3}));
  // An id past the index is an ordinary insert.
  const SlotId slot = table.InsertBack(100);
  EXPECT_EQ(table.Find(100), slot);
  EXPECT_EQ(LruOrder(table), (std::vector<ObjectId>{9, 3, 100}));
}

TEST(EntryTableTest, InvalidObjectIdInsertDies) {
  EntryTable table;
  EXPECT_DEATH(table.InsertFront(kInvalidObjectId), "kInvalidObjectId");
}

TEST(EntryTableTest, EraseOfUnindexedSlotDies) {
  EntryTable table;
  const SlotId slot = table.InsertFront(1);
  table.InsertFront(2);
  // The entry no longer names the object its slot is indexed under.
  table.entry(slot).object = 7;
  EXPECT_DEATH(table.Erase(slot), "erasing object not in index");
  // Its slot is indexed under 1, but 2's slot is not the one erased.
  table.entry(slot).object = 2;
  EXPECT_DEATH(table.Erase(slot), "erasing object not in index");
  // A freed slot is not indexed at all.
  table.entry(slot).object = 1;
  table.Erase(slot);
  EXPECT_DEATH(table.Erase(slot), "erasing object not in index");
}

TEST(EntryTableTest, HotColumnsMirrorEntry) {
  EntryTable table;
  const SlotId slot = table.InsertFront(1);
  CacheEntry& entry = table.entry(slot);
  entry.valid = true;
  entry.expires_at = SimTime::Epoch() + Hours(1);
  entry.version = 7;
  table.SyncHotColumns(slot);
  EXPECT_TRUE(table.FreshTimeBased(slot, SimTime::Epoch() + Minutes(59)));
  EXPECT_FALSE(table.FreshTimeBased(slot, SimTime::Epoch() + Hours(1)));  // strict <
  EXPECT_TRUE(table.ValidBit(slot));
  EXPECT_EQ(table.version(slot), 7u);

  table.SetValid(slot, false);
  EXPECT_FALSE(table.entry(slot).valid);
  EXPECT_FALSE(table.ValidBit(slot));
  EXPECT_FALSE(table.FreshTimeBased(slot, SimTime::Epoch()));
}

TEST(EntryTableTest, SweepExpiredMarksOnlyPassedHorizons) {
  EntryTable table;
  const SlotId live = table.InsertFront(1);
  table.entry(live).expires_at = SimTime::Epoch() + Hours(2);
  table.SyncHotColumns(live);
  const SlotId dead = table.InsertFront(2);
  table.entry(dead).expires_at = SimTime::Epoch() + Minutes(30);
  table.SyncHotColumns(dead);
  const SlotId already_invalid = table.InsertFront(3);
  table.entry(already_invalid).expires_at = SimTime::Epoch();
  table.entry(already_invalid).valid = false;
  table.SyncHotColumns(already_invalid);

  EXPECT_EQ(table.SweepExpired(SimTime::Epoch() + Hours(1)), 1u);
  EXPECT_FALSE(table.entry(dead).valid);       // marked, bytes kept
  EXPECT_TRUE(table.entry(live).valid);        // horizon not reached
  EXPECT_EQ(table.size(), 3u);                 // sweep never evicts
  // Expiry exactly at `now` counts as passed (IsValid is strict <).
  EXPECT_EQ(table.SweepExpired(SimTime::Epoch() + Hours(2)), 1u);
  EXPECT_FALSE(table.entry(live).valid);
  // Idempotent.
  EXPECT_EQ(table.SweepExpired(SimTime::Epoch() + Hours(2)), 0u);
}

TEST(EntryTableTest, SweepExpiredSkipsFreedSlots) {
  EntryTable table;
  const SlotId slot = table.InsertFront(1);
  table.entry(slot).expires_at = SimTime::Epoch() + Seconds(1);
  table.SyncHotColumns(slot);
  table.Erase(slot);
  EXPECT_EQ(table.SweepExpired(SimTime::Epoch() + Hours(1)), 0u);
}

TEST(EntryTableTest, ClearReleasesEverything) {
  EntryTable table;
  for (ObjectId id = 0; id < 100; ++id) {
    table.InsertFront(id);
  }
  table.Clear();
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.Find(50), EntryTable::kNoSlot);
  EXPECT_EQ(table.MruFront(), EntryTable::kNoSlot);
  // Usable again after a clear.
  table.InsertFront(50);
  EXPECT_NE(table.Find(50), EntryTable::kNoSlot);
  EXPECT_EQ(table.size(), 1u);
}

TEST(EntryTableTest, ClearReleasesTheIndex) {
  // After a clear no id is indexed, however large: every old id is absent
  // and can be inserted again without tripping the duplicate check, and
  // the index regrows from the first insert.
  EntryTable table;
  table.InsertFront(5);
  table.InsertFront(200'000);
  table.Clear();
  EXPECT_EQ(table.Find(5), EntryTable::kNoSlot);
  EXPECT_EQ(table.Find(200'000), EntryTable::kNoSlot);
  const SlotId small = table.InsertFront(5);
  EXPECT_EQ(small, 0u);  // the arena restarted too
  EXPECT_EQ(table.Find(5), small);
  EXPECT_EQ(table.Find(200'000), EntryTable::kNoSlot);
  const SlotId large = table.InsertFront(200'000);
  EXPECT_EQ(table.Find(200'000), large);
  EXPECT_EQ(table.size(), 2u);
}

}  // namespace
}  // namespace webcc

// Columnar entry storage for ProxyCache.
//
// The per-request hot path — index lookup, LRU touch, freshness check — runs
// entirely over flat arrays:
//
//   * a slot arena of CacheEntry records indexed by dense uint32_t slot ids
//     (freed slots are recycled through a free list);
//   * hot fields (`valid`, `expires_at`, `version`) mirrored into parallel
//     columns, so the common time-based freshness check is one byte load and
//     one int64 compare, never a CacheEntry dereference;
//   * a dense ObjectId → slot index: ObjectStore hands out ids in
//     [0, size()), so `slot_of_[id]` (kNoSlot = not cached) is the whole
//     index — a lookup is a bounds check plus one load, and never reads
//     the arena. It grows on Insert to the largest id inserted, so it
//     costs 4 B × world objects per cache;
//   * an intrusive doubly-linked LRU threaded through prev/next slot-id
//     columns (front = most recently used), so TouchFront is a handful of
//     array writes where the old std::list splice allocated a node per
//     touch.
//
// The arena entry remains the source of truth; callers that mutate
// entry(slot) fields mirrored in the columns must call SyncHotColumns (or
// SetValid for the valid bit alone) before the next probe. Iteration order
// is always the LRU chain — deterministic, and exactly the order the old
// map+list store exposed — never the index table.
//
// The table is deliberately policy-free: ProxyCache owns stats, capacity,
// subscriptions, and upstream traffic. A reference implementation with the
// old map+list layout lives in reference_store.h for differential testing
// and benchmarking.

#ifndef WEBCC_SRC_CACHE_ENTRY_TABLE_H_
#define WEBCC_SRC_CACHE_ENTRY_TABLE_H_

#include <cstdint>
#include <vector>

#include "src/cache/entry.h"
#include "src/util/sim_time.h"

namespace webcc {

class EntryTable {
 public:
  using SlotId = uint32_t;
  static constexpr SlotId kNoSlot = static_cast<SlotId>(-1);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Returns the slot holding `id`, or kNoSlot. One load, no allocation;
  // ids past every inserted id are simply absent.
  SlotId Find(ObjectId id) const;

  // Allocates a slot for `id` and links it at the front (MRU) or back (LRU)
  // of the chain. The object must not already be present (checked — callers
  // need no separate Contains()). The returned slot's entry is
  // default-initialized except for `object`; fill it and call
  // SyncHotColumns.
  SlotId InsertFront(ObjectId id);
  SlotId InsertBack(ObjectId id);

  // Unlinks and frees `slot`, which must be indexed under its entry's
  // object. The slot id may be recycled by a later insert.
  void Erase(SlotId slot);

  // Drops everything and releases the index (cache crash / DropAllEntries).
  void Clear();

  CacheEntry& entry(SlotId slot) { return arena_[slot]; }
  const CacheEntry& entry(SlotId slot) const { return arena_[slot]; }

  // Does `slot` still hold `id`? For re-validating a slot id across an
  // operation that may have evicted it (e.g. EnforceCapacity evicting the
  // entry just installed). Only sound if no insert happened in between —
  // inserts may recycle the freed slot.
  bool Holds(SlotId slot, ObjectId id) const {
    return slot < arena_.size() && arena_[slot].object == id;
  }

  // --- Hot-column probes ---

  // The default time-based freshness rule (valid && now < expires_at)
  // answered from the columns alone.
  bool FreshTimeBased(SlotId slot, SimTime now) const {
    return valid_[slot] != 0 && now.seconds() < expires_[slot];
  }
  bool ValidBit(SlotId slot) const { return valid_[slot] != 0; }
  uint64_t version(SlotId slot) const { return version_[slot]; }

  // Re-mirrors entry(slot)'s valid/expires_at/version into the columns.
  // Call after any entry mutation that may touch those fields.
  void SyncHotColumns(SlotId slot) {
    const CacheEntry& e = arena_[slot];
    valid_[slot] = e.valid ? 1 : 0;
    expires_[slot] = e.expires_at.seconds();
    version_[slot] = e.version;
  }

  // Writes the valid bit to both the entry and its column.
  void SetValid(SlotId slot, bool valid) {
    arena_[slot].valid = valid;
    valid_[slot] = valid ? 1 : 0;
  }

  // --- Intrusive LRU (front = most recently used) ---

  void TouchFront(SlotId slot);
  SlotId MruFront() const { return head_; }
  SlotId LruBack() const { return tail_; }
  // Next entry toward the LRU end, or kNoSlot.
  SlotId NextOlder(SlotId slot) const { return lru_next_[slot]; }

  // --- Batched expiry ---

  // Clears the valid bit of every live entry whose expiry horizon has
  // passed (expires_at <= now), in one scan over the expiry column. Returns
  // the number of entries marked. Freshness-neutral for time-based policies
  // (IsValid already checks expires_at), so this is an opt-in maintenance
  // sweep — it changes persisted `valid` bits, so the golden-figure paths
  // never call it.
  size_t SweepExpired(SimTime now);

 private:
  void LinkFront(SlotId slot);
  void LinkBack(SlotId slot);
  void Unlink(SlotId slot);
  SlotId AllocSlot(ObjectId id);
  SlotId Insert(ObjectId id, bool front);

  // Slot arena + parallel columns, all indexed by SlotId.
  std::vector<CacheEntry> arena_;
  std::vector<uint8_t> valid_;     // mirrored CacheEntry::valid
  std::vector<int64_t> expires_;   // mirrored CacheEntry::expires_at seconds
  std::vector<uint64_t> version_;  // mirrored CacheEntry::version
  std::vector<SlotId> lru_prev_;   // toward MRU; kNoSlot at head
  std::vector<SlotId> lru_next_;   // toward LRU; kNoSlot at tail

  std::vector<SlotId> free_;  // recycled slot ids, LIFO

  // Dense index: ObjectId → slot, kNoSlot = not cached. Sized to the
  // largest id inserted since the last Clear.
  std::vector<SlotId> slot_of_;

  size_t size_ = 0;
  SlotId head_ = kNoSlot;
  SlotId tail_ = kNoSlot;
};

}  // namespace webcc

#endif  // WEBCC_SRC_CACHE_ENTRY_TABLE_H_

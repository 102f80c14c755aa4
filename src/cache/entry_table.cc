#include "src/cache/entry_table.h"

#include "src/util/check.h"

namespace webcc {

EntryTable::SlotId EntryTable::Find(ObjectId id) const {
  return id < slot_of_.size() ? slot_of_[id] : kNoSlot;
}

EntryTable::SlotId EntryTable::AllocSlot(ObjectId id) {
  SlotId slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
    arena_[slot] = CacheEntry{};
  } else {
    slot = static_cast<SlotId>(arena_.size());
    arena_.emplace_back();
    valid_.push_back(0);
    expires_.push_back(0);
    version_.push_back(0);
    lru_prev_.push_back(kNoSlot);
    lru_next_.push_back(kNoSlot);
  }
  arena_[slot].object = id;
  SyncHotColumns(slot);
  return slot;
}

EntryTable::SlotId EntryTable::Insert(ObjectId id, bool front) {
  WEBCC_CHECK(id != kInvalidObjectId);
  if (id >= slot_of_.size()) {
    slot_of_.resize(static_cast<size_t>(id) + 1, kNoSlot);
  }
  WEBCC_CHECK(slot_of_[id] == kNoSlot) << "object already cached";
  const SlotId slot = AllocSlot(id);
  slot_of_[id] = slot;
  if (front) {
    LinkFront(slot);
  } else {
    LinkBack(slot);
  }
  ++size_;
  return slot;
}

EntryTable::SlotId EntryTable::InsertFront(ObjectId id) { return Insert(id, /*front=*/true); }

EntryTable::SlotId EntryTable::InsertBack(ObjectId id) { return Insert(id, /*front=*/false); }

void EntryTable::Erase(SlotId slot) {
  WEBCC_CHECK(slot < arena_.size());
  // A freed slot holds kInvalidObjectId, which is never below slot_of_.size().
  const ObjectId id = arena_[slot].object;
  WEBCC_CHECK(id < slot_of_.size() && slot_of_[id] == slot) << "erasing object not in index";
  slot_of_[id] = kNoSlot;
  Unlink(slot);
  arena_[slot].object = kInvalidObjectId;
  valid_[slot] = 0;  // freed slots never match the expiry sweep
  free_.push_back(slot);
  --size_;
}

void EntryTable::Clear() {
  arena_.clear();
  valid_.clear();
  expires_.clear();
  version_.clear();
  lru_prev_.clear();
  lru_next_.clear();
  free_.clear();
  std::vector<SlotId>().swap(slot_of_);  // releases the index; Insert regrows it
  size_ = 0;
  head_ = kNoSlot;
  tail_ = kNoSlot;
}

void EntryTable::LinkFront(SlotId slot) {
  lru_prev_[slot] = kNoSlot;
  lru_next_[slot] = head_;
  if (head_ != kNoSlot) {
    lru_prev_[head_] = slot;
  }
  head_ = slot;
  if (tail_ == kNoSlot) {
    tail_ = slot;
  }
}

void EntryTable::LinkBack(SlotId slot) {
  lru_next_[slot] = kNoSlot;
  lru_prev_[slot] = tail_;
  if (tail_ != kNoSlot) {
    lru_next_[tail_] = slot;
  }
  tail_ = slot;
  if (head_ == kNoSlot) {
    head_ = slot;
  }
}

void EntryTable::Unlink(SlotId slot) {
  const SlotId prev = lru_prev_[slot];
  const SlotId next = lru_next_[slot];
  if (prev != kNoSlot) {
    lru_next_[prev] = next;
  } else {
    head_ = next;
  }
  if (next != kNoSlot) {
    lru_prev_[next] = prev;
  } else {
    tail_ = prev;
  }
  lru_prev_[slot] = kNoSlot;
  lru_next_[slot] = kNoSlot;
}

void EntryTable::TouchFront(SlotId slot) {
  if (head_ == slot) {
    return;  // already MRU; the old list splice was a no-op move too
  }
  Unlink(slot);
  LinkFront(slot);
}

size_t EntryTable::SweepExpired(SimTime now) {
  const int64_t now_s = now.seconds();
  size_t swept = 0;
  // Pure column scan: freed slots keep valid_ == 0, so no liveness check is
  // needed and the arena is only touched for entries actually expiring.
  for (size_t slot = 0; slot < valid_.size(); ++slot) {
    if (valid_[slot] != 0 && expires_[slot] <= now_s) {
      valid_[slot] = 0;
      arena_[slot].valid = false;
      ++swept;
    }
  }
  return swept;
}

}  // namespace webcc

// TagCountMap: a flat open-addressing TagId -> count map for the
// per-resource tag accumulators.
//
// TagCounts::AddPost is the single hottest function of a campaign run
// (it executes once per applied post, per initial-post replay and per
// stability scan), and with std::unordered_map it spends most of its
// time in node allocation and library hashing. This map stores
// (tag, count) pairs inline in one power-of-two array with linear
// probing and Fibonacci hashing: no per-entry allocation, one cache line
// per probe, and growth by rehash-on-load-factor. Counts are always
// >= 1 once a tag is present — the accumulators only ever increment —
// so count == 0 doubles as the empty-slot marker and no sentinel tag id
// is stolen from the tag universe.
//
// Every campaign holds one map per resource, so slot width is the
// fleet's memory: a slot is 8 bytes, a uint32 tag and a uint32 count.
// 32 bits suffice because a tag's count never exceeds the number of
// posts its resource received (a Post is a tag set), and no resource
// comes near 2^32 posts. The bound is still enforced, never wrapped: a
// count that wrapped to 0 would mark its slot empty. Increment CHECKs
// before passing UINT32_MAX, and TagCounts::Restore rejects a larger
// snapshot count. Count and Increment return int64_t, so callers do
// their arithmetic in 64 bits.
//
// Iteration yields std::pair<TagId, uint32_t> in UNSPECIFIED order
// (exactly like the unordered_map it replaces); deterministic consumers
// (Serialize, Snapshot) sort, as they always have. Erase is deliberately
// unsupported.
#ifndef INCENTAG_CORE_TAG_COUNT_MAP_H_
#define INCENTAG_CORE_TAG_COUNT_MAP_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <utility>
#include <vector>

#include "src/core/types.h"
#include "src/util/logging.h"

namespace incentag {
namespace core {

// The hashing scheme shared by src/core's flat-hash structures
// (TagCountMap here, RfdVector's weight index in rfd.h): Fibonacci
// hashing over a power-of-two table sized to < 0.7 load. Kept in one
// place so the constant/probing/sizing can never drift between them.
inline size_t FlatHashBucket(TagId tag, size_t mask) {
  // Fibonacci hashing spreads consecutive tag ids (vocabularies hand
  // them out densely) across the table.
  return static_cast<size_t>(
             (static_cast<uint64_t>(tag) * 0x9E3779B97F4A7C15ull) >> 32) &
         mask;
}

// Smallest power-of-two capacity that keeps n entries under 0.7 load.
inline size_t FlatHashCapacityFor(size_t n) {
  size_t capacity = 8;
  while ((capacity * 7) / 10 < n) capacity <<= 1;
  return capacity;
}

class TagCountMap {
 public:
  using value_type = std::pair<TagId, uint32_t>;
  static constexpr uint32_t kMaxCount = std::numeric_limits<uint32_t>::max();

  TagCountMap() = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Count of `tag`; 0 when absent.
  int64_t Count(TagId tag) const {
    if (slots_.empty()) return 0;
    for (size_t i = Bucket(tag);; i = (i + 1) & mask_) {
      const value_type& slot = slots_[i];
      if (slot.second == 0) return 0;
      if (slot.first == tag) return slot.second;
    }
  }

  // Adds 1 to `tag`'s count (inserting it at 1) and returns the PREVIOUS
  // count — the value AddPost's norm/overlap recurrences need.
  int64_t Increment(TagId tag) {
    if (size_ + 1 > (slots_.size() * 7) / 10) Grow();
    for (size_t i = Bucket(tag);; i = (i + 1) & mask_) {
      value_type& slot = slots_[i];
      if (slot.second == 0) {
        slot.first = tag;
        slot.second = 1;
        ++size_;
        return 0;
      }
      if (slot.first == tag) {
        INCENTAG_CHECK(slot.second != kMaxCount);
        return slot.second++;
      }
    }
  }

  // Sets `tag` to `count` (in [1, kMaxCount]); used by snapshot Restore.
  // Overwrites an existing entry.
  void Set(TagId tag, int64_t count) {
    assert(count > 0 && count <= kMaxCount);
    if (size_ + 1 > (slots_.size() * 7) / 10) Grow();
    for (size_t i = Bucket(tag);; i = (i + 1) & mask_) {
      value_type& slot = slots_[i];
      if (slot.second == 0) {
        slot.first = tag;
        slot.second = static_cast<uint32_t>(count);
        ++size_;
        return;
      }
      if (slot.first == tag) {
        slot.second = static_cast<uint32_t>(count);
        return;
      }
    }
  }

  void clear() {
    slots_.clear();
    mask_ = 0;
    size_ = 0;
  }

  void reserve(size_t n) {
    const size_t want = FlatHashCapacityFor(n);
    if (want > slots_.size()) Rehash(want);
  }

  // Forward iteration over occupied slots, unspecified order.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = TagCountMap::value_type;
    using difference_type = std::ptrdiff_t;
    using pointer = const value_type*;
    using reference = const value_type&;

    const_iterator(const value_type* slot, const value_type* end)
        : slot_(slot), end_(end) {
      SkipEmpty();
    }
    const value_type& operator*() const { return *slot_; }
    const value_type* operator->() const { return slot_; }
    const_iterator& operator++() {
      ++slot_;
      SkipEmpty();
      return *this;
    }
    bool operator==(const const_iterator& other) const {
      return slot_ == other.slot_;
    }
    bool operator!=(const const_iterator& other) const {
      return slot_ != other.slot_;
    }

   private:
    void SkipEmpty() {
      while (slot_ != end_ && slot_->second == 0) ++slot_;
    }
    const value_type* slot_;
    const value_type* end_;
  };

  const_iterator begin() const {
    return const_iterator(slots_.data(), slots_.data() + slots_.size());
  }
  const_iterator end() const {
    return const_iterator(slots_.data() + slots_.size(),
                          slots_.data() + slots_.size());
  }

 private:
  size_t Bucket(TagId tag) const { return FlatHashBucket(tag, mask_); }

  void Grow() { Rehash(slots_.empty() ? 8 : slots_.size() * 2); }

  void Rehash(size_t new_capacity) {
    INCENTAG_CHECK(new_capacity <= std::numeric_limits<uint32_t>::max());
    std::vector<value_type> old = std::move(slots_);
    slots_.assign(new_capacity, value_type{0, 0});
    mask_ = static_cast<uint32_t>(new_capacity - 1);
    for (const value_type& slot : old) {
      if (slot.second == 0) continue;
      for (size_t i = Bucket(slot.first);; i = (i + 1) & mask_) {
        if (slots_[i].second == 0) {
          slots_[i] = slot;
          break;
        }
      }
    }
  }

  std::vector<value_type> slots_;
  uint32_t mask_ = 0;
  uint32_t size_ = 0;
};

// 8-byte slots are the point of this map (see the header comment).
static_assert(sizeof(TagCountMap::value_type) == 8);

}  // namespace core
}  // namespace incentag

#endif  // INCENTAG_CORE_TAG_COUNT_MAP_H_

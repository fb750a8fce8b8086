// IndexedHeap: a binary min-heap over a fixed id space with update-key.
//
// The FP and MU strategies (paper Algorithms 3 and 4) keep every resource in
// a priority queue and re-prioritise the chosen resource after each completed
// post task. A plain std::priority_queue would need lazy deletion (push a
// fresh entry, skip stale ones on pop), growing unboundedly under adversarial
// update patterns. IndexedHeap stores each id at most once and supports
// Update() in O(log n) via a position index, which keeps MU's memory exactly
// O(n) as Table V requires.
//
// Space: 16 bytes per id of capacity, all reserved at construction — the
// heap's priorities (8 B) and ids (4 B) in heap order, and each id's
// position (4 B). Ids and positions are 32-bit, so the capacity must be
// below UINT32_MAX (a CHECK, made before anything is allocated).
//
// Keys are ordered by (priority, id): ties break toward the smaller id so
// that strategy behaviour is deterministic and unit-testable.
#ifndef INCENTAG_UTIL_INDEXED_HEAP_H_
#define INCENTAG_UTIL_INDEXED_HEAP_H_

#include <cassert>
#include <cstdint>
#include <cstddef>
#include <vector>

#include "src/util/logging.h"

namespace incentag {
namespace util {

// Min-heap keyed by double priority over ids in [0, capacity).
class IndexedHeap {
 public:
  // Ids must be < capacity, and capacity < UINT32_MAX. The heap starts
  // empty.
  explicit IndexedHeap(size_t capacity)
      : pos_(CheckedCapacity(capacity), kAbsent) {
    priorities_.reserve(capacity);
    ids_.reserve(capacity);
  }

  size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }
  size_t capacity() const { return pos_.size(); }

  // True if `id` is currently in the heap.
  bool Contains(size_t id) const {
    assert(id < pos_.size());
    return pos_[id] != kAbsent;
  }

  // Priority of `id`; requires Contains(id).
  double PriorityOf(size_t id) const {
    assert(Contains(id));
    return priorities_[pos_[id]];
  }

  // Inserts `id` with `priority`; requires !Contains(id).
  void Push(size_t id, double priority) {
    assert(id < pos_.size());
    assert(!Contains(id));
    priorities_.push_back(priority);
    ids_.push_back(static_cast<uint32_t>(id));
    pos_[id] = static_cast<uint32_t>(ids_.size() - 1);
    SiftUp(ids_.size() - 1);
  }

  // Changes the priority of `id` (up or down); requires Contains(id).
  void Update(size_t id, double priority) {
    assert(Contains(id));
    const size_t i = pos_[id];
    const double old = priorities_[i];
    priorities_[i] = priority;
    // Same id on both sides, so the priorities alone decide.
    if (priority < old) {
      SiftUp(i);
    } else {
      SiftDown(i);
    }
  }

  // Inserts or updates.
  void PushOrUpdate(size_t id, double priority) {
    if (Contains(id)) {
      Update(id, priority);
    } else {
      Push(id, priority);
    }
  }

  // Id with the minimum (priority, id) pair; requires !empty().
  size_t Top() const {
    assert(!empty());
    return ids_[0];
  }

  double TopPriority() const {
    assert(!empty());
    return priorities_[0];
  }

  // Removes and returns the top id.
  size_t Pop() {
    assert(!empty());
    const size_t id = ids_[0];
    RemoveAt(0);
    return id;
  }

  // Removes an arbitrary id; requires Contains(id).
  void Remove(size_t id) {
    assert(Contains(id));
    RemoveAt(pos_[id]);
  }

  // Removes everything (capacity is unchanged).
  void Clear() {
    for (uint32_t id : ids_) pos_[id] = kAbsent;
    priorities_.clear();
    ids_.clear();
  }

 private:
  static constexpr uint32_t kAbsent = UINT32_MAX;

  static size_t CheckedCapacity(size_t capacity) {
    INCENTAG_CHECK(capacity < kAbsent);  // ids and positions are 32-bit
    return capacity;
  }

  static bool Less(double a_priority, uint32_t a_id, double b_priority,
                   uint32_t b_id) {
    if (a_priority != b_priority) return a_priority < b_priority;
    return a_id < b_id;
  }
  // Whether heap slot a orders before heap slot b.
  bool SlotLess(size_t a, size_t b) const {
    return Less(priorities_[a], ids_[a], priorities_[b], ids_[b]);
  }

  void Place(size_t i, double priority, uint32_t id) {
    priorities_[i] = priority;
    ids_[i] = id;
    pos_[id] = static_cast<uint32_t>(i);
  }

  void SiftUp(size_t i) {
    const double priority = priorities_[i];
    const uint32_t id = ids_[i];
    while (i > 0) {
      const size_t parent = (i - 1) / 2;
      if (!Less(priority, id, priorities_[parent], ids_[parent])) break;
      Place(i, priorities_[parent], ids_[parent]);
      i = parent;
    }
    Place(i, priority, id);
  }

  void SiftDown(size_t i) {
    const double priority = priorities_[i];
    const uint32_t id = ids_[i];
    const size_t n = ids_.size();
    for (;;) {
      size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && SlotLess(child + 1, child)) ++child;
      if (!Less(priorities_[child], ids_[child], priority, id)) break;
      Place(i, priorities_[child], ids_[child]);
      i = child;
    }
    Place(i, priority, id);
  }

  void RemoveAt(size_t i) {
    pos_[ids_[i]] = kAbsent;
    const double last_priority = priorities_.back();
    const uint32_t last_id = ids_.back();
    priorities_.pop_back();
    ids_.pop_back();
    if (i < ids_.size()) {
      Place(i, last_priority, last_id);
      // The moved entry may need to travel either direction.
      SiftUp(i);
      SiftDown(pos_[last_id]);
    }
  }

  // Heap order: slot i holds ids_[i] with priorities_[i].
  std::vector<double> priorities_;
  std::vector<uint32_t> ids_;
  std::vector<uint32_t> pos_;  // id -> slot, or kAbsent
};

}  // namespace util
}  // namespace incentag

#endif  // INCENTAG_UTIL_INDEXED_HEAP_H_

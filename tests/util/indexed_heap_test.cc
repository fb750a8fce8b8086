#include "src/util/indexed_heap.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/random.h"

namespace incentag {
namespace util {
namespace {

TEST(IndexedHeapTest, StartsEmpty) {
  IndexedHeap heap(10);
  EXPECT_TRUE(heap.empty());
  EXPECT_EQ(heap.size(), 0u);
  EXPECT_EQ(heap.capacity(), 10u);
  EXPECT_FALSE(heap.Contains(3));
}

TEST(IndexedHeapTest, PushPopOrdersByPriority) {
  IndexedHeap heap(5);
  heap.Push(0, 3.0);
  heap.Push(1, 1.0);
  heap.Push(2, 2.0);
  EXPECT_EQ(heap.Pop(), 1u);
  EXPECT_EQ(heap.Pop(), 2u);
  EXPECT_EQ(heap.Pop(), 0u);
  EXPECT_TRUE(heap.empty());
}

TEST(IndexedHeapTest, TiesBreakBySmallerId) {
  IndexedHeap heap(4);
  heap.Push(3, 1.0);
  heap.Push(1, 1.0);
  heap.Push(2, 1.0);
  EXPECT_EQ(heap.Pop(), 1u);
  EXPECT_EQ(heap.Pop(), 2u);
  EXPECT_EQ(heap.Pop(), 3u);
}

TEST(IndexedHeapTest, UpdateMovesBothDirections) {
  IndexedHeap heap(4);
  heap.Push(0, 1.0);
  heap.Push(1, 2.0);
  heap.Push(2, 3.0);
  heap.Update(2, 0.5);  // decrease-key to the top
  EXPECT_EQ(heap.Top(), 2u);
  heap.Update(2, 10.0);  // increase-key to the bottom
  EXPECT_EQ(heap.Top(), 0u);
  EXPECT_EQ(heap.PriorityOf(2), 10.0);
}

TEST(IndexedHeapTest, PushOrUpdateInsertsThenUpdates) {
  IndexedHeap heap(3);
  heap.PushOrUpdate(1, 5.0);
  EXPECT_TRUE(heap.Contains(1));
  EXPECT_EQ(heap.PriorityOf(1), 5.0);
  heap.PushOrUpdate(1, 2.0);
  EXPECT_EQ(heap.size(), 1u);
  EXPECT_EQ(heap.PriorityOf(1), 2.0);
}

TEST(IndexedHeapTest, RemoveArbitraryElement) {
  IndexedHeap heap(5);
  for (size_t i = 0; i < 5; ++i) heap.Push(i, static_cast<double>(i));
  heap.Remove(2);
  EXPECT_FALSE(heap.Contains(2));
  EXPECT_EQ(heap.size(), 4u);
  EXPECT_EQ(heap.Pop(), 0u);
  EXPECT_EQ(heap.Pop(), 1u);
  EXPECT_EQ(heap.Pop(), 3u);
  EXPECT_EQ(heap.Pop(), 4u);
}

TEST(IndexedHeapTest, ClearEmptiesAndAllowsReuse) {
  IndexedHeap heap(3);
  heap.Push(0, 1.0);
  heap.Push(1, 2.0);
  heap.Clear();
  EXPECT_TRUE(heap.empty());
  EXPECT_FALSE(heap.Contains(0));
  heap.Push(0, 9.0);
  EXPECT_EQ(heap.Top(), 0u);
}

// Property test: a long random op sequence against a reference model.
TEST(IndexedHeapTest, RandomOpsAgainstReferenceModel) {
  const size_t capacity = 64;
  IndexedHeap heap(capacity);
  std::map<size_t, double> model;
  Rng rng(1234);

  auto model_top = [&]() -> std::pair<size_t, double> {
    auto best = model.end();
    for (auto it = model.begin(); it != model.end(); ++it) {
      if (best == model.end() ||
          std::tie(it->second, it->first) <
              std::tie(best->second, best->first)) {
        best = it;
      }
    }
    return {best->first, best->second};
  };

  for (int step = 0; step < 5000; ++step) {
    const int op = static_cast<int>(rng.NextBounded(4));
    const size_t id = static_cast<size_t>(rng.NextBounded(capacity));
    const double priority =
        static_cast<double>(rng.NextBounded(50));  // collisions on purpose
    switch (op) {
      case 0:  // push or update
        heap.PushOrUpdate(id, priority);
        model[id] = priority;
        break;
      case 1:  // remove if present
        if (model.count(id) > 0) {
          heap.Remove(id);
          model.erase(id);
        }
        break;
      case 2:  // pop
        if (!model.empty()) {
          auto [want_id, want_pri] = model_top();
          ASSERT_EQ(heap.TopPriority(), want_pri);
          ASSERT_EQ(heap.Pop(), want_id);
          model.erase(want_id);
        }
        break;
      default:  // consistency probe
        ASSERT_EQ(heap.size(), model.size());
        if (model.count(id) > 0) {
          ASSERT_TRUE(heap.Contains(id));
          ASSERT_EQ(heap.PriorityOf(id), model[id]);
        } else {
          ASSERT_FALSE(heap.Contains(id));
        }
        break;
    }
  }
  // Drain and verify the full order.
  std::vector<size_t> drained;
  while (!heap.empty()) {
    auto [want_id, want_pri] = model_top();
    ASSERT_EQ(heap.Pop(), want_id);
    model.erase(want_id);
    drained.push_back(want_id);
  }
  EXPECT_TRUE(model.empty());
}

// Random Push/Update/Remove/Pop sequences against a std::set of
// (priority, id) pairs, whose begin() is the heap's top. Priorities come
// from a small range, so ties are common; ids are drawn from the top of a
// large capacity as often as from its bottom.
TEST(IndexedHeapTest, RandomOpsAgainstOrderedSetOracle) {
  for (uint64_t seed : {7u, 99u, 2026u}) {
    const size_t capacity = 1 << 16;
    IndexedHeap heap(capacity);
    std::set<std::pair<double, size_t>> oracle;
    std::map<size_t, double> priority_of;
    Rng rng(seed);
    auto draw_id = [&] {
      const size_t offset = rng.NextBounded(48);
      return rng.NextBounded(2) == 0 ? offset : capacity - 1 - offset;
    };
    for (int step = 0; step < 20000; ++step) {
      const size_t id = draw_id();
      const double priority = static_cast<double>(rng.NextBounded(8));
      switch (rng.NextBounded(4)) {
        case 0:  // push or update
          if (priority_of.count(id) > 0) {
            oracle.erase({priority_of[id], id});
            heap.Update(id, priority);
          } else {
            heap.Push(id, priority);
          }
          oracle.insert({priority, id});
          priority_of[id] = priority;
          break;
        case 1:  // remove if present
          if (priority_of.count(id) > 0) {
            heap.Remove(id);
            oracle.erase({priority_of[id], id});
            priority_of.erase(id);
          }
          break;
        case 2:  // pop
          if (!oracle.empty()) {
            const auto [want_priority, want_id] = *oracle.begin();
            ASSERT_EQ(heap.TopPriority(), want_priority) << seed;
            ASSERT_EQ(heap.Pop(), want_id) << seed;
            oracle.erase(oracle.begin());
            priority_of.erase(want_id);
          }
          break;
        default:  // consistency probe
          ASSERT_EQ(heap.size(), oracle.size()) << seed;
          ASSERT_EQ(heap.Contains(id), priority_of.count(id) > 0) << seed;
          if (heap.Contains(id)) {
            ASSERT_EQ(heap.PriorityOf(id), priority_of[id]) << seed;
          }
          if (!oracle.empty()) {
            ASSERT_EQ(heap.Top(), oracle.begin()->second) << seed;
          }
          break;
      }
    }
    while (!oracle.empty()) {
      ASSERT_EQ(heap.Pop(), oracle.begin()->second) << seed;
      oracle.erase(oracle.begin());
    }
    EXPECT_TRUE(heap.empty());
  }
}

TEST(IndexedHeapTest, LargestIdBelowCapacityWorks) {
  const size_t capacity = 1 << 20;
  IndexedHeap heap(capacity);
  heap.Push(capacity - 1, 1.0);
  heap.Push(0, 1.0);
  heap.Push(capacity - 2, 0.5);
  EXPECT_EQ(heap.Pop(), capacity - 2);
  EXPECT_EQ(heap.Pop(), 0u);  // a tie goes to the smaller id
  EXPECT_EQ(heap.Pop(), capacity - 1);
}

// Caps the address space at what the process maps now plus 1 GiB, so a
// multi-GiB allocation fails at once instead of filling memory.
void LimitAddressSpace() {
  FILE* statm = std::fopen("/proc/self/statm", "r");
  unsigned long pages = 0;
  if (statm == nullptr || std::fscanf(statm, "%lu", &pages) != 1) return;
  std::fclose(statm);
  const rlim_t limit = static_cast<rlim_t>(pages) * 4096 + (rlim_t{1} << 30);
  const struct rlimit cap = {limit, limit};
  setrlimit(RLIMIT_AS, &cap);
}

// Ids and positions are 32-bit, with UINT32_MAX marking an absent id. The
// capacity is checked before anything is allocated: with the address
// space capped, a heap that allocated first would die of bad_alloc, not
// of the CHECK.
TEST(IndexedHeapDeathTest, CapacityOfUint32MaxFailsBeforeAllocating) {
  EXPECT_DEATH(
      {
        LimitAddressSpace();
        IndexedHeap heap(UINT32_MAX);
      },
      "CHECK failed");
}

}  // namespace
}  // namespace util
}  // namespace incentag

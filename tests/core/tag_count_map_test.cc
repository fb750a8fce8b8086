// TagCountMap: the flat open-addressing accumulator behind TagCounts.
// It must agree with a reference std::unordered_map under random
// workloads (the journal's snapshot byte-identity rides on it) and
// survive growth, collisions and duplicate Sets.
#include "src/core/tag_count_map.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/random.h"

namespace incentag {
namespace core {
namespace {

TEST(TagCountMapTest, EmptyMap) {
  TagCountMap map;
  EXPECT_EQ(map.size(), 0u);
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Count(0), 0);
  EXPECT_EQ(map.Count(12345), 0);
  EXPECT_TRUE(map.begin() == map.end());
}

TEST(TagCountMapTest, IncrementReturnsPreviousCount) {
  TagCountMap map;
  EXPECT_EQ(map.Increment(7), 0);
  EXPECT_EQ(map.Increment(7), 1);
  EXPECT_EQ(map.Increment(7), 2);
  EXPECT_EQ(map.Increment(9), 0);
  EXPECT_EQ(map.Count(7), 3);
  EXPECT_EQ(map.Count(9), 1);
  EXPECT_EQ(map.size(), 2u);
}

TEST(TagCountMapTest, SetOverwritesAndInserts) {
  TagCountMap map;
  map.Set(3, 10);
  EXPECT_EQ(map.Count(3), 10);
  map.Set(3, 2);
  EXPECT_EQ(map.Count(3), 2);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.Increment(3), 2);
}

TEST(TagCountMapTest, AgreesWithUnorderedMapUnderRandomWorkload) {
  TagCountMap map;
  std::unordered_map<TagId, int64_t> reference;
  util::Rng rng(99);
  // Dense ids plus adversarial far-apart ones; enough volume to force
  // several growth rehashes.
  for (int i = 0; i < 20000; ++i) {
    const TagId tag = (i % 3 == 0)
                          ? static_cast<TagId>(rng.NextUint64() % 511)
                          : static_cast<TagId>(rng.NextUint64());
    const int64_t old_count = map.Increment(tag);
    EXPECT_EQ(old_count, reference[tag]);
    ++reference[tag];
  }
  ASSERT_EQ(map.size(), reference.size());
  for (const auto& [tag, count] : reference) {
    ASSERT_EQ(map.Count(tag), count) << "tag " << tag;
  }
  // Iteration covers exactly the inserted entries (order unspecified).
  std::vector<std::pair<TagId, int64_t>> seen(map.begin(), map.end());
  ASSERT_EQ(seen.size(), reference.size());
  for (const auto& [tag, count] : seen) {
    ASSERT_EQ(reference.at(tag), count);
  }
}

TEST(TagCountMapTest, ReserveAvoidsRehashButStaysCorrect) {
  TagCountMap map;
  map.reserve(1000);
  for (TagId tag = 0; tag < 1000; ++tag) map.Increment(tag);
  EXPECT_EQ(map.size(), 1000u);
  for (TagId tag = 0; tag < 1000; ++tag) {
    ASSERT_EQ(map.Count(tag), 1);
  }
  EXPECT_EQ(map.Count(1000), 0);
}

TEST(TagCountMapTest, ClearResets) {
  TagCountMap map;
  map.Increment(1);
  map.Increment(2);
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.Count(1), 0);
  map.Increment(5);
  EXPECT_EQ(map.Count(5), 1);
}

TEST(TagCountMapTest, CountHoldsFullUint32Range) {
  constexpr int64_t kMax = std::numeric_limits<uint32_t>::max();
  TagCountMap map;
  map.Set(4, kMax - 1);
  EXPECT_EQ(map.Increment(4), kMax - 1);
  EXPECT_EQ(map.Count(4), kMax);
}

TEST(TagCountMapDeathTest, IncrementPastUint32MaxChecks) {
  // A wrapped count of 0 would mark the slot empty; the map aborts
  // instead.
  TagCountMap map;
  map.Set(4, std::numeric_limits<uint32_t>::max());
  EXPECT_DEATH(map.Increment(4), "CHECK failed");
}

}  // namespace
}  // namespace core
}  // namespace incentag

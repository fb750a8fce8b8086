#include "src/core/ma_tracker.h"

#include <gtest/gtest.h>

#include "src/core/rfd.h"
#include "src/core/types.h"
#include "src/util/random.h"
#include "tests/testing/test_util.h"

namespace incentag {
namespace core {
namespace {

TEST(MaTrackerTest, UndefinedBeforeOmegaPosts) {
  MaTracker ma(4);
  EXPECT_FALSE(ma.HasScore());
  ma.AddAdjacentSimilarity(0.0);
  ma.AddAdjacentSimilarity(0.5);
  ma.AddAdjacentSimilarity(0.6);
  EXPECT_FALSE(ma.HasScore());  // k = 3 < omega = 4
  ma.AddAdjacentSimilarity(0.7);
  EXPECT_TRUE(ma.HasScore());  // k = 4 = omega
}

TEST(MaTrackerTest, ScoreAveragesLastOmegaMinusOne) {
  MaTracker ma(3);
  ma.AddAdjacentSimilarity(0.0);  // j=1, excluded once k >= 3
  ma.AddAdjacentSimilarity(0.4);  // j=2
  ma.AddAdjacentSimilarity(0.8);  // j=3
  ASSERT_TRUE(ma.HasScore());
  // m(3,3) = (s_2 + s_3) / 2; s_1 must be excluded.
  EXPECT_DOUBLE_EQ(ma.Score(), (0.4 + 0.8) / 2.0);
  ma.AddAdjacentSimilarity(0.6);  // j=4
  EXPECT_DOUBLE_EQ(ma.Score(), (0.8 + 0.6) / 2.0);
}

TEST(MaTrackerTest, MinimumOmegaIsTwo) {
  MaTracker ma(2);
  ma.AddAdjacentSimilarity(0.0);
  EXPECT_FALSE(ma.HasScore());
  ma.AddAdjacentSimilarity(0.9);
  ASSERT_TRUE(ma.HasScore());
  EXPECT_DOUBLE_EQ(ma.Score(), 0.9);  // window of a single similarity
}

TEST(MaTrackerTest, TracksLastSimilarityAndPostCount) {
  MaTracker ma(5);
  EXPECT_EQ(ma.posts(), 0);
  EXPECT_EQ(ma.LastAdjacentSimilarity(), 0.0);
  ma.AddAdjacentSimilarity(0.25);
  EXPECT_EQ(ma.posts(), 1);
  EXPECT_DOUBLE_EQ(ma.LastAdjacentSimilarity(), 0.25);
}

// Property: the O(1) tracker equals Definition 7 evaluated from scratch,
// across omegas and random post sequences.
class MaDefinitionTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(MaDefinitionTest, TrackerMatchesDefinition7) {
  const int omega = std::get<0>(GetParam());
  util::Rng rng(std::get<1>(GetParam()));
  std::vector<Post> posts = testing::ConvergingSequence(&rng, 80, 8);

  TagCounts counts;
  MaTracker ma(omega);
  for (int64_t k = 1; k <= static_cast<int64_t>(posts.size()); ++k) {
    double sim = counts.AddPost(posts[static_cast<size_t>(k - 1)]);
    ma.AddAdjacentSimilarity(sim);
    ASSERT_EQ(ma.HasScore(), k >= omega);
    if (ma.HasScore()) {
      double naive = testing::NaiveMaScore(posts, k, omega);
      ASSERT_NEAR(ma.Score(), naive, 1e-9)
          << "k=" << k << " omega=" << omega;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    OmegaAndSeed, MaDefinitionTest,
    ::testing::Combine(::testing::Values(2, 3, 5, 8, 20),
                       ::testing::Values(17u, 42u, 1234u)));

}  // namespace
}  // namespace core
}  // namespace incentag

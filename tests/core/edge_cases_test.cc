// Edge-case and stress tests for the core numeric paths: large counts,
// degenerate universes, extreme windows.
#include <cmath>

#include <gtest/gtest.h>

#include "src/core/ma_tracker.h"
#include "src/core/quality.h"
#include "src/core/rfd.h"
#include "src/core/stability.h"
#include "src/core/types.h"
#include "src/util/random.h"
#include "tests/testing/test_util.h"

namespace incentag {
namespace core {
namespace {

TEST(RfdEdgeTest, SingleTagUniverseAlwaysPerfectlySimilar) {
  TagCounts counts;
  counts.AddPost(Post::FromTags({7}));
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(counts.AddPost(Post::FromTags({7})), 1.0);
  }
  EXPECT_EQ(counts.distinct_tags(), 1u);
  EXPECT_EQ(counts.Count(7), 101);
}

TEST(RfdEdgeTest, LargeCountsStayExact) {
  // 200k single-tag posts: counts and the squared norm remain exact in
  // int64 (4e10 << 2^63) and the cosine stays exactly 1.
  TagCounts counts;
  counts.AddPost(Post::FromTags({1}));
  for (int i = 0; i < 200000; ++i) counts.AddPost(Post::FromTags({1}));
  EXPECT_EQ(counts.Count(1), 200001);
  EXPECT_DOUBLE_EQ(counts.norm_squared(),
                   200001.0 * 200001.0);
  RfdVector reference = RfdVector::FromWeights({{1, 1.0}});
  EXPECT_DOUBLE_EQ(Cosine(counts, reference), 1.0);
}

TEST(RfdEdgeTest, WidePostsAccumulateAllTags) {
  std::vector<TagId> tags;
  for (TagId t = 0; t < 500; ++t) tags.push_back(t);
  TagCounts counts;
  counts.AddPost(Post{tags});
  EXPECT_EQ(counts.distinct_tags(), 500u);
  EXPECT_EQ(counts.total_tags(), 500);
  for (TagId t = 0; t < 500; ++t) {
    EXPECT_DOUBLE_EQ(counts.RelativeFrequency(t), 1.0 / 500.0);
  }
}

TEST(RfdEdgeTest, RelativeFrequenciesSumToOne) {
  util::Rng rng(5);
  TagCounts counts;
  for (int i = 0; i < 200; ++i) {
    counts.AddPost(testing::RandomPost(&rng, 30));
  }
  double sum = 0.0;
  for (const auto& [tag, count] : counts.counts()) {
    sum += counts.RelativeFrequency(tag);
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(MaEdgeTest, OmegaTwoReactsInstantly) {
  // With omega = 2 the MA is the last adjacent similarity: the most
  // nervous possible detector.
  MaTracker ma(2);
  ma.AddAdjacentSimilarity(0.1);
  ma.AddAdjacentSimilarity(0.9);
  EXPECT_DOUBLE_EQ(ma.Score(), 0.9);
  ma.AddAdjacentSimilarity(0.2);
  EXPECT_DOUBLE_EQ(ma.Score(), 0.2);
}

TEST(MaEdgeTest, HugeOmegaNeverDefinesEarly) {
  MaTracker ma(1000);
  for (int i = 0; i < 999; ++i) {
    ma.AddAdjacentSimilarity(1.0);
    EXPECT_FALSE(ma.HasScore());
  }
  ma.AddAdjacentSimilarity(1.0);
  EXPECT_TRUE(ma.HasScore());
  EXPECT_DOUBLE_EQ(ma.Score(), 1.0);
}

TEST(StabilityEdgeTest, TauOneIsUnreachable) {
  // m > 1 can never hold (cosines are <= 1), so tau = 1 never stabilises.
  StabilityParams params{/*omega=*/3, /*tau=*/1.0};
  StabilityDetector detector(params);
  for (int i = 0; i < 200; ++i) {
    EXPECT_FALSE(detector.AddPost(Post::FromTags({1})));
  }
  EXPECT_FALSE(detector.IsStable());
}

TEST(StabilityEdgeTest, TauZeroStabilisesAtOmega) {
  StabilityParams params{/*omega=*/4, /*tau=*/0.0};
  StabilityDetector detector(params);
  util::Rng rng(9);
  int64_t fired_at = 0;
  for (int i = 0; i < 10 && fired_at == 0; ++i) {
    if (detector.AddPost(testing::RandomPost(&rng, 4))) {
      fired_at = detector.stable_point();
    }
  }
  // Any positive MA exceeds 0; identical-free sequences may need one
  // extra post if all window similarities are exactly 0 (disjoint posts),
  // but a 4-tag universe forces overlaps quickly.
  EXPECT_GE(fired_at, 4);
  EXPECT_LE(fired_at, 6);
}

TEST(QualityEdgeTest, QualityAgainstSelfSnapshotIsOne) {
  util::Rng rng(31);
  std::vector<Post> posts = testing::ConvergingSequence(&rng, 60, 8);
  TagCounts counts;
  for (const Post& post : posts) counts.AddPost(post);
  RfdVector self = counts.Snapshot();
  EXPECT_NEAR(Cosine(counts, self), 1.0, 1e-12);
  EXPECT_NEAR(SequenceQuality(testing::Store(posts)[0],
                              static_cast<int64_t>(posts.size()), self),
              1.0, 1e-12);
}

TEST(QualityEdgeTest, QualityIsScaleInvariantInTheReference) {
  TagCounts counts;
  counts.AddPost(Post::FromTags({1, 2}));
  RfdVector a = RfdVector::FromWeights({{1, 0.4}, {2, 0.6}});
  RfdVector b = RfdVector::FromWeights({{1, 4.0}, {2, 6.0}});
  EXPECT_NEAR(Cosine(counts, a), Cosine(counts, b), 1e-12);
}

TEST(PostEdgeTest, FromTagsHandlesAllDuplicates) {
  Post p = Post::FromTags({5, 5, 5, 5});
  EXPECT_EQ(p.size(), 1u);
  EXPECT_EQ(p.tags[0], 5u);
}

TEST(SnapshotEdgeTest, EmptyCountsSnapshotIsEmpty) {
  TagCounts counts;
  EXPECT_TRUE(counts.Snapshot().empty());
}

}  // namespace
}  // namespace core
}  // namespace incentag

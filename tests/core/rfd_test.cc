#include "src/core/rfd.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "src/core/types.h"
#include "src/util/random.h"
#include "src/util/wire.h"
#include "tests/testing/test_util.h"

namespace incentag {
namespace core {
namespace {

TEST(PostTest, FromTagsSortsAndDeduplicates) {
  Post p = Post::FromTags({3, 1, 3, 2, 1});
  EXPECT_EQ(p.tags, (std::vector<TagId>{1, 2, 3}));
  EXPECT_EQ(p.size(), 3u);
  EXPECT_FALSE(p.empty());
}

TEST(PostTest, EmptyInputYieldsEmptyPost) {
  Post p = Post::FromTags({});
  EXPECT_TRUE(p.empty());
}

TEST(TagCountsTest, StartsEmpty) {
  TagCounts counts;
  EXPECT_EQ(counts.posts(), 0);
  EXPECT_EQ(counts.total_tags(), 0);
  EXPECT_EQ(counts.distinct_tags(), 0u);
  EXPECT_EQ(counts.Count(0), 0);
  EXPECT_EQ(counts.RelativeFrequency(0), 0.0);  // Def. 4, k == 0
}

TEST(TagCountsTest, CountsMatchDefinition3) {
  // Example 1 of the paper: r1 receives {google, earth}, {google,
  // geographic}, {earth}. Encode google=0, earth=1, geographic=2.
  TagCounts counts;
  counts.AddPost(Post::FromTags({0, 1}));
  counts.AddPost(Post::FromTags({0, 2}));
  counts.AddPost(Post::FromTags({1}));
  EXPECT_EQ(counts.posts(), 3);
  EXPECT_EQ(counts.Count(0), 2);  // google in 2 posts
  EXPECT_EQ(counts.Count(1), 2);  // earth in 2 posts
  EXPECT_EQ(counts.Count(2), 1);  // geographic in 1 post
  EXPECT_EQ(counts.total_tags(), 5);
  // Table II: F1(3) = (0.4, 0.4, 0.2, 0) over (google, earth, geographic).
  EXPECT_DOUBLE_EQ(counts.RelativeFrequency(0), 0.4);
  EXPECT_DOUBLE_EQ(counts.RelativeFrequency(1), 0.4);
  EXPECT_DOUBLE_EQ(counts.RelativeFrequency(2), 0.2);
}

// A TagCounts snapshot holding one tag with `count` (the wire layout of
// TagCounts::Serialize). Restore does not cross-check the totals, so
// they are plain placeholders; count^2 would overflow int64.
std::string OneTagBlob(TagId tag, int64_t count) {
  std::string blob;
  util::wire::PutI64(&blob, count);  // posts
  util::wire::PutI64(&blob, count);  // total tags
  util::wire::PutI64(&blob, count);  // ||h||^2
  util::wire::PutU32(&blob, 1);      // distinct tags
  util::wire::PutU32(&blob, tag);
  util::wire::PutI64(&blob, count);
  return blob;
}

TEST(TagCountsTest, MaxCountRoundTrips) {
  constexpr int64_t kMax = std::numeric_limits<uint32_t>::max();
  const std::string blob = OneTagBlob(9, kMax);
  TagCounts counts;
  util::wire::Reader in(blob);
  ASSERT_TRUE(counts.Restore(&in));
  EXPECT_EQ(counts.Count(9), kMax);
  std::string again;
  counts.Serialize(&again);
  EXPECT_EQ(again, blob);
}

TEST(TagCountsTest, RestoreRejectsCountPastUint32) {
  // The map's slots hold 32-bit counts; a larger one is corruption and
  // degrades the snapshot rather than wrapping.
  const std::string blob = OneTagBlob(9, int64_t{1} << 32);
  TagCounts counts;
  util::wire::Reader in(blob);
  EXPECT_FALSE(counts.Restore(&in));
}

TEST(TagCountsTest, FirstAdjacentSimilarityIsZero) {
  // s(F(0), F(1)) = 0 by Eq. 16's k == 0 branch.
  TagCounts counts;
  EXPECT_EQ(counts.AddPost(Post::FromTags({1, 2})), 0.0);
}

TEST(TagCountsTest, IdenticalPostsGiveHighAdjacentSimilarity) {
  TagCounts counts;
  counts.AddPost(Post::FromTags({1}));
  double sim = counts.AddPost(Post::FromTags({1}));
  EXPECT_DOUBLE_EQ(sim, 1.0);  // same direction: cos = 1
}

TEST(TagCountsTest, DisjointPostReducesSimilarity) {
  TagCounts counts;
  counts.AddPost(Post::FromTags({1}));
  double sim = counts.AddPost(Post::FromTags({2}));
  // h = (1,0) -> (1,1): cos = 1/sqrt(2).
  EXPECT_NEAR(sim, 1.0 / std::sqrt(2.0), 1e-12);
}

TEST(TagCountsTest, AdjacentSimilarityInUnitRange) {
  util::Rng rng(99);
  TagCounts counts;
  for (int i = 0; i < 300; ++i) {
    double sim = counts.AddPost(testing::RandomPost(&rng, 12));
    EXPECT_GE(sim, 0.0);
    EXPECT_LE(sim, 1.0 + 1e-12);
  }
}

// Property: the incremental norm and adjacent similarity equal the naive
// recomputation, over many random sequences.
class RfdIncrementalTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RfdIncrementalTest, IncrementalMatchesNaive) {
  util::Rng rng(GetParam());
  std::vector<Post> posts = testing::RandomSequence(&rng, 120, 10);
  TagCounts counts;
  for (int64_t k = 1; k <= static_cast<int64_t>(posts.size()); ++k) {
    double incremental =
        counts.AddPost(posts[static_cast<size_t>(k - 1)]);
    double naive = testing::NaiveCosine(testing::NaiveCounts(posts, k - 1),
                                        testing::NaiveCounts(posts, k));
    ASSERT_NEAR(incremental, naive, 1e-9) << "k=" << k;
    // Norm check.
    double naive_norm = 0.0;
    for (const auto& [t, c] : testing::NaiveCounts(posts, k)) {
      naive_norm += static_cast<double>(c * c);
    }
    ASSERT_NEAR(counts.norm_squared(), naive_norm, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RfdIncrementalTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(RfdVectorTest, FromWeightsNormalises) {
  RfdVector v = RfdVector::FromWeights({{0, 3.0}, {1, 4.0}});
  EXPECT_EQ(v.size(), 2u);
  EXPECT_NEAR(v.Weight(0), 0.6, 1e-12);
  EXPECT_NEAR(v.Weight(1), 0.8, 1e-12);
  EXPECT_EQ(v.Weight(2), 0.0);
}

TEST(RfdVectorTest, MergesDuplicatesAndDropsZeros) {
  RfdVector v = RfdVector::FromWeights({{1, 1.0}, {1, 1.0}, {2, 0.0}});
  EXPECT_EQ(v.size(), 1u);
  EXPECT_NEAR(v.Weight(1), 1.0, 1e-12);
}

TEST(RfdVectorTest, EmptyAndAllZeroAreEmpty) {
  EXPECT_TRUE(RfdVector().empty());
  EXPECT_TRUE(RfdVector::FromWeights({}).empty());
  EXPECT_TRUE(RfdVector::FromWeights({{3, 0.0}}).empty());
}

TEST(RfdVectorTest, SnapshotPreservesRelativeFrequencies) {
  TagCounts counts;
  counts.AddPost(Post::FromTags({0, 1}));
  counts.AddPost(Post::FromTags({0}));
  RfdVector v = counts.Snapshot();
  // Counts are (2, 1); unit-norm weights (2, 1)/sqrt(5).
  EXPECT_NEAR(v.Weight(0), 2.0 / std::sqrt(5.0), 1e-12);
  EXPECT_NEAR(v.Weight(1), 1.0 / std::sqrt(5.0), 1e-12);
}

TEST(CosineTest, PaperExampleTableII) {
  // Example 2: q1(3) = s(F1(3), phi_hat_1) = 0.953 with
  // F1(3) = (0.4, 0.2, 0.4, 0) and phi_hat_1 = (0.25, 0.25, 0.5, 0)
  // over (google, geographic, earth, pictures).
  TagCounts f1;
  f1.AddPost(Post::FromTags({0, 2}));  // google, earth
  f1.AddPost(Post::FromTags({0, 1}));  // google, geographic
  f1.AddPost(Post::FromTags({2}));     // earth
  RfdVector phi1 =
      RfdVector::FromWeights({{0, 0.25}, {1, 0.25}, {2, 0.5}});
  EXPECT_NEAR(Cosine(f1, phi1), 0.953, 0.001);

  // q2(2) = s(F2(2), phi_hat_2) = 0.897 with F2(2) = (0,0,0,1) and
  // phi_hat_2 = (0.33, 0, 0, 0.67).
  TagCounts f2;
  f2.AddPost(Post::FromTags({3}));
  f2.AddPost(Post::FromTags({3}));
  RfdVector phi2 = RfdVector::FromWeights({{0, 0.33}, {3, 0.67}});
  EXPECT_NEAR(Cosine(f2, phi2), 0.897, 0.001);
}

TEST(CosineTest, SelfSimilarityIsOne) {
  util::Rng rng(7);
  TagCounts counts;
  for (int i = 0; i < 40; ++i) {
    counts.AddPost(testing::RandomPost(&rng, 8));
  }
  EXPECT_NEAR(Cosine(counts, counts), 1.0, 1e-12);
  RfdVector snap = counts.Snapshot();
  EXPECT_NEAR(Cosine(snap, snap), 1.0, 1e-12);
  EXPECT_NEAR(Cosine(counts, snap), 1.0, 1e-12);
}

TEST(CosineTest, EmptyOperandsYieldZero) {
  TagCounts empty;
  TagCounts filled;
  filled.AddPost(Post::FromTags({1}));
  EXPECT_EQ(Cosine(empty, filled), 0.0);
  EXPECT_EQ(Cosine(filled, empty), 0.0);
  EXPECT_EQ(Cosine(empty, empty), 0.0);
  RfdVector none;
  EXPECT_EQ(Cosine(filled, none), 0.0);
  EXPECT_EQ(Cosine(none, none), 0.0);
}

TEST(CosineTest, SymmetricAcrossRepresentations) {
  util::Rng rng(11);
  TagCounts a;
  TagCounts b;
  for (int i = 0; i < 30; ++i) {
    a.AddPost(testing::RandomPost(&rng, 9));
    b.AddPost(testing::RandomPost(&rng, 9));
  }
  const double counts_counts = Cosine(a, b);
  EXPECT_NEAR(counts_counts, Cosine(b, a), 1e-12);
  // All representation combinations agree.
  EXPECT_NEAR(counts_counts, Cosine(a.Snapshot(), b.Snapshot()), 1e-9);
  EXPECT_NEAR(counts_counts, Cosine(a, b.Snapshot()), 1e-9);
  EXPECT_NEAR(counts_counts, Cosine(b, a.Snapshot()), 1e-9);
}

TEST(CosineTest, DisjointVectorsAreOrthogonal) {
  TagCounts a;
  TagCounts b;
  a.AddPost(Post::FromTags({1, 2}));
  b.AddPost(Post::FromTags({3, 4}));
  EXPECT_EQ(Cosine(a, b), 0.0);
  EXPECT_EQ(Cosine(a.Snapshot(), b.Snapshot()), 0.0);
}

}  // namespace
}  // namespace core
}  // namespace incentag

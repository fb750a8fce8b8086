#include "src/core/quality.h"

#include <gtest/gtest.h>

#include "src/core/rfd.h"
#include "src/core/types.h"
#include "src/util/random.h"
#include "tests/testing/test_util.h"

namespace incentag {
namespace core {
namespace {

TEST(QualityTrackerTest, ZeroPostsGiveZeroQuality) {
  RfdVector reference = RfdVector::FromWeights({{1, 1.0}});
  QualityTracker tracker(&reference);
  EXPECT_EQ(tracker.Quality(), 0.0);
  EXPECT_EQ(tracker.posts(), 0);
}

TEST(QualityTrackerTest, PerfectAlignmentGivesOne) {
  RfdVector reference = RfdVector::FromWeights({{1, 1.0}});
  QualityTracker tracker(&reference);
  TagCounts counts;
  counts.AddPost(Post::FromTags({1}));
  tracker.AddPost(Post::FromTags({1}), counts.norm_squared());
  EXPECT_NEAR(tracker.Quality(), 1.0, 1e-12);
}

TEST(QualityTrackerTest, OrthogonalGivesZero) {
  RfdVector reference = RfdVector::FromWeights({{1, 1.0}});
  QualityTracker tracker(&reference);
  TagCounts counts;
  counts.AddPost(Post::FromTags({2}));
  tracker.AddPost(Post::FromTags({2}), counts.norm_squared());
  EXPECT_EQ(tracker.Quality(), 0.0);
}

TEST(QualityTrackerTest, EmptyReferenceGivesZero) {
  RfdVector reference;
  QualityTracker tracker(&reference);
  TagCounts counts;
  counts.AddPost(Post::FromTags({2}));
  tracker.AddPost(Post::FromTags({2}), counts.norm_squared());
  EXPECT_EQ(tracker.Quality(), 0.0);
}

// Property: the incremental tracker equals Cosine(counts, reference) at
// every step.
class QualityIncrementalTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QualityIncrementalTest, TrackerMatchesDirectCosine) {
  util::Rng rng(GetParam());
  std::vector<Post> posts = testing::ConvergingSequence(&rng, 150, 9);

  // Reference: the converged rfd of a longer prefix of the same process.
  TagCounts ref_counts;
  for (const Post& post : posts) ref_counts.AddPost(post);
  RfdVector reference = ref_counts.Snapshot();

  TagCounts counts;
  QualityTracker tracker(&reference);
  for (size_t k = 0; k < posts.size(); ++k) {
    counts.AddPost(posts[k]);
    tracker.AddPost(posts[k], counts.norm_squared());
    ASSERT_NEAR(tracker.Quality(), Cosine(counts, reference), 1e-9)
        << "k=" << k;
  }
  // By construction the final prefix is the reference itself.
  EXPECT_NEAR(tracker.Quality(), 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QualityIncrementalTest,
                         ::testing::Values(3u, 14u, 159u, 2653u));

TEST(SequenceQualityTest, MatchesManualPrefixReplay) {
  util::Rng rng(8);
  std::vector<Post> posts = testing::RandomSequence(&rng, 40, 6);
  RfdVector reference =
      RfdVector::FromWeights({{0, 0.5}, {1, 0.3}, {2, 0.2}});
  for (int64_t k : {0, 1, 5, 20, 40}) {
    TagCounts counts;
    for (int64_t i = 0; i < k; ++i) {
      counts.AddPost(posts[static_cast<size_t>(i)]);
    }
    EXPECT_NEAR(SequenceQuality(testing::Store(posts)[0], k, reference),
                Cosine(counts, reference), 1e-12)
        << "k=" << k;
  }
}

TEST(SequenceQualityTest, MoreAlignedPostsImproveQuality) {
  // Quality against a reference dominated by tag 1 grows as posts with tag
  // 1 accumulate after an off-topic start.
  RfdVector reference = RfdVector::FromWeights({{1, 0.9}, {2, 0.1}});
  std::vector<Post> off_topic_first;
  off_topic_first.push_back(Post::FromTags({3}));
  for (int i = 0; i < 20; ++i) off_topic_first.push_back(Post::FromTags({1}));
  const PostStore posts = PostStore::FromPosts({off_topic_first});
  double prev = SequenceQuality(posts[0], 1, reference);
  for (int64_t k = 2; k <= 21; ++k) {
    double q = SequenceQuality(posts[0], k, reference);
    EXPECT_GT(q, prev);
    prev = q;
  }
}

}  // namespace
}  // namespace core
}  // namespace incentag

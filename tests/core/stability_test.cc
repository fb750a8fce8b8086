#include "src/core/stability.h"

#include <gtest/gtest.h>

#include "src/core/types.h"
#include "src/util/random.h"
#include "tests/testing/test_util.h"

namespace incentag {
namespace core {
namespace {

// A perfectly repetitive sequence stabilises as soon as the MA window
// fills: every adjacent similarity from post 2 onward is 1.
TEST(StabilityDetectorTest, ConstantSequenceStabilisesAtOmega) {
  StabilityParams params{/*omega=*/5, /*tau=*/0.99};
  StabilityDetector detector(params);
  bool became_stable = false;
  for (int i = 0; i < 10; ++i) {
    bool now = detector.AddPost(Post::FromTags({1, 2}));
    if (now) {
      EXPECT_FALSE(became_stable) << "must fire exactly once";
      became_stable = true;
    }
  }
  ASSERT_TRUE(detector.IsStable());
  EXPECT_TRUE(became_stable);
  EXPECT_EQ(detector.stable_point(), 5);  // smallest k >= omega
  // Stable rfd is the direction of (1,1).
  EXPECT_NEAR(detector.stable_rfd().Weight(1), detector.stable_rfd().Weight(2),
              1e-12);
}

TEST(StabilityDetectorTest, AlternatingDisjointPostsDoNotStabilise) {
  StabilityParams params{/*omega=*/4, /*tau=*/0.999};
  StabilityDetector detector(params);
  // Rotate over many disjoint singleton tags: each new post adds a fresh
  // orthogonal direction, keeping adjacent similarities well below tau.
  for (int i = 0; i < 40; ++i) {
    detector.AddPost(Post::FromTags({static_cast<TagId>(i % 20)}));
  }
  // Similarities hover near 1 eventually but never exceed 0.999 this early.
  EXPECT_FALSE(detector.IsStable());
}

TEST(StabilityDetectorTest, StablePointIsFirstCrossing) {
  // Definition 8: k* is the *smallest* k with m(k, omega) > tau. Verify
  // against a trace computed independently.
  util::Rng rng(77);
  std::vector<Post> posts = testing::ConvergingSequence(&rng, 400, 10);
  StabilityParams params{/*omega=*/10, /*tau=*/0.995};

  StabilityDetector detector(params);
  for (const Post& post : posts) {
    if (detector.AddPost(post)) break;
  }
  ASSERT_TRUE(detector.IsStable());
  const int64_t k_star = detector.stable_point();

  std::vector<StabilityTracePoint> trace =
      StabilityTrace(testing::Store(posts)[0], params);
  for (const StabilityTracePoint& point : trace) {
    if (point.k < k_star) {
      EXPECT_FALSE(point.ma_defined && point.ma_score > params.tau)
          << "earlier crossing at k=" << point.k;
    } else if (point.k == k_star) {
      EXPECT_TRUE(point.ma_defined);
      EXPECT_GT(point.ma_score, params.tau);
    }
  }
}

TEST(StabilityDetectorTest, StableRfdIsSnapshotAtStablePoint) {
  util::Rng rng(31);
  std::vector<Post> posts = testing::ConvergingSequence(&rng, 400, 6);
  StabilityParams params{/*omega=*/8, /*tau=*/0.99};
  StabilityDetector detector(params);
  for (const Post& post : posts) {
    if (detector.AddPost(post)) break;
  }
  ASSERT_TRUE(detector.IsStable());
  // Rebuild F(k*) naively and compare weights.
  TagCounts counts;
  for (int64_t k = 0; k < detector.stable_point(); ++k) {
    counts.AddPost(posts[static_cast<size_t>(k)]);
  }
  RfdVector expected = counts.Snapshot();
  const RfdVector& actual = detector.stable_rfd();
  ASSERT_EQ(actual.size(), expected.size());
  for (const auto& [tag, w] : expected.entries()) {
    EXPECT_NEAR(actual.Weight(tag), w, 1e-12);
  }
}

TEST(StabilityDetectorTest, PostsAfterStabilityDoNotMoveTheStablePoint) {
  StabilityParams params{/*omega=*/4, /*tau=*/0.9};
  StabilityDetector detector(params);
  for (int i = 0; i < 4; ++i) detector.AddPost(Post::FromTags({7}));
  ASSERT_TRUE(detector.IsStable());
  const int64_t k_star = detector.stable_point();
  RfdVector phi = detector.stable_rfd();
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(detector.AddPost(Post::FromTags({8, 9})));
  }
  EXPECT_EQ(detector.stable_point(), k_star);
  EXPECT_EQ(detector.stable_rfd().entries(), phi.entries());
  EXPECT_EQ(detector.posts(), 24);
}

TEST(StabilityDetectorTest, MaScoreOptionalUntilDefined) {
  StabilityParams params{/*omega=*/3, /*tau=*/0.999};
  StabilityDetector detector(params);
  EXPECT_FALSE(detector.ma_score().has_value());
  detector.AddPost(Post::FromTags({1}));
  detector.AddPost(Post::FromTags({1}));
  EXPECT_FALSE(detector.ma_score().has_value());
  detector.AddPost(Post::FromTags({1}));
  ASSERT_TRUE(detector.ma_score().has_value());
  EXPECT_GT(*detector.ma_score(), 0.9);
}

TEST(ScanSequenceTest, MatchesIncrementalDetector) {
  util::Rng rng(5);
  std::vector<Post> posts = testing::ConvergingSequence(&rng, 300, 8);
  StabilityParams params{/*omega=*/10, /*tau=*/0.99};
  StabilityDetector scanned =
      ScanSequence(testing::Store(posts)[0], params);
  StabilityDetector manual(params);
  for (const Post& post : posts) manual.AddPost(post);
  EXPECT_EQ(scanned.IsStable(), manual.IsStable());
  if (scanned.IsStable()) {
    EXPECT_EQ(scanned.stable_point(), manual.stable_point());
  }
}

TEST(StabilityTraceTest, TraceHasOneRowPerPost) {
  util::Rng rng(6);
  std::vector<Post> posts = testing::ConvergingSequence(&rng, 50, 5);
  StabilityParams params{/*omega=*/5, /*tau=*/0.99};
  std::vector<StabilityTracePoint> trace =
      StabilityTrace(testing::Store(posts)[0], params);
  ASSERT_EQ(trace.size(), posts.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].k, static_cast<int64_t>(i + 1));
    EXPECT_EQ(trace[i].ma_defined,
              trace[i].k >= static_cast<int64_t>(params.omega));
    EXPECT_GE(trace[i].adjacent_similarity, 0.0);
    EXPECT_LE(trace[i].adjacent_similarity, 1.0 + 1e-12);
  }
}

// Both entry points require a window ValidateOmega accepts; a window of 1
// would divide by zero and 0 would size a ring of -1 entries.
TEST(StabilityDeathTest, BadOmegaIsAPreconditionFailure) {
  const PostStore posts =
      PostStore::FromPosts({std::vector<Post>(3, Post::FromTags({1}))});
  for (int omega : {0, 1}) {
    EXPECT_DEATH(StabilityDetector(StabilityParams{omega, 0.9}),
                 "ValidateOmega")
        << omega;
    EXPECT_DEATH(StabilityTrace(posts[0], StabilityParams{omega, 0.9}),
                 "ValidateOmega")
        << omega;
  }
}

// Property sweep: the MA score is monotonically affected by tau — with a
// lower tau the stable point can only be earlier or equal.
class StabilityTauTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StabilityTauTest, LooserTauStabilisesNoLater) {
  util::Rng rng(GetParam());
  std::vector<Post> posts = testing::ConvergingSequence(&rng, 500, 10);
  StabilityDetector strict(StabilityParams{10, 0.999});
  StabilityDetector loose(StabilityParams{10, 0.99});
  for (const Post& post : posts) {
    strict.AddPost(post);
    loose.AddPost(post);
  }
  if (strict.IsStable()) {
    ASSERT_TRUE(loose.IsStable());
    EXPECT_LE(loose.stable_point(), strict.stable_point());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StabilityTauTest,
                         ::testing::Values(1u, 9u, 100u, 777u));

}  // namespace
}  // namespace core
}  // namespace incentag

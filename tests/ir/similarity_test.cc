#include "src/ir/similarity.h"

#include <gtest/gtest.h>

#include "src/core/post_store.h"
#include "src/core/types.h"

namespace incentag {
namespace ir {
namespace {

core::PostStore MakeSequences() {
  // Resource 0 and 1 share tag 1; resource 2 is disjoint.
  return core::PostStore::FromPosts(
      {std::vector<core::Post>(4, core::Post::FromTags({1})),
       std::vector<core::Post>(4, core::Post::FromTags({1, 2})),
       std::vector<core::Post>(4, core::Post::FromTags({9}))});
}

TEST(BuildRfdsTest, UsesWholeSequenceByDefault) {
  std::vector<core::RfdVector> rfds = BuildRfds(MakeSequences());
  ASSERT_EQ(rfds.size(), 3u);
  EXPECT_NEAR(rfds[0].Weight(1), 1.0, 1e-12);
  EXPECT_GT(rfds[1].Weight(1), 0.0);
  EXPECT_GT(rfds[1].Weight(2), 0.0);
}

TEST(BuildRfdsTest, RespectsPrefixCounts) {
  const core::PostStore seqs = core::PostStore::FromPosts(
      {{core::Post::FromTags({1}), core::Post::FromTags({2})}});
  std::vector<core::RfdVector> rfds = BuildRfds(seqs, {1});
  EXPECT_NEAR(rfds[0].Weight(1), 1.0, 1e-12);
  EXPECT_EQ(rfds[0].Weight(2), 0.0);
}

TEST(BuildRfdsTest, CountBeyondSequenceIsClamped) {
  const core::PostStore seqs =
      core::PostStore::FromPosts({{core::Post::FromTags({1})}});
  std::vector<core::RfdVector> rfds = BuildRfds(seqs, {100});
  EXPECT_NEAR(rfds[0].Weight(1), 1.0, 1e-12);
}

TEST(BuildRfdsTest, ZeroCountGivesEmptyRfd) {
  const core::PostStore seqs =
      core::PostStore::FromPosts({{core::Post::FromTags({1})}});
  std::vector<core::RfdVector> rfds = BuildRfds(seqs, {0});
  EXPECT_TRUE(rfds[0].empty());
}

TEST(SimilaritiesToTest, SubjectIsOneOthersInRange) {
  std::vector<core::RfdVector> rfds = BuildRfds(MakeSequences());
  std::vector<double> sims = SimilaritiesTo(rfds, 0);
  ASSERT_EQ(sims.size(), 3u);
  EXPECT_EQ(sims[0], 1.0);
  EXPECT_GT(sims[1], 0.5);  // shares tag 1
  EXPECT_EQ(sims[2], 0.0);  // disjoint
}

TEST(AllPairSimilaritiesTest, CountAndOrder) {
  std::vector<core::RfdVector> rfds = BuildRfds(MakeSequences());
  std::vector<double> sims = AllPairSimilarities(rfds);
  ASSERT_EQ(sims.size(), 3u);  // C(3,2)
  // Order: (0,1), (0,2), (1,2).
  EXPECT_GT(sims[0], 0.5);
  EXPECT_EQ(sims[1], 0.0);
  EXPECT_EQ(sims[2], 0.0);
}

TEST(AllPairSimilaritiesTest, MatchesDirectCosine) {
  std::vector<core::RfdVector> rfds = BuildRfds(MakeSequences());
  std::vector<double> sims = AllPairSimilarities(rfds);
  EXPECT_NEAR(sims[0], core::Cosine(rfds[0], rfds[1]), 1e-12);
  EXPECT_NEAR(sims[2], core::Cosine(rfds[1], rfds[2]), 1e-12);
}

}  // namespace
}  // namespace ir
}  // namespace incentag

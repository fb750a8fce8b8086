#include "src/core/allocation.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/post_store.h"
#include "src/core/post_stream.h"
#include "src/core/quality.h"
#include "src/core/strategy_fp.h"
#include "src/core/strategy_rr.h"
#include "src/core/types.h"

namespace incentag {
namespace core {
namespace {

// A 2-resource problem with hand-computable metrics. Both references point
// at tag 1; resource 0 starts aligned, resource 1 starts off-reference.
// Resource i can take future_length[i] tasks, each a post of tag 1.
struct Fixture {
  PostStore initial;
  std::vector<ResourceReference> references;
  PostStore future;

  explicit Fixture(std::vector<size_t> future_length = {6, 6}) {
    initial = PostStore::FromPosts({{Post::FromTags({1})},
                                    {Post::FromTags({2})}});
    references.push_back(
        ResourceReference{RfdVector::FromWeights({{1, 1.0}}),
                          /*stable_point=*/3});
    references.push_back(
        ResourceReference{RfdVector::FromWeights({{1, 1.0}}),
                          /*stable_point=*/3});
    std::vector<std::vector<Post>> posts;
    for (size_t length : future_length) {
      posts.emplace_back(length, Post::FromTags({1}));
    }
    future = PostStore::FromPosts(posts);
  }
};

TEST(AllocationEngineTest, SpendsExactBudgetAndSumsAllocation) {
  Fixture f;
  EngineOptions options;
  options.budget = 5;
  options.omega = 2;
  AllocationEngine engine(options, &f.initial, &f.references);
  RoundRobinStrategy rr;
  VectorPostStream stream(&f.future);
  auto report = engine.Run(&rr, &stream);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().budget_spent, 5);
  EXPECT_FALSE(report.value().stopped_early);
  int64_t total = 0;
  for (int64_t x : report.value().allocation) total += x;
  EXPECT_EQ(total, 5);
  // RR alternates 0,1,0,1,0.
  EXPECT_EQ(report.value().allocation[0], 3);
  EXPECT_EQ(report.value().allocation[1], 2);
}

TEST(AllocationEngineTest, QualityMatchesManualComputation) {
  Fixture f;
  EngineOptions options;
  options.budget = 2;
  options.omega = 2;
  AllocationEngine engine(options, &f.initial, &f.references);
  RoundRobinStrategy rr;  // gives one post to each resource
  VectorPostStream stream(&f.future);
  auto report = engine.Run(&rr, &stream);
  ASSERT_TRUE(report.ok());
  // Resource 0: posts {1},{1} -> cos with e_1 = 1.
  // Resource 1: posts {2},{1} -> counts (1,1), cos = 1/sqrt(2).
  const double expected = (1.0 + 1.0 / std::sqrt(2.0)) / 2.0;
  EXPECT_NEAR(report.value().final_metrics.avg_quality, expected, 1e-9);
}

TEST(AllocationEngineTest, InitialMetricsAtZeroCheckpoint) {
  Fixture f;
  EngineOptions options;
  options.budget = 4;
  options.omega = 2;
  options.checkpoints = {0, 2, 4};
  AllocationEngine engine(options, &f.initial, &f.references);
  RoundRobinStrategy rr;
  VectorPostStream stream(&f.future);
  auto report = engine.Run(&rr, &stream);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report.value().checkpoints.size(), 3u);
  const AllocationMetrics& at0 = report.value().checkpoints[0];
  EXPECT_EQ(at0.budget_used, 0);
  // Initial quality: resource 0 aligned (1.0), resource 1 orthogonal (0).
  EXPECT_NEAR(at0.avg_quality, 0.5, 1e-9);
  EXPECT_EQ(at0.over_tagged, 0);
  EXPECT_EQ(at0.wasted_posts, 0);
  // Both resources have 1 post <= threshold 10.
  EXPECT_EQ(at0.under_tagged, 2);
  EXPECT_EQ(report.value().checkpoints[1].budget_used, 2);
  EXPECT_EQ(report.value().checkpoints[2].budget_used, 4);
  // Quality is monotone here (all future posts match the references).
  EXPECT_GE(report.value().checkpoints[1].avg_quality,
            at0.avg_quality - 1e-12);
}

TEST(AllocationEngineTest, OverTaggedAndWastedAccounting) {
  Fixture f;  // stable points are 3 for both resources
  EngineOptions options;
  options.budget = 6;
  options.omega = 2;
  AllocationEngine engine(options, &f.initial, &f.references);
  RoundRobinStrategy rr;
  VectorPostStream stream(&f.future);
  auto report = engine.Run(&rr, &stream);
  ASSERT_TRUE(report.ok());
  // Each resource: 1 initial + 3 tasks = 4 posts >= stable point 3.
  EXPECT_EQ(report.value().final_metrics.over_tagged, 2);
  // Timeline per resource: posts 1->2 (fine), 2->3 (crosses), 3->4 (the
  // task lands on an already-over-tagged resource: wasted). 2 resources.
  EXPECT_EQ(report.value().final_metrics.wasted_posts, 2);
}

TEST(AllocationEngineTest, UnderTaggedThresholdRespected) {
  Fixture f;
  EngineOptions options;
  options.budget = 4;
  options.omega = 2;
  options.under_tagged_threshold = 2;
  AllocationEngine engine(options, &f.initial, &f.references);
  RoundRobinStrategy rr;
  VectorPostStream stream(&f.future);
  auto report = engine.Run(&rr, &stream);
  ASSERT_TRUE(report.ok());
  // Final posts: 3 per resource > threshold 2: nothing under-tagged.
  EXPECT_EQ(report.value().final_metrics.under_tagged, 0);
}

TEST(AllocationEngineTest, StopsEarlyWhenAllStreamsExhausted) {
  Fixture f({1, 1});
  EngineOptions options;
  options.budget = 10;
  options.omega = 2;
  AllocationEngine engine(options, &f.initial, &f.references);
  RoundRobinStrategy rr;
  VectorPostStream stream(&f.future);
  auto report = engine.Run(&rr, &stream);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().stopped_early);
  EXPECT_EQ(report.value().budget_spent, 2);
}

TEST(AllocationEngineTest, ExhaustionConsumesNoBudget) {
  Fixture f({0, 6});  // resource 0 can never take a task
  EngineOptions options;
  options.budget = 3;
  options.omega = 2;
  AllocationEngine engine(options, &f.initial, &f.references);
  FewestPostsStrategy fp;  // would pick 0 first (fewest posts, tie by id)
  VectorPostStream stream(&f.future);
  auto report = engine.Run(&fp, &stream);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().budget_spent, 3);
  EXPECT_EQ(report.value().allocation[0], 0);
  EXPECT_EQ(report.value().allocation[1], 3);
}

TEST(AllocationEngineTest, MisbehavedStrategyIsCaught) {
  // A strategy that keeps proposing an exhausted resource is a bug; the
  // engine reports Internal instead of spinning.
  class StubbornStrategy : public Strategy {
   public:
    std::string_view name() const override { return "stubborn"; }
    void Init(const StrategyContext&) override {}
    ResourceId Choose() override { return 0; }
    void Update(ResourceId) override {}
    void OnExhausted(ResourceId) override {}  // ignores the signal
  };
  Fixture f({0, 6});
  EngineOptions options;
  options.budget = 2;
  AllocationEngine engine(options, &f.initial, &f.references);
  StubbornStrategy stubborn;
  VectorPostStream stream(&f.future);
  auto report = engine.Run(&stubborn, &stream);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), util::StatusCode::kInternal);
}

TEST(AllocationEngineTest, InvalidResourceIdIsCaught) {
  class RogueStrategy : public Strategy {
   public:
    std::string_view name() const override { return "rogue"; }
    void Init(const StrategyContext&) override {}
    ResourceId Choose() override { return 99; }
    void Update(ResourceId) override {}
    void OnExhausted(ResourceId) override {}
  };
  Fixture f;
  EngineOptions options;
  options.budget = 1;
  AllocationEngine engine(options, &f.initial, &f.references);
  RogueStrategy rogue;
  VectorPostStream stream(&f.future);
  auto report = engine.Run(&rogue, &stream);
  EXPECT_FALSE(report.ok());
}

TEST(AllocationEngineTest, MismatchedStreamIsRejected) {
  Fixture f;
  EngineOptions options;
  options.budget = 1;
  AllocationEngine engine(options, &f.initial, &f.references);
  RoundRobinStrategy rr;
  const PostStore wrong_size = PostStore::FromPosts({{}, {}, {}});
  VectorPostStream stream(&wrong_size);
  auto report = engine.Run(&rr, &stream);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(AllocationEngineTest, ZeroBudgetReportsInitialState) {
  Fixture f;
  EngineOptions options;
  options.budget = 0;
  AllocationEngine engine(options, &f.initial, &f.references);
  RoundRobinStrategy rr;
  VectorPostStream stream(&f.future);
  auto report = engine.Run(&rr, &stream);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().budget_spent, 0);
  EXPECT_NEAR(report.value().final_metrics.avg_quality, 0.5, 1e-9);
}

TEST(AllocationEngineTest, NegativeBudgetIsRejected) {
  Fixture f;
  EngineOptions options;
  options.budget = -1;
  AllocationEngine engine(options, &f.initial, &f.references);
  RoundRobinStrategy rr;
  VectorPostStream stream(&f.future);
  EXPECT_FALSE(engine.Run(&rr, &stream).ok());
}

}  // namespace
}  // namespace core
}  // namespace incentag

#include "src/core/cost_model.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/allocation.h"
#include "src/core/dp_planner.h"
#include "src/core/post_stream.h"
#include "src/core/strategy_fp.h"
#include "src/core/strategy_rr.h"
#include "src/core/types.h"
#include "src/sim/dataset_prep.h"
#include "src/sim/generator.h"
#include "src/util/wire.h"

namespace incentag {
namespace core {
namespace {

TEST(CostModelTest, UniformAndAccessors) {
  CostModel costs = CostModel::Uniform(3, 2);
  EXPECT_EQ(costs.num_resources(), 3u);
  EXPECT_EQ(costs.cost(0), 2);
  EXPECT_EQ(costs.cost(2), 2);
  EXPECT_EQ(costs.max_cost(), 2);
  EXPECT_EQ(costs.min_cost(), 2);
}

TEST(CostModelTest, Heterogeneous) {
  CostModel costs({1, 5, 3});
  EXPECT_EQ(costs.max_cost(), 5);
  EXPECT_EQ(costs.min_cost(), 1);
  EXPECT_EQ(costs.cost(1), 5);
}

// Engine integration -----------------------------------------------------

// Both resources start with one post of `initial_tag`. Resource 0's ten
// future posts are tag 1; resource 1's are `future1`, or ten tag-1 posts
// when it is empty.
struct CostFixture {
  PostStore initial;
  std::vector<ResourceReference> references;
  PostStore future;

  explicit CostFixture(TagId initial_tag = 1, std::vector<Post> future1 = {}) {
    initial = PostStore::FromPosts({{Post::FromTags({initial_tag})},
                                    {Post::FromTags({initial_tag})}});
    for (int i = 0; i < 2; ++i) {
      references.push_back(ResourceReference{
          RfdVector::FromWeights({{1, 1.0}}), /*stable_point=*/100});
    }
    const std::vector<Post> ones(10, Post::FromTags({1}));
    future = PostStore::FromPosts(
        {ones, future1.empty() ? ones : std::move(future1)});
  }
};

TEST(CostModelEngineTest, BudgetChargedPerResourceCost) {
  CostFixture f;
  CostModel costs({2, 3});
  EngineOptions options;
  options.budget = 10;
  options.omega = 2;
  options.costs = &costs;
  AllocationEngine engine(options, &f.initial, &f.references);
  RoundRobinStrategy rr;
  VectorPostStream stream(&f.future);
  auto report = engine.Run(&rr, &stream);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // RR alternates: tasks cost 2,3,2,3 = 10 exactly -> 2 tasks each.
  EXPECT_EQ(report.value().budget_spent, 10);
  EXPECT_EQ(report.value().allocation[0], 2);
  EXPECT_EQ(report.value().allocation[1], 2);
}

TEST(CostModelEngineTest, UnaffordableResourceTreatedAsExhausted) {
  CostFixture f;
  CostModel costs({1, 100});
  EngineOptions options;
  options.budget = 5;
  options.omega = 2;
  options.costs = &costs;
  AllocationEngine engine(options, &f.initial, &f.references);
  RoundRobinStrategy rr;
  VectorPostStream stream(&f.future);
  auto report = engine.Run(&rr, &stream);
  ASSERT_TRUE(report.ok());
  // Resource 1 never fits; the whole budget goes to resource 0.
  EXPECT_EQ(report.value().allocation[1], 0);
  EXPECT_EQ(report.value().allocation[0], 5);
  EXPECT_EQ(report.value().budget_spent, 5);
}

TEST(CostModelEngineTest, LeftoverBudgetWhenNothingAffordable) {
  CostFixture f;
  CostModel costs({4, 4});
  EngineOptions options;
  options.budget = 7;  // one task fits, the second does not (3 < 4 left)
  options.omega = 2;
  options.costs = &costs;
  AllocationEngine engine(options, &f.initial, &f.references);
  RoundRobinStrategy rr;
  VectorPostStream stream(&f.future);
  auto report = engine.Run(&rr, &stream);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().budget_spent, 4);
  EXPECT_TRUE(report.value().stopped_early);
}

TEST(CostModelEngineTest, MismatchedCostModelRejected) {
  CostFixture f;
  CostModel costs = CostModel::Uniform(5);
  EngineOptions options;
  options.budget = 1;
  options.costs = &costs;
  AllocationEngine engine(options, &f.initial, &f.references);
  RoundRobinStrategy rr;
  VectorPostStream stream(&f.future);
  EXPECT_FALSE(engine.Run(&rr, &stream).ok());
}

TEST(CostModelEngineTest, UnitCostsMatchDefaultEngine) {
  CostFixture f;
  CostModel costs = CostModel::Uniform(2, 1);
  EngineOptions with_costs;
  with_costs.budget = 6;
  with_costs.omega = 2;
  with_costs.costs = &costs;
  EngineOptions without_costs = with_costs;
  without_costs.costs = nullptr;

  AllocationEngine engine_a(with_costs, &f.initial, &f.references);
  AllocationEngine engine_b(without_costs, &f.initial, &f.references);
  RoundRobinStrategy rr_a;
  RoundRobinStrategy rr_b;
  VectorPostStream stream_a(&f.future);
  VectorPostStream stream_b(&f.future);
  auto a = engine_a.Run(&rr_a, &stream_a);
  auto b = engine_b.Run(&rr_b, &stream_b);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().allocation, b.value().allocation);
  EXPECT_DOUBLE_EQ(a.value().final_metrics.avg_quality,
                   b.value().final_metrics.avg_quality);
}

// Cost-aware FP ----------------------------------------------------------

TEST(CostAwareFpTest, TieBreaksTowardCheaperResource) {
  CostModel costs({5, 2, 3});
  FewestPostsStrategy strategy(&costs);
  std::vector<ResourceState> states;
  for (int i = 0; i < 3; ++i) states.emplace_back(2);  // all at 0 posts
  ResourceStateViews views(&states);
  StrategyContext ctx;
  ctx.views = &views;
  strategy.Init(ctx);
  EXPECT_EQ(strategy.Choose(), 1u);  // cheapest among the tied level
  states[1].AddPost(Post::FromTags({1}));
  strategy.Update(1);
  EXPECT_EQ(strategy.Choose(), 2u);  // next-cheapest at 0 posts
}

TEST(CostAwareFpTest, PostCountStillDominatesCost) {
  CostModel costs({1, 9});
  FewestPostsStrategy strategy(&costs);
  std::vector<ResourceState> states;
  states.emplace_back(2);
  states.emplace_back(2);
  states[0].AddPost(Post::FromTags({1}));  // 1 post, cheap
  ResourceStateViews views(&states);
  StrategyContext ctx;
  ctx.views = &views;
  strategy.Init(ctx);
  // Resource 1 has fewer posts despite being expensive.
  EXPECT_EQ(strategy.Choose(), 1u);
}

TEST(CostAwareFpTest, MatchesFpUnderUniformCosts) {
  CostModel costs = CostModel::Uniform(4);
  FewestPostsStrategy strategy(&costs);
  std::vector<ResourceState> states;
  for (int i = 0; i < 4; ++i) {
    states.emplace_back(2);
    for (int k = 0; k < 4 - i; ++k) {
      states.back().AddPost(Post::FromTags({1}));
    }
  }
  ResourceStateViews views(&states);
  StrategyContext ctx;
  ctx.views = &views;
  strategy.Init(ctx);
  EXPECT_EQ(strategy.Choose(), 3u);  // fewest posts
  strategy.OnExhausted(3);
  EXPECT_EQ(strategy.Choose(), 2u);
}

// Over a whole run on a prepared dataset, FP given uniform unit costs
// (charged by the engine too) allocates and checkpoints exactly as FP
// without costs, with one task in flight or a batch of them.
TEST(CostAwareFpTest, RunMatchesFpUnderUniformCosts) {
  sim::CorpusConfig config;
  config.num_resources = 160;
  config.seed = 9;
  config.year_posts_max = 300;
  auto corpus = sim::Corpus::Generate(config);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  sim::PrepConfig prep;
  prep.seed = 9;
  auto dataset = sim::PrepareFromCorpus(corpus.value(), prep);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  const sim::PreparedDataset& ds = dataset.value();
  ASSERT_GT(ds.size(), 20u);
  const CostModel costs = CostModel::Uniform(ds.size());

  for (int64_t batch_size : {1, 8}) {
    EngineOptions options;
    options.budget = 1500;
    options.checkpoints = {100, 500, 1000};
    options.batch_size = batch_size;
    const auto run = [&](FewestPostsStrategy* strategy,
                         const CostModel* model) {
      EngineOptions with_model = options;
      with_model.costs = model;
      AllocationEngine engine(with_model, &ds.initial_posts, &ds.references);
      VectorPostStream stream = ds.MakeStream();
      auto report = engine.Run(strategy, &stream);
      EXPECT_TRUE(report.ok()) << report.status().ToString();
      return std::move(report).value();
    };
    FewestPostsStrategy fp;
    FewestPostsStrategy fp_cost(&costs);
    const RunReport want = run(&fp, nullptr);
    const RunReport got = run(&fp_cost, &costs);
    EXPECT_EQ(want.strategy_name, "FP");
    EXPECT_EQ(got.strategy_name, "FP-$");
    EXPECT_EQ(got.allocation, want.allocation) << batch_size;
    EXPECT_EQ(got.budget_spent, want.budget_spent) << batch_size;
    EXPECT_EQ(got.stopped_early, want.stopped_early) << batch_size;
    ASSERT_EQ(got.checkpoints.size(), want.checkpoints.size());
    for (size_t k = 0; k < want.checkpoints.size(); ++k) {
      const AllocationMetrics& a = got.checkpoints[k];
      const AllocationMetrics& b = want.checkpoints[k];
      EXPECT_EQ(a.budget_used, b.budget_used) << batch_size << " " << k;
      EXPECT_EQ(a.avg_quality, b.avg_quality) << batch_size << " " << k;
      EXPECT_EQ(a.over_tagged, b.over_tagged) << batch_size << " " << k;
      EXPECT_EQ(a.wasted_posts, b.wasted_posts) << batch_size << " " << k;
      EXPECT_EQ(a.under_tagged, b.under_tagged) << batch_size << " " << k;
    }
  }
}

// A snapshot's pending count outside [0, INT32_MAX] is corruption, as
// for FP; the largest in-range count restores and re-serializes to
// itself.
TEST(CostAwareFpTest, PendingCountOutsideInt32IsRejected) {
  CostModel costs({3, 1});
  std::vector<ResourceState> states;
  states.emplace_back(2);
  states.emplace_back(2);
  ResourceStateViews views(&states);
  StrategyContext ctx;
  ctx.views = &views;
  const auto blob = [](int64_t pending) {
    std::string out;
    util::wire::PutU64(&out, 2);
    util::wire::PutU8(&out, 1);
    util::wire::PutI64(&out, 0);
    util::wire::PutU8(&out, 1);
    util::wire::PutI64(&out, pending);
    return out;
  };
  for (int64_t pending : {int64_t{-1}, int64_t{1} << 40}) {
    FewestPostsStrategy strategy(&costs);
    EXPECT_EQ(strategy.RestoreState(ctx, blob(pending)).code(),
              util::StatusCode::kCorruption)
        << pending;
  }
  FewestPostsStrategy strategy(&costs);
  const std::string largest = blob(INT32_MAX);
  ASSERT_TRUE(strategy.RestoreState(ctx, largest).ok());
  std::string again;
  strategy.SerializeState(&again);
  EXPECT_EQ(again, largest);
  EXPECT_EQ(strategy.Choose(), 0u);  // resource 1 carries the pending tasks
}

// DP with costs ----------------------------------------------------------

TEST(DpWithCostsTest, PrefersCheaperEquivalentResource) {
  // Two identical resources; resource 1 costs twice as much. All budget
  // should flow to resource 0 first.
  CostFixture f(/*initial_tag=*/9);
  CostModel costs({1, 2});
  auto plan = DpPlanner::Plan(f.initial, f.references, f.future, 4, &costs);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // 4 units buy 4 tasks on resource 0 vs 2 on resource 1; quality is
  // concave-ish here so the split favours 0 heavily.
  EXPECT_GE(plan.value().allocation[0], plan.value().allocation[1]);
  int64_t total_cost = plan.value().allocation[0] * 1 +
                       plan.value().allocation[1] * 2;
  EXPECT_LE(total_cost, 4);
}

TEST(DpWithCostsTest, MatchesBruteForceOnSmallInstance) {
  // Make the two resources differ so the optimum is non-trivial.
  std::vector<Post> future1;
  for (int i = 0; i < 10; ++i) {
    future1.push_back(Post::FromTags({i % 2 == 0 ? 1u : 7u}));
  }
  CostFixture f(/*initial_tag=*/1, future1);
  CostModel costs({2, 3});
  const int64_t budget = 11;

  auto plan =
      DpPlanner::Plan(f.initial, f.references, f.future, budget, &costs);
  ASSERT_TRUE(plan.ok());

  // Brute force over (x0, x1) with 2*x0 + 3*x1 <= 11.
  double best = -1.0;
  for (int64_t x0 = 0; x0 <= 10; ++x0) {
    for (int64_t x1 = 0; x1 <= 10; ++x1) {
      if (2 * x0 + 3 * x1 > budget) continue;
      double total = 0.0;
      for (size_t i = 0; i < 2; ++i) {
        const int64_t x = i == 0 ? x0 : x1;
        TagCounts counts;
        for (PostView post : f.initial[i]) counts.AddPost(post);
        for (int64_t k = 0; k < x; ++k) {
          counts.AddPost(f.future[i][static_cast<size_t>(k)]);
        }
        total += Cosine(counts, f.references[i].stable_rfd);
      }
      best = std::max(best, total);
    }
  }
  EXPECT_NEAR(plan.value().optimal_total_quality, best, 1e-9);
}

TEST(DpWithCostsTest, UnitCostsAllowFullSpend) {
  CostFixture f;
  CostModel costs = CostModel::Uniform(2, 1);
  auto with_costs =
      DpPlanner::Plan(f.initial, f.references, f.future, 6, &costs);
  ASSERT_TRUE(with_costs.ok());
  auto exact = DpPlanner::Plan(f.initial, f.references, f.future, 6);
  ASSERT_TRUE(exact.ok());
  // Under <= semantics the optimum is at least the ==-constrained one.
  EXPECT_GE(with_costs.value().optimal_total_quality + 1e-12,
            exact.value().optimal_total_quality);
}

TEST(DpWithCostsTest, RejectsMismatchedCosts) {
  CostFixture f;
  CostModel costs = CostModel::Uniform(7);
  EXPECT_FALSE(
      DpPlanner::Plan(f.initial, f.references, f.future, 3, &costs).ok());
}

}  // namespace
}  // namespace core
}  // namespace incentag

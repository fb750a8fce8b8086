#include "src/core/dp_planner.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/quality.h"
#include "src/core/types.h"
#include "src/util/random.h"
#include "tests/testing/test_util.h"

namespace incentag {
namespace core {
namespace {

// A tiny instance: initial posts + future posts per resource, plus a
// reference direction per resource.
struct TinyProblem {
  PostStore initial;
  PostStore future;
  std::vector<ResourceReference> references;
};

TinyProblem MakeRandomProblem(uint64_t seed, size_t n, int init_posts,
                              int future_posts) {
  util::Rng rng(seed);
  TinyProblem p;
  PostStore::Builder initial;
  PostStore::Builder future;
  for (size_t i = 0; i < n; ++i) {
    // Per-resource tag universe offset keeps resources distinct.
    const uint32_t universe = 6;
    const std::vector<Post> all =
        testing::ConvergingSequence(&rng, init_posts + future_posts + 60,
                                    universe);
    for (int k = 0; k < init_posts + future_posts; ++k) {
      (k < init_posts ? initial : future).AddPost(all[static_cast<size_t>(k)]);
    }
    initial.EndResource();
    future.EndResource();
    // Reference: the converged direction of the whole sequence.
    TagCounts counts;
    for (const Post& post : all) counts.AddPost(post);
    p.references.push_back(
        ResourceReference{counts.Snapshot(), /*stable_point=*/50});
  }
  p.initial = std::move(initial).Build();
  p.future = std::move(future).Build();
  return p;
}

// Objective value of allocation x, computed naively.
double ObjectiveOf(const TinyProblem& p, const std::vector<int64_t>& x) {
  double total = 0.0;
  for (size_t i = 0; i < p.initial.size(); ++i) {
    TagCounts counts;
    for (PostView post : p.initial[i]) counts.AddPost(post);
    for (int64_t k = 0; k < x[i]; ++k) {
      counts.AddPost(p.future[i][static_cast<size_t>(k)]);
    }
    total += Cosine(counts, p.references[i].stable_rfd);
  }
  return total;
}

// Exhaustive optimum over all allocations with sum == budget.
double BruteForceOptimum(const TinyProblem& p, int64_t budget) {
  const size_t n = p.initial.size();
  std::vector<int64_t> x(n, 0);
  double best = -1.0;
  // Recursive enumeration.
  auto recurse = [&](auto&& self, size_t i, int64_t remaining) -> void {
    if (i + 1 == n) {
      if (remaining > static_cast<int64_t>(p.future[i].size())) return;
      x[i] = remaining;
      best = std::max(best, ObjectiveOf(p, x));
      return;
    }
    const int64_t cap =
        std::min<int64_t>(remaining, static_cast<int64_t>(p.future[i].size()));
    for (int64_t v = 0; v <= cap; ++v) {
      x[i] = v;
      self(self, i + 1, remaining - v);
    }
  };
  recurse(recurse, 0, budget);
  return best;
}

class DpVsBruteForceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DpVsBruteForceTest, DpMatchesExhaustiveSearch) {
  TinyProblem p = MakeRandomProblem(GetParam(), /*n=*/3, /*init_posts=*/4,
                                    /*future_posts=*/6);
  for (int64_t budget : {0, 1, 3, 5, 8}) {
    auto plan = DpPlanner::Plan(p.initial, p.references, p.future, budget);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const double brute = BruteForceOptimum(p, budget);
    EXPECT_NEAR(plan.value().optimal_total_quality, brute, 1e-9)
        << "budget=" << budget;
    // The reported allocation achieves the reported value and spends the
    // whole budget.
    int64_t spent = 0;
    for (int64_t v : plan.value().allocation) spent += v;
    EXPECT_EQ(spent, budget);
    EXPECT_NEAR(ObjectiveOf(p, plan.value().allocation),
                plan.value().optimal_total_quality, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DpVsBruteForceTest,
                         ::testing::Values(11u, 22u, 33u, 44u));

TEST(DpPlannerTest, ZeroBudgetAllocatesNothing) {
  TinyProblem p = MakeRandomProblem(5, 2, 3, 4);
  auto plan = DpPlanner::Plan(p.initial, p.references, p.future, 0);
  ASSERT_TRUE(plan.ok());
  for (int64_t v : plan.value().allocation) EXPECT_EQ(v, 0);
}

TEST(DpPlannerTest, BudgetBeyondSupplyFails) {
  TinyProblem p = MakeRandomProblem(6, 2, 3, 4);
  auto plan = DpPlanner::Plan(p.initial, p.references, p.future, 9);
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST(DpPlannerTest, BudgetEqualToSupplyTakesEverything) {
  TinyProblem p = MakeRandomProblem(7, 2, 3, 4);
  auto plan = DpPlanner::Plan(p.initial, p.references, p.future, 8);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().allocation[0], 4);
  EXPECT_EQ(plan.value().allocation[1], 4);
}

TEST(DpPlannerTest, RejectsMismatchedInputs) {
  TinyProblem p = MakeRandomProblem(8, 2, 3, 4);
  std::vector<ResourceReference> short_refs = {p.references[0]};
  auto plan = DpPlanner::Plan(p.initial, short_refs, p.future, 1);
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(DpPlannerTest, RejectsEmptyProblemAndNegativeBudget) {
  TinyProblem p = MakeRandomProblem(9, 2, 3, 4);
  EXPECT_FALSE(DpPlanner::Plan({}, {}, p.future, 1).ok());
  EXPECT_FALSE(DpPlanner::Plan(p.initial, p.references, p.future, -1).ok());
}

TEST(DpPlannerTest, QualityTableMatchesSequenceQuality) {
  TinyProblem p = MakeRandomProblem(10, 1, 5, 10);
  std::vector<double> table = DpPlanner::QualityTable(
      p.initial[0], p.references[0], p.future, 0, 10);
  ASSERT_EQ(table.size(), 11u);
  for (int64_t x = 0; x <= 10; ++x) {
    PostStore::Builder builder;
    builder.AddPosts(p.initial[0]);
    builder.AddPosts(p.future[0].Slice(0, static_cast<size_t>(x)));
    builder.EndResource();
    const PostStore combined = std::move(builder).Build();
    EXPECT_NEAR(table[static_cast<size_t>(x)],
                SequenceQuality(combined[0],
                                static_cast<int64_t>(combined[0].size()),
                                p.references[0].stable_rfd),
                1e-9)
        << "x=" << x;
  }
}

TEST(DpPlannerTest, PreferObviouslyBetterResource) {
  // Resource 0's future posts match its reference; resource 1's future
  // posts are junk relative to its reference. All budget must go to 0.
  TinyProblem p;
  p.initial = PostStore::FromPosts({{Post::FromTags({9})},  // off-reference
                                    {Post::FromTags({1})}});
  p.future = PostStore::FromPosts(
      {std::vector<Post>(5, Post::FromTags({1})),    // matches reference {1}
       std::vector<Post>(5, Post::FromTags({9}))});  // moves away from {1}
  p.references.push_back(
      ResourceReference{RfdVector::FromWeights({{1, 1.0}}), 3});
  p.references.push_back(
      ResourceReference{RfdVector::FromWeights({{1, 1.0}}), 3});
  auto plan = DpPlanner::Plan(p.initial, p.references, p.future, 5);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().allocation[0], 5);
  EXPECT_EQ(plan.value().allocation[1], 0);
}

TEST(PlanStrategyTest, DispensesAllocationInIdOrder) {
  PlanStrategy strategy({2, 0, 1});
  StrategyContext ctx;  // PlanStrategy ignores the context
  strategy.Init(ctx);
  EXPECT_EQ(strategy.Choose(), 0u);
  strategy.OnAssigned(0);
  EXPECT_EQ(strategy.Choose(), 0u);
  strategy.OnAssigned(0);
  EXPECT_EQ(strategy.Choose(), 2u);
  strategy.OnAssigned(2);
  EXPECT_EQ(strategy.Choose(), kInvalidResource);
}

TEST(PlanStrategyTest, ExhaustionDropsResource) {
  PlanStrategy strategy({3, 1});
  StrategyContext ctx;
  strategy.Init(ctx);
  strategy.OnExhausted(0);
  EXPECT_EQ(strategy.Choose(), 1u);
}

}  // namespace
}  // namespace core
}  // namespace incentag

// Tests for the shared experiment-harness library (bench/common): the
// figure benches all print through this code, so its aggregation logic is
// load-bearing for EXPERIMENTS.md.
#include <gtest/gtest.h>

#include "bench/common/bench_common.h"
#include "bench/common/similarity_eval.h"

namespace incentag {
namespace bench {
namespace {

TEST(BenchCommonTest, MakeDatasetIsDeterministic) {
  auto a = MakeDataset(60, 9);
  auto b = MakeDataset(60, 9);
  ASSERT_EQ(a->dataset.size(), b->dataset.size());
  EXPECT_EQ(a->dataset.urls, b->dataset.urls);
  EXPECT_EQ(a->dataset.year_length, b->dataset.year_length);
}

TEST(BenchCommonTest, MakeStrategyCoversAllNames) {
  auto ds = MakeDataset(40, 9);
  sim::CrowdModel crowd(ds->dataset.popularity, 1.0, 1);
  for (const char* name : kPracticalStrategies) {
    auto strategy = MakeStrategy(name, &crowd);
    ASSERT_NE(strategy, nullptr);
    EXPECT_EQ(strategy->name(), name);
  }
}

TEST(BenchCommonTest, ParseBudgetList) {
  std::vector<int64_t> budgets = ParseBudgetList("0,250, 500");
  ASSERT_EQ(budgets.size(), 3u);
  EXPECT_EQ(budgets[0], 0);
  EXPECT_EQ(budgets[2], 500);
}

// A figure bench's --omega outside core::ValidateOmega exits 2 with a
// message naming the flag, instead of dying mid-run (SIGFPE at 1,
// bad_array_new_length at 0).
TEST(BenchCommonTest, RequireValidOmegaExitsTwoOnABadWindow) {
  RequireValidOmega("omega", 2);
  RequireValidOmega("omegas", 1024);
  for (int64_t omega : {int64_t{-3}, int64_t{0}, int64_t{1}, int64_t{1025}}) {
    EXPECT_EXIT(RequireValidOmega("omega", omega),
                ::testing::ExitedWithCode(2), "--omega: .*omega must be")
        << omega;
  }
}

TEST(BenchCommonTest, RunAtBudgetSpendsTheBudget) {
  auto ds = MakeDataset(40, 9);
  auto fp = MakeStrategy("FP", nullptr);
  core::RunReport report = RunAtBudget(*ds, fp.get(), 50, 5);
  EXPECT_EQ(report.budget_spent, 50);
}

TEST(BenchCommonTest, RunBudgetSweepAlignsWithBudgets) {
  auto ds = MakeDataset(40, 9);
  std::vector<int64_t> budgets = {0, 20, 40};
  MetricSeries series = RunBudgetSweep(*ds, budgets, 5, /*include_dp=*/true);
  ASSERT_EQ(series.size(), 6u);  // 5 practical + DP
  for (const auto& [name, values] : series) {
    ASSERT_EQ(values.size(), budgets.size()) << name;
    // Quality can only grow with budget here (posts match references
    // closely in aggregate); at minimum the zero-budget entries agree.
    EXPECT_NEAR(values[0].avg_quality,
                series.begin()->second[0].avg_quality, 1e-9);
  }
  // DP dominates every strategy at every budget.
  for (size_t i = 0; i < budgets.size(); ++i) {
    for (const auto& [name, values] : series) {
      EXPECT_GE(series.at("DP")[i].avg_quality + 1e-9,
                values[i].avg_quality)
          << name << " at budget " << budgets[i];
    }
  }
}

TEST(BenchCommonTest, BuildYearSequencesConcatenatesSplits) {
  auto ds = MakeDataset(40, 9);
  const core::PostStore year = BuildYearSequences(ds->dataset);
  ASSERT_EQ(year.size(), ds->dataset.size());
  for (size_t i = 0; i < year.size(); ++i) {
    EXPECT_EQ(year[i].size(),
              ds->dataset.initial_posts[i].size() +
                  ds->dataset.future_posts[i].size());
    EXPECT_EQ(static_cast<int64_t>(year[i].size()),
              ds->dataset.year_length[i]);
  }
}

TEST(BenchCommonTest, CountsAfterHandlesEmptyAllocation) {
  auto ds = MakeDataset(40, 9);
  std::vector<int64_t> counts = CountsAfter(ds->dataset, {});
  for (size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i],
              static_cast<int64_t>(ds->dataset.initial_posts[i].size()));
  }
}

TEST(SimilarityEvaluatorTest, AccuracyImprovesTowardTheYearEnd) {
  auto ds = MakeDataset(60, 9);
  SimilarityEvaluator evaluator(*ds);
  const double january = evaluator.RankingAccuracy({});
  // Allocate everything: counts become the full year.
  std::vector<int64_t> all(ds->dataset.size());
  for (size_t i = 0; i < all.size(); ++i) {
    all[i] = static_cast<int64_t>(ds->dataset.future_posts[i].size());
  }
  const double december = evaluator.RankingAccuracy(all);
  EXPECT_GT(december, january);
  EXPECT_LE(december, 1.0);
  EXPECT_GE(january, -1.0);
}

}  // namespace
}  // namespace bench
}  // namespace incentag

// Numeric cross-checks: the engine's incrementally maintained metrics must
// equal from-scratch recomputation over the very same allocation, and the
// DP objectives must satisfy their structural properties on real corpora.
#include <memory>

#include <gtest/gtest.h>

#include "src/core/allocation.h"
#include "src/core/dp_planner.h"
#include "src/core/quality.h"
#include "src/core/strategy_fp.h"
#include "src/core/strategy_rr.h"
#include "src/sim/dataset_prep.h"
#include "src/sim/generator.h"

namespace incentag {
namespace {

class NumericConsistencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::CorpusConfig config;
    config.num_resources = 60;
    config.seed = 2026;
    auto corpus = sim::Corpus::Generate(config);
    ASSERT_TRUE(corpus.ok());
    corpus_ = std::make_unique<sim::Corpus>(std::move(corpus).value());
    auto prep = sim::PrepareFromCorpus(*corpus_, sim::PrepConfig{});
    ASSERT_TRUE(prep.ok());
    dataset_ =
        std::make_unique<sim::PreparedDataset>(std::move(prep).value());
  }

  // Recomputes q(R, c + x) from scratch for a given allocation.
  double NaiveSetQuality(const std::vector<int64_t>& allocation) {
    const sim::PreparedDataset& ds = *dataset_;
    double total = 0.0;
    for (size_t i = 0; i < ds.size(); ++i) {
      core::TagCounts counts;
      for (core::PostView post : ds.initial_posts[i]) {
        counts.AddPost(post);
      }
      for (int64_t k = 0; k < allocation[i]; ++k) {
        counts.AddPost(ds.future_posts[i][static_cast<size_t>(k)]);
      }
      total += core::Cosine(counts, ds.references[i].stable_rfd);
    }
    return total / static_cast<double>(ds.size());
  }

  std::unique_ptr<sim::Corpus> corpus_;
  std::unique_ptr<sim::PreparedDataset> dataset_;
};

TEST_F(NumericConsistencyTest, EngineQualityEqualsFromScratchRecompute) {
  for (int64_t budget : {0, 37, 200}) {
    core::EngineOptions options;
    options.budget = budget;
    options.omega = 5;
    core::AllocationEngine engine(options, &dataset_->initial_posts,
                                  &dataset_->references);
    core::FewestPostsStrategy fp;
    core::VectorPostStream stream = dataset_->MakeStream();
    auto report = engine.Run(&fp, &stream);
    ASSERT_TRUE(report.ok());
    EXPECT_NEAR(report.value().final_metrics.avg_quality,
                NaiveSetQuality(report.value().allocation), 1e-9)
        << "budget=" << budget;
  }
}

TEST_F(NumericConsistencyTest, EngineCountersEqualFromScratchRecompute) {
  core::EngineOptions options;
  options.budget = 150;
  options.omega = 5;
  options.under_tagged_threshold = 10;
  core::AllocationEngine engine(options, &dataset_->initial_posts,
                                &dataset_->references);
  core::RoundRobinStrategy rr;
  core::VectorPostStream stream = dataset_->MakeStream();
  auto report = engine.Run(&rr, &stream);
  ASSERT_TRUE(report.ok());

  const sim::PreparedDataset& ds = *dataset_;
  int64_t over = 0;
  int64_t under = 0;
  for (size_t i = 0; i < ds.size(); ++i) {
    const int64_t posts =
        static_cast<int64_t>(ds.initial_posts[i].size()) +
        report.value().allocation[i];
    if (posts >= ds.references[i].stable_point) ++over;
    if (posts <= 10) ++under;
  }
  EXPECT_EQ(report.value().final_metrics.over_tagged, over);
  EXPECT_EQ(report.value().final_metrics.under_tagged, under);
}

TEST_F(NumericConsistencyTest, DpObjectiveEqualsEngineEvaluation) {
  // The planner's reported optimum, scaled to an average, must equal what
  // the engine measures when the plan is executed.
  const int64_t budget = 80;
  auto plan = core::DpPlanner::Plan(dataset_->initial_posts,
                                    dataset_->references,
                                    dataset_->future_posts, budget);
  ASSERT_TRUE(plan.ok());

  core::EngineOptions options;
  options.budget = budget;
  core::AllocationEngine engine(options, &dataset_->initial_posts,
                                &dataset_->references);
  core::PlanStrategy dp(plan.value().allocation);
  core::VectorPostStream stream = dataset_->MakeStream();
  auto report = engine.Run(&dp, &stream);
  ASSERT_TRUE(report.ok());
  EXPECT_NEAR(report.value().final_metrics.avg_quality,
              plan.value().optimal_total_quality /
                  static_cast<double>(dataset_->size()),
              1e-9);
}

TEST_F(NumericConsistencyTest, CostAwareDpIsMonotoneInBudget) {
  // PlanWithCosts uses <= semantics, so a larger budget can never yield a
  // worse optimum.
  core::CostModel costs = core::CostModel::Uniform(dataset_->size(), 2);
  double prev = -1.0;
  for (int64_t budget : {0, 20, 60, 120}) {
    auto plan = core::DpPlanner::PlanWithCosts(
        dataset_->initial_posts, dataset_->references,
        dataset_->future_posts, budget, costs);
    ASSERT_TRUE(plan.ok());
    EXPECT_GE(plan.value().optimal_total_quality + 1e-12, prev)
        << "budget=" << budget;
    prev = plan.value().optimal_total_quality;
  }
}

TEST_F(NumericConsistencyTest, DpDominatesEveryPracticalStrategy) {
  const int64_t budget = 120;
  auto plan = core::DpPlanner::Plan(dataset_->initial_posts,
                                    dataset_->references,
                                    dataset_->future_posts, budget);
  ASSERT_TRUE(plan.ok());
  const double dp_avg = plan.value().optimal_total_quality /
                        static_cast<double>(dataset_->size());

  core::EngineOptions options;
  options.budget = budget;
  options.omega = 5;
  core::AllocationEngine engine(options, &dataset_->initial_posts,
                                &dataset_->references);
  core::FewestPostsStrategy fp;
  core::VectorPostStream stream = dataset_->MakeStream();
  auto report = engine.Run(&fp, &stream);
  ASSERT_TRUE(report.ok());
  EXPECT_GE(dp_avg + 1e-9, report.value().final_metrics.avg_quality);
}

}  // namespace
}  // namespace incentag

// Numeric cross-checks: the engine's incrementally maintained metrics must
// equal from-scratch recomputation over the very same allocation, and the
// DP objectives must satisfy their structural properties on real corpora.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/allocation.h"
#include "src/core/cost_model.h"
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
  // Given costs, DP plans with <= semantics, so a larger budget can never
  // yield a worse optimum.
  core::CostModel costs = core::CostModel::Uniform(dataset_->size(), 2);
  double prev = -1.0;
  for (int64_t budget : {0, 20, 60, 120}) {
    auto plan = core::DpPlanner::Plan(
        dataset_->initial_posts, dataset_->references,
        dataset_->future_posts, budget, &costs);
    ASSERT_TRUE(plan.ok());
    EXPECT_GE(plan.value().optimal_total_quality + 1e-12, prev)
        << "budget=" << budget;
    prev = plan.value().optimal_total_quality;
  }
}

TEST_F(NumericConsistencyTest, DpDominatesEveryPracticalStrategy) {
  // Under a cost model FP and FP-$ (FP given the costs) spend at most the
  // budget, so DP given the same costs bounds both; nothing orders FP-$
  // against FP.
  std::vector<int64_t> varied(dataset_->size());
  for (size_t i = 0; i < varied.size(); ++i) {
    varied[i] = 1 + static_cast<int64_t>(i % 3);
  }
  const core::CostModel costs(varied);
  const core::CostModel* const models[] = {nullptr, &costs};
  const int64_t budget = 120;
  for (const core::CostModel* model : models) {
    auto plan = core::DpPlanner::Plan(dataset_->initial_posts,
                                      dataset_->references,
                                      dataset_->future_posts, budget, model);
    ASSERT_TRUE(plan.ok());
    const double dp_avg = plan.value().optimal_total_quality /
                          static_cast<double>(dataset_->size());

    core::EngineOptions options;
    options.budget = budget;
    options.omega = 5;
    options.costs = model;
    core::AllocationEngine engine(options, &dataset_->initial_posts,
                                  &dataset_->references);
    core::FewestPostsStrategy fp;
    core::FewestPostsStrategy fp_cost(model);
    for (core::FewestPostsStrategy* strategy : {&fp, &fp_cost}) {
      core::VectorPostStream stream = dataset_->MakeStream();
      auto report = engine.Run(strategy, &stream);
      ASSERT_TRUE(report.ok());
      EXPECT_GE(dp_avg + 1e-9, report.value().final_metrics.avg_quality)
          << "costs=" << (model != nullptr) << " FP given costs="
          << (strategy == &fp_cost);
    }
  }
}

}  // namespace
}  // namespace incentag

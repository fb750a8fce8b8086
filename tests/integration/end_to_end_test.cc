// End-to-end integration tests: generate a corpus, prepare the dataset, run
// every allocation strategy through the engine, and assert the paper's
// qualitative findings (Section V-B) on a small instance.
#include <map>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "src/core/allocation.h"
#include "src/core/dp_planner.h"
#include "src/core/strategy_fc.h"
#include "src/core/strategy_fp.h"
#include "src/core/strategy_fpmu.h"
#include "src/core/strategy_mu.h"
#include "src/core/strategy_rr.h"
#include "src/sim/crowd.h"
#include "src/sim/dataset_prep.h"
#include "src/sim/generator.h"

namespace incentag {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  static constexpr int64_t kBudget = 400;

  void SetUp() override {
    sim::CorpusConfig config;
    config.num_resources = 120;
    config.seed = 20130408;  // ICDE 2013 opening day
    config.year_posts_min = 50;
    config.year_posts_max = 900;
    auto corpus = sim::Corpus::Generate(config);
    ASSERT_TRUE(corpus.ok());
    corpus_ = std::make_unique<sim::Corpus>(std::move(corpus).value());

    sim::PrepConfig prep_config;
    prep_config.stability = core::StabilityParams{10, 0.99};
    auto prep = sim::PrepareFromCorpus(*corpus_, prep_config);
    ASSERT_TRUE(prep.ok()) << prep.status().ToString();
    dataset_ = std::make_unique<sim::PreparedDataset>(std::move(prep).value());
    ASSERT_GT(dataset_->size(), 30u);
  }

  core::RunReport RunStrategy(core::Strategy* strategy) {
    core::EngineOptions options;
    options.budget = kBudget;
    options.omega = 5;
    core::AllocationEngine engine(options, &dataset_->initial_posts,
                                  &dataset_->references);
    core::VectorPostStream stream = dataset_->MakeStream();
    auto report = engine.Run(strategy, &stream);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return std::move(report).value();
  }

  std::unique_ptr<sim::Corpus> corpus_;
  std::unique_ptr<sim::PreparedDataset> dataset_;
};

TEST_F(EndToEndTest, StrategyQualityOrderingMatchesThePaper) {
  // Run all five practical strategies plus the optimal DP.
  std::map<std::string, double> quality;

  sim::CrowdModel crowd(dataset_->popularity, 1.0, 99);
  core::FreeChoiceStrategy fc(crowd.MakePicker());
  core::RoundRobinStrategy rr;
  core::FewestPostsStrategy fp;
  core::MostUnstableStrategy mu;
  core::HybridFpMuStrategy fpmu;

  quality["FC"] = RunStrategy(&fc).final_metrics.avg_quality;
  quality["RR"] = RunStrategy(&rr).final_metrics.avg_quality;
  quality["FP"] = RunStrategy(&fp).final_metrics.avg_quality;
  quality["MU"] = RunStrategy(&mu).final_metrics.avg_quality;
  quality["FP-MU"] = RunStrategy(&fpmu).final_metrics.avg_quality;

  auto plan = core::DpPlanner::Plan(dataset_->initial_posts,
                                    dataset_->references,
                                    dataset_->future_posts, kBudget);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  core::PlanStrategy dp(plan.value().allocation);
  quality["DP"] = RunStrategy(&dp).final_metrics.avg_quality;

  // Paper Figure 6(a): DP is optimal; FP and FP-MU are close to DP and far
  // ahead of FC; RR sits in between; FC barely moves.
  EXPECT_GE(quality["DP"] + 1e-9, quality["FP"]);
  EXPECT_GE(quality["DP"] + 1e-9, quality["FP-MU"]);
  EXPECT_GE(quality["DP"] + 1e-9, quality["RR"]);
  EXPECT_GT(quality["FP"], quality["FC"]);
  EXPECT_GT(quality["FP-MU"], quality["FC"]);
  EXPECT_GT(quality["RR"], quality["FC"]);
  // FP within a reasonable distance of optimal (paper: "close to DP").
  const double dp_gain = quality["DP"] - quality["FC"];
  const double fp_gain = quality["FP"] - quality["FC"];
  EXPECT_GT(fp_gain, 0.5 * dp_gain);
}

TEST_F(EndToEndTest, FreeChoiceWastesPostsOthersDoNot) {
  sim::CrowdModel crowd(dataset_->popularity, 1.0, 99);
  core::FreeChoiceStrategy fc(crowd.MakePicker());
  core::FewestPostsStrategy fp;
  core::MostUnstableStrategy mu;

  core::RunReport fc_report = RunStrategy(&fc);
  core::RunReport fp_report = RunStrategy(&fp);
  core::RunReport mu_report = RunStrategy(&mu);

  // Paper Figure 6(c): FC wastes a large share of its tasks; FP wastes
  // essentially none. (At this reduced scale a resource's stable point can
  // sit below FP's water-fill level, so allow a small residual instead of
  // the paper's exact zero.)
  EXPECT_GT(fc_report.final_metrics.wasted_posts, kBudget / 10);
  EXPECT_LE(fp_report.final_metrics.wasted_posts, kBudget / 50);
  EXPECT_GT(fc_report.final_metrics.wasted_posts,
            10 * fp_report.final_metrics.wasted_posts);
  EXPECT_GT(fc_report.final_metrics.wasted_posts,
            mu_report.final_metrics.wasted_posts);
}

TEST_F(EndToEndTest, FpReducesUnderTaggedFasterThanFc) {
  sim::CrowdModel crowd(dataset_->popularity, 1.0, 99);
  core::FreeChoiceStrategy fc(crowd.MakePicker());
  core::FewestPostsStrategy fp;
  core::RunReport fc_report = RunStrategy(&fc);
  core::RunReport fp_report = RunStrategy(&fp);
  // Paper Figure 6(d): a targeted strategy lifts under-tagged resources.
  EXPECT_LE(fp_report.final_metrics.under_tagged,
            fc_report.final_metrics.under_tagged);
}

TEST_F(EndToEndTest, BudgetFullySpentAndAllocationConsistent) {
  core::FewestPostsStrategy fp;
  core::RunReport report = RunStrategy(&fp);
  EXPECT_EQ(report.budget_spent, kBudget);
  int64_t total = 0;
  for (int64_t x : report.allocation) total += x;
  EXPECT_EQ(total, kBudget);
  EXPECT_FALSE(report.stopped_early);
}

TEST_F(EndToEndTest, RunsAreDeterministic) {
  core::FewestPostsStrategy fp1;
  core::FewestPostsStrategy fp2;
  core::RunReport a = RunStrategy(&fp1);
  core::RunReport b = RunStrategy(&fp2);
  EXPECT_EQ(a.allocation, b.allocation);
  EXPECT_DOUBLE_EQ(a.final_metrics.avg_quality, b.final_metrics.avg_quality);
}

TEST_F(EndToEndTest, DpBeatsEveryRandomAllocationSample) {
  // DP's objective dominates arbitrary alternative allocations evaluated
  // through the same engine. (Spot check of optimality at system level.)
  auto plan = core::DpPlanner::Plan(dataset_->initial_posts,
                                    dataset_->references,
                                    dataset_->future_posts, 50);
  ASSERT_TRUE(plan.ok());

  core::EngineOptions options;
  options.budget = 50;
  core::AllocationEngine engine(options, &dataset_->initial_posts,
                                &dataset_->references);

  core::PlanStrategy dp(plan.value().allocation);
  core::VectorPostStream stream1 = dataset_->MakeStream();
  auto dp_report = engine.Run(&dp, &stream1);
  ASSERT_TRUE(dp_report.ok());

  util::Rng rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<int64_t> x(dataset_->size(), 0);
    for (int64_t b = 0; b < 50; ++b) {
      ++x[rng.NextBounded(dataset_->size())];
    }
    core::PlanStrategy random_plan(x);
    core::VectorPostStream stream2 = dataset_->MakeStream();
    auto random_report = engine.Run(&random_plan, &stream2);
    ASSERT_TRUE(random_report.ok());
    EXPECT_GE(dp_report.value().final_metrics.avg_quality + 1e-9,
              random_report.value().final_metrics.avg_quality);
  }
}

}  // namespace
}  // namespace incentag

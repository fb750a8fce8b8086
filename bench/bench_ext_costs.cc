// Extension ablation (paper Section III-C): post tasks with different
// reward amounts.
//
// Reward amounts come from the preference crowd: a task on a niche-area
// resource reaches fewer willing taggers and must pay more. Under such
// costs, plain FP overpays for expensive resources at each level, the
// cost-aware FP-$ fills each level cheapest-first, and the cost-aware DP
// (PlanWithCosts) is the upper bound. With uniform costs, FP and FP-$
// coincide — the paper's base model is recovered exactly.
#include <cstdio>
#include <memory>

#include "bench/common/bench_common.h"
#include "src/core/dp_planner.h"
#include "src/core/strategy_fp.h"
#include "src/core/strategy_fp_cost.h"
#include "src/sim/preference_crowd.h"
#include "src/util/flags.h"
#include "src/util/logging.h"

int main(int argc, char** argv) {
  using namespace incentag;

  int64_t n = 300;
  int64_t seed = 42;
  int64_t budget = 2000;
  int64_t base_cost = 2;
  double focus = 0.8;
  util::FlagSet flags;
  flags.AddInt("n", &n, "resources to generate");
  flags.AddInt("seed", &seed, "corpus seed");
  flags.AddInt("budget", &budget, "reward units");
  flags.AddInt("base_cost", &base_cost, "cost of the best-staffed resource");
  flags.AddDouble("focus", &focus, "tagger community focus");
  INCENTAG_CHECK(flags.Parse(argc, argv).ok());

  auto bench_ds = bench::MakeDataset(n, static_cast<uint64_t>(seed));
  const sim::PreparedDataset& ds = bench_ds->dataset;

  // Areas of the kept resources (for the preference crowd).
  std::vector<sim::CategoryId> areas(ds.size());
  for (size_t i = 0; i < ds.size(); ++i) {
    const auto& info = bench_ds->corpus->resource(ds.source_ids[i]);
    areas[i] = bench_ds->corpus->hierarchy().category(info.primary).parent;
  }
  sim::PreferenceCrowd::Options crowd_options;
  crowd_options.focus = focus;
  sim::PreferenceCrowd crowd(areas, ds.popularity, crowd_options, 99);
  core::CostModel costs = crowd.MakeCostModel(base_cost);
  std::printf("extension: variable task costs (%zu resources, budget "
              "%lld, costs %lld..%lld units)\n",
              ds.size(), static_cast<long long>(budget),
              static_cast<long long>(costs.min_cost()),
              static_cast<long long>(costs.max_cost()));

  core::EngineOptions options;
  options.budget = budget;
  options.omega = 5;
  options.costs = &costs;
  core::AllocationEngine engine(options, &ds.initial_posts, &ds.references);

  auto run = [&](core::Strategy* strategy) {
    core::VectorPostStream stream = ds.MakeStream();
    auto report = engine.Run(strategy, &stream);
    INCENTAG_CHECK(report.ok());
    return std::move(report).value();
  };

  std::printf("\n%-8s  %10s  %10s  %10s\n", "strat", "quality", "tasks",
              "spent");
  core::FewestPostsStrategy fp;
  core::RunReport fp_report = run(&fp);
  core::CostAwareFpStrategy fp_cost(&costs);
  core::RunReport fp_cost_report = run(&fp_cost);

  auto plan = core::DpPlanner::PlanWithCosts(ds.initial_posts, ds.references,
                                             ds.future_posts, budget, costs);
  INCENTAG_CHECK(plan.ok());
  core::PlanStrategy dp(plan.value().allocation);
  core::RunReport dp_report = run(&dp);

  for (const core::RunReport* report :
       {&fp_report, &fp_cost_report, &dp_report}) {
    int64_t tasks = 0;
    for (int64_t x : report->allocation) tasks += x;
    std::printf("%-8s  %10.4f  %10lld  %10lld\n",
                report->strategy_name.c_str(),
                report->final_metrics.avg_quality,
                static_cast<long long>(tasks),
                static_cast<long long>(report->budget_spent));
  }

  std::printf("\nexpected: DP(costs) >= FP-$ >= FP in quality; FP-$ buys "
              "at least as many tasks for the same budget\n");
  return 0;
}

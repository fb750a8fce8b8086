// Incentive pricing: the two paper extensions working together.
//
// Section III-C remarks that the model "can easily be extended to handle
// post tasks of different reward amounts", and Section VI lists user
// preference as future work. This example combines both: tagger
// communities (PreferenceCrowd) imply that niche resources reach fewer
// willing workers, which prices their post tasks higher (MakeCostModel);
// the campaign is then run with cost-aware allocation (CostAwareFpStrategy
// and DpPlanner::PlanWithCosts) against the plain FP baseline.
//
//   ./build/examples/incentive_pricing --budget=2500 --focus=0.9
#include <cstdio>
#include <vector>

#include "src/core/allocation.h"
#include "src/core/dp_planner.h"
#include "src/core/strategy_fp.h"
#include "src/core/strategy_fp_cost.h"
#include "src/sim/dataset_prep.h"
#include "src/sim/generator.h"
#include "src/sim/preference_crowd.h"
#include "src/util/flags.h"

int main(int argc, char** argv) {
  using namespace incentag;

  int64_t n = 300;
  int64_t seed = 42;
  int64_t budget = 2500;
  int64_t base_cost = 2;
  double focus = 0.9;
  util::FlagSet flags;
  flags.AddInt("n", &n, "resources to generate");
  flags.AddInt("seed", &seed, "corpus seed");
  flags.AddInt("budget", &budget, "reward units");
  flags.AddInt("base_cost", &base_cost, "cheapest task price");
  flags.AddDouble("focus", &focus, "tagger community focus in [0,1]");
  util::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\nusage:\n%s", parsed.ToString().c_str(),
                 flags.Usage().c_str());
    return 1;
  }

  sim::CorpusConfig corpus_config;
  corpus_config.num_resources = n;
  corpus_config.seed = static_cast<uint64_t>(seed);
  auto corpus = sim::Corpus::Generate(corpus_config);
  if (!corpus.ok()) {
    std::fprintf(stderr, "corpus: %s\n", corpus.status().ToString().c_str());
    return 1;
  }
  auto prep = sim::PrepareFromCorpus(corpus.value(), sim::PrepConfig{});
  if (!prep.ok()) {
    std::fprintf(stderr, "prep: %s\n", prep.status().ToString().c_str());
    return 1;
  }
  const sim::PreparedDataset& ds = prep.value();

  // Price post tasks from the community structure.
  std::vector<sim::CategoryId> areas(ds.size());
  for (size_t i = 0; i < ds.size(); ++i) {
    const auto& info = corpus.value().resource(ds.source_ids[i]);
    areas[i] = corpus.value().hierarchy().category(info.primary).parent;
  }
  sim::PreferenceCrowd::Options crowd_options;
  crowd_options.focus = focus;
  sim::PreferenceCrowd crowd(areas, ds.popularity, crowd_options,
                             static_cast<uint64_t>(seed) + 1);
  core::CostModel costs = crowd.MakeCostModel(base_cost);
  std::printf("pricing: %zu resources, focus %.2f -> task costs %lld..%lld "
              "units, budget %lld\n",
              ds.size(), focus, static_cast<long long>(costs.min_cost()),
              static_cast<long long>(costs.max_cost()),
              static_cast<long long>(budget));

  core::EngineOptions options;
  options.budget = budget;
  options.omega = 5;
  options.costs = &costs;
  core::AllocationEngine engine(options, &ds.initial_posts, &ds.references);

  auto run = [&](core::Strategy* strategy) -> core::RunReport {
    core::VectorPostStream stream = ds.MakeStream();
    auto report = engine.Run(strategy, &stream);
    if (!report.ok()) {
      std::fprintf(stderr, "run failed: %s\n",
                   report.status().ToString().c_str());
      std::exit(1);
    }
    return std::move(report).value();
  };

  core::FewestPostsStrategy fp;
  core::CostAwareFpStrategy fp_cost(&costs);
  core::RunReport fp_report = run(&fp);
  core::RunReport fp_cost_report = run(&fp_cost);

  auto plan = core::DpPlanner::PlanWithCosts(ds.initial_posts, ds.references,
                                             ds.future_posts, budget, costs);
  if (!plan.ok()) {
    std::fprintf(stderr, "dp: %s\n", plan.status().ToString().c_str());
    return 1;
  }
  core::PlanStrategy dp(plan.value().allocation);
  core::RunReport dp_report = run(&dp);

  std::printf("\n%-10s  %10s  %8s  %10s\n", "strategy", "quality", "tasks",
              "spent");
  for (const core::RunReport* report :
       {&fp_report, &fp_cost_report, &dp_report}) {
    int64_t tasks = 0;
    for (int64_t x : report->allocation) tasks += x;
    std::printf("%-10s  %10.4f  %8lld  %10lld\n",
                report->strategy_name.c_str(),
                report->final_metrics.avg_quality,
                static_cast<long long>(tasks),
                static_cast<long long>(report->budget_spent));
  }
  std::printf("\ncost-aware allocation buys more tasks per unit of budget; "
              "DP(costs) bounds what any allocation can achieve.\n");
  return 0;
}

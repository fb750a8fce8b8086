// Crowdsourcing campaign simulator — the workflow of the paper's Figure 2.
//
// A resource owner has a reward budget and must decide which under-tagged
// resources to put in front of crowd workers. This example runs the same
// campaign under every incentive allocation strategy (FC, RR, FP, MU,
// FP-MU, and the offline-optimal DP) and prints a side-by-side report:
// quality gained, post tasks wasted on over-tagged resources, and how many
// resources remain under-tagged.
//
//   ./build/examples/crowdsourcing_campaign --n=400 --budget=1500 --omega=5
#include <cstdio>
#include <memory>
#include <vector>

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
#include "src/util/flags.h"

namespace {

struct Row {
  std::string name;
  incentag::core::AllocationMetrics metrics;
  double seconds = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace incentag;

  int64_t n = 400;
  int64_t budget = 1500;
  int64_t omega = 5;
  int64_t seed = 42;
  bool run_dp = true;
  util::FlagSet flags;
  flags.AddInt("n", &n, "number of resources to generate");
  flags.AddInt("budget", &budget, "reward units (post tasks) to spend");
  flags.AddInt("omega", &omega, "MA window for MU / FP-MU");
  flags.AddInt("seed", &seed, "corpus seed");
  flags.AddBool("dp", &run_dp, "also run the offline-optimal DP (slow)");
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
  auto dataset = sim::PrepareFromCorpus(corpus.value(), sim::PrepConfig{});
  if (!dataset.ok()) {
    std::fprintf(stderr, "prep: %s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const sim::PreparedDataset& ds = dataset.value();
  std::printf("campaign: %zu resources, budget %lld, omega %lld\n",
              ds.size(), static_cast<long long>(budget),
              static_cast<long long>(omega));

  core::EngineOptions options;
  options.budget = budget;
  options.omega = static_cast<int>(omega);
  core::AllocationEngine engine(options, &ds.initial_posts, &ds.references);

  auto run = [&](core::Strategy* strategy) -> Row {
    core::VectorPostStream stream = ds.MakeStream();
    auto report = engine.Run(strategy, &stream);
    if (!report.ok()) {
      std::fprintf(stderr, "%s: %s\n", std::string(strategy->name()).c_str(),
                   report.status().ToString().c_str());
      return Row{std::string(strategy->name()), {}, 0.0};
    }
    return Row{std::string(strategy->name()), report.value().final_metrics,
               report.value().elapsed_seconds};
  };

  std::vector<Row> rows;
  sim::CrowdModel crowd(ds.popularity, /*alpha=*/1.0, /*seed=*/99);
  core::FreeChoiceStrategy fc(crowd.MakePicker());
  core::RoundRobinStrategy rr;
  core::FewestPostsStrategy fp;
  core::MostUnstableStrategy mu;
  core::HybridFpMuStrategy fpmu;
  rows.push_back(run(&fc));
  rows.push_back(run(&rr));
  rows.push_back(run(&fp));
  rows.push_back(run(&mu));
  rows.push_back(run(&fpmu));

  if (run_dp) {
    auto plan = core::DpPlanner::Plan(ds.initial_posts, ds.references,
                                      ds.future_posts, budget);
    if (plan.ok()) {
      core::PlanStrategy dp(plan.value().allocation);
      rows.push_back(run(&dp));
    } else {
      std::fprintf(stderr, "DP skipped: %s\n",
                   plan.status().ToString().c_str());
    }
  }

  // The campaign's starting point for reference.
  core::EngineOptions zero = options;
  zero.budget = 0;
  core::AllocationEngine zero_engine(zero, &ds.initial_posts,
                                     &ds.references);
  core::RoundRobinStrategy noop;
  core::VectorPostStream zero_stream = ds.MakeStream();
  auto before = zero_engine.Run(&noop, &zero_stream);

  std::printf("\n%-6s  %8s  %8s  %8s  %12s  %10s\n", "strat", "quality",
              "gain%", "wasted", "under-tagged", "time(s)");
  if (before.ok()) {
    const auto& m = before.value().final_metrics;
    std::printf("%-6s  %8.4f  %8s  %8s  %12lld  %10s\n", "(start)",
                m.avg_quality, "-", "-",
                static_cast<long long>(m.under_tagged), "-");
    for (const Row& row : rows) {
      std::printf("%-6s  %8.4f  %+7.2f%%  %8lld  %12lld  %10.4f\n",
                  row.name.c_str(), row.metrics.avg_quality,
                  100.0 * (row.metrics.avg_quality / m.avg_quality - 1.0),
                  static_cast<long long>(row.metrics.wasted_posts),
                  static_cast<long long>(row.metrics.under_tagged),
                  row.seconds);
    }
  }
  std::printf(
      "\nReading the table: FP / FP-MU should track DP closely; FC burns\n"
      "budget on already-stable (over-tagged) resources, as in the paper.\n");
  return 0;
}

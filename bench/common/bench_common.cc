#include "bench/common/bench_common.h"

#include <cstdio>
#include <cstdlib>

#include "src/core/dp_planner.h"
#include "src/core/strategy_fc.h"
#include "src/core/strategy_fp.h"
#include "src/core/strategy_fpmu.h"
#include "src/core/strategy_mu.h"
#include "src/core/strategy_rr.h"
#include "src/util/logging.h"
#include "src/util/stopwatch.h"
#include "src/util/text.h"

namespace incentag {
namespace bench {

const char* const kPracticalStrategies[5] = {"FC", "RR", "FP", "MU",
                                             "FP-MU"};

std::unique_ptr<BenchDataset> MakeDataset(int64_t num_resources,
                                          uint64_t seed) {
  sim::CorpusConfig config;
  config.num_resources = num_resources;
  config.seed = seed;
  auto corpus = sim::Corpus::Generate(config);
  INCENTAG_CHECK(corpus.ok());
  auto out = std::make_unique<BenchDataset>();
  out->corpus = std::make_unique<sim::Corpus>(std::move(corpus).value());
  auto prep = sim::PrepareFromCorpus(*out->corpus, sim::PrepConfig{});
  INCENTAG_CHECK(prep.ok());
  out->dataset = std::move(prep).value();
  return out;
}

std::unique_ptr<core::Strategy> MakeStrategy(const std::string& name,
                                             sim::CrowdModel* crowd) {
  if (name == "FC") {
    INCENTAG_CHECK(crowd != nullptr);
    return std::make_unique<core::FreeChoiceStrategy>(crowd->MakePicker());
  }
  if (name == "RR") return std::make_unique<core::RoundRobinStrategy>();
  if (name == "FP") return std::make_unique<core::FewestPostsStrategy>();
  if (name == "MU") return std::make_unique<core::MostUnstableStrategy>();
  if (name == "FP-MU") return std::make_unique<core::HybridFpMuStrategy>();
  INCENTAG_LOG_ERROR("unknown strategy %s", name.c_str());
  std::abort();
}

core::RunReport RunAtBudget(const BenchDataset& bench_ds,
                            core::Strategy* strategy, int64_t budget,
                            int omega, std::vector<int64_t> checkpoints) {
  const sim::PreparedDataset& ds = bench_ds.dataset;
  core::EngineOptions options;
  options.budget = budget;
  options.omega = omega;
  options.checkpoints = std::move(checkpoints);
  core::AllocationEngine engine(options, &ds.initial_posts, &ds.references);
  core::VectorPostStream stream = ds.MakeStream();
  auto report = engine.Run(strategy, &stream);
  INCENTAG_CHECK(report.ok());
  return std::move(report).value();
}

core::RunReport RunDpAtBudget(const BenchDataset& bench_ds, int64_t budget,
                              int omega, double* plan_seconds) {
  const sim::PreparedDataset& ds = bench_ds.dataset;
  util::Stopwatch timer;
  auto plan = core::DpPlanner::Plan(ds.initial_posts, ds.references,
                                    ds.future_posts, budget);
  const double elapsed = timer.ElapsedSeconds();
  if (plan_seconds != nullptr) *plan_seconds = elapsed;
  INCENTAG_CHECK(plan.ok());
  core::PlanStrategy dp(plan.value().allocation);
  return RunAtBudget(bench_ds, &dp, budget, omega);
}

MetricSeries RunBudgetSweep(const BenchDataset& bench_ds,
                            const std::vector<int64_t>& budgets, int omega,
                            bool include_dp, uint64_t crowd_seed) {
  MetricSeries series;
  const int64_t max_budget = budgets.empty() ? 0 : budgets.back();
  sim::CrowdModel crowd(bench_ds.dataset.popularity, /*alpha=*/1.0,
                        crowd_seed);
  for (const char* name : kPracticalStrategies) {
    std::unique_ptr<core::Strategy> strategy = MakeStrategy(name, &crowd);
    core::RunReport report =
        RunAtBudget(bench_ds, strategy.get(), max_budget, omega, budgets);
    // Checkpoints align with `budgets` unless the run stopped early.
    series[name] = std::move(report.checkpoints);
    series[name].resize(budgets.size(),
                        series[name].empty() ? core::AllocationMetrics{}
                                             : series[name].back());
  }
  if (include_dp) {
    std::vector<core::AllocationMetrics>& dp_series = series["DP"];
    for (int64_t budget : budgets) {
      dp_series.push_back(
          RunDpAtBudget(bench_ds, budget, omega).final_metrics);
    }
  }
  return series;
}

void PrintMetricTable(
    const std::string& title, const std::vector<int64_t>& budgets,
    const MetricSeries& series,
    const std::function<double(const core::AllocationMetrics&)>& select,
    const char* value_format) {
  std::printf("\n%s\n", title.c_str());
  std::printf("%8s", "budget");
  for (const auto& [name, values] : series) {
    std::printf("  %10s", name.c_str());
  }
  std::printf("\n");
  for (size_t i = 0; i < budgets.size(); ++i) {
    std::printf("%8lld", static_cast<long long>(budgets[i]));
    for (const auto& [name, values] : series) {
      std::printf("  ");
      std::printf(value_format, select(values[i]));
    }
    std::printf("\n");
  }
}

core::PostStore BuildYearSequences(const sim::PreparedDataset& ds) {
  core::PostStore::Builder year;
  for (size_t i = 0; i < ds.size(); ++i) {
    year.AddPosts(ds.initial_posts[i]);
    year.AddPosts(ds.future_posts[i]);
    year.EndResource();
  }
  return std::move(year).Build();
}

std::vector<int64_t> CountsAfter(const sim::PreparedDataset& ds,
                                 const std::vector<int64_t>& allocation) {
  std::vector<int64_t> counts(ds.size());
  for (size_t i = 0; i < ds.size(); ++i) {
    counts[i] = static_cast<int64_t>(ds.initial_posts[i].size()) +
                (allocation.empty() ? 0 : allocation[i]);
  }
  return counts;
}

void RequireValidOmega(const char* flag, int64_t omega) {
  const util::Status status = core::ValidateOmega(omega);
  if (!status.ok()) {
    std::fprintf(stderr, "--%s: %s\n", flag, status.ToString().c_str());
    std::exit(2);
  }
}

std::vector<int64_t> ParseBudgetList(const std::string& csv) {
  std::vector<int64_t> budgets;
  for (std::string_view part : util::Split(csv, ',')) {
    auto value = util::ParseInt64(util::StripAsciiWhitespace(part));
    INCENTAG_CHECK(value.ok());
    budgets.push_back(value.value());
  }
  return budgets;
}

}  // namespace bench
}  // namespace incentag

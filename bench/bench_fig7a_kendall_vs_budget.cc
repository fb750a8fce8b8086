// Figure 7(a): overall accuracy of resource-resource similarity vs budget.
//
// All resource pairs are ranked by rfd cosine similarity and compared to
// the hierarchy ground truth with Kendall's tau. Paper shape: the curves
// mirror Figure 6(a) — FP / FP-MU improve the accuracy by ~7% over the
// starting point while FC stays flat.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/common/bench_common.h"
#include "bench/common/similarity_eval.h"
#include "src/util/flags.h"
#include "src/util/logging.h"

int main(int argc, char** argv) {
  using namespace incentag;

  int64_t n = 250;
  int64_t seed = 42;
  int64_t omega = 5;
  bool dp = true;
  std::string budget_csv = "0,250,500,750,1000,1250,1500";
  util::FlagSet flags;
  flags.AddInt("n", &n, "resources to generate");
  flags.AddInt("seed", &seed, "corpus seed");
  flags.AddInt("omega", &omega, "MA window for MU / FP-MU");
  flags.AddBool("dp", &dp, "include the offline-optimal DP");
  flags.AddString("budgets", &budget_csv, "comma-separated budget list");
  INCENTAG_CHECK(flags.Parse(argc, argv).ok());
  bench::RequireValidOmega("omega", omega);

  auto bench_ds = bench::MakeDataset(n, static_cast<uint64_t>(seed));
  bench::SimilarityEvaluator evaluator(*bench_ds);
  std::vector<int64_t> budgets = bench::ParseBudgetList(budget_csv);
  std::printf("Figure 7(a): Kendall tau of pair ranking vs budget "
              "(%zu resources, %zu pairs)\n",
              bench_ds->dataset.size(),
              bench_ds->dataset.size() * (bench_ds->dataset.size() - 1) / 2);

  std::map<std::string, std::vector<double>> tau;
  sim::CrowdModel crowd(bench_ds->dataset.popularity, 1.0, 99);
  for (const char* name : bench::kPracticalStrategies) {
    for (int64_t budget : budgets) {
      auto strategy = bench::MakeStrategy(name, &crowd);
      core::RunReport report = bench::RunAtBudget(
          *bench_ds, strategy.get(), budget, static_cast<int>(omega));
      tau[name].push_back(evaluator.RankingAccuracy(report.allocation));
    }
  }
  if (dp) {
    for (const core::RunReport& report :
         bench::RunDpSweep(*bench_ds, budgets, static_cast<int>(omega))) {
      tau["DP"].push_back(evaluator.RankingAccuracy(report.allocation));
    }
  }

  std::printf("\n%8s", "budget");
  for (const auto& [name, values] : tau) std::printf("  %10s", name.c_str());
  std::printf("\n");
  for (size_t i = 0; i < budgets.size(); ++i) {
    std::printf("%8lld", static_cast<long long>(budgets[i]));
    for (const auto& [name, values] : tau) {
      std::printf("  %10.4f", values[i]);
    }
    std::printf("\n");
  }
  std::printf("\nexpected shape: mirrors Figure 6(a); FP / FP-MU gain "
              "most, FC is nearly flat (paper Fig. 7(a))\n");
  return 0;
}

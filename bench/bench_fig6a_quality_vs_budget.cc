// Figure 6(a): tagging quality vs budget for every strategy.
//
// Paper shape: DP best (+9.1% at B = 10,000 on 5,000 resources); FP and
// FP-MU nearly optimal, with FP-MU edging ahead once its warm-up can
// finish; RR intermediate; MU limited (it ignores <omega-post resources);
// FC nearly flat (+0.4%).
#include <cstdio>
#include <string>

#include "bench/common/bench_common.h"
#include "src/util/flags.h"
#include "src/util/logging.h"

int main(int argc, char** argv) {
  using namespace incentag;

  int64_t n = 400;
  int64_t seed = 42;
  int64_t omega = 5;
  bool dp = true;
  std::string budget_csv = "0,250,500,750,1000,1250,1500,1750,2000";
  util::FlagSet flags;
  flags.AddInt("n", &n, "resources to generate");
  flags.AddInt("seed", &seed, "corpus seed");
  flags.AddInt("omega", &omega, "MA window for MU / FP-MU");
  flags.AddBool("dp", &dp, "include the offline-optimal DP");
  flags.AddString("budgets", &budget_csv, "comma-separated budget list");
  INCENTAG_CHECK(flags.Parse(argc, argv).ok());
  bench::RequireValidOmega("omega", omega);

  auto bench_ds = bench::MakeDataset(n, static_cast<uint64_t>(seed));
  std::vector<int64_t> budgets = bench::ParseBudgetList(budget_csv);
  std::printf("Figure 6(a): quality vs budget (%zu resources, omega=%lld)\n",
              bench_ds->dataset.size(), static_cast<long long>(omega));

  bench::MetricSeries series = bench::RunBudgetSweep(
      *bench_ds, budgets, static_cast<int>(omega), dp);
  bench::PrintMetricTable(
      "q(R, c+x) after spending the budget:", budgets, series,
      [](const core::AllocationMetrics& m) { return m.avg_quality; });
  std::printf("\nexpected shape: DP >= FP-MU ~= FP >> RR > MU > FC "
              "(paper Fig. 6(a))\n");
  return 0;
}

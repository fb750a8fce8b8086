// Figure 6(b): number of over-tagged resources vs budget.
//
// Paper shape: the count rises under FC (and mildly under RR), because
// they keep feeding resources that already passed their stable points; the
// targeted strategies leave it flat.
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
  std::printf("Figure 6(b): over-tagged resources vs budget "
              "(%zu resources)\n",
              bench_ds->dataset.size());

  bench::MetricSeries series = bench::RunBudgetSweep(
      *bench_ds, budgets, static_cast<int>(omega), dp);
  bench::PrintMetricTable(
      "resources past their stable point:", budgets, series,
      [](const core::AllocationMetrics& m) {
        return static_cast<double>(m.over_tagged);
      },
      "%10.0f");
  std::printf("\nexpected shape: grows under FC and RR, flat under "
              "FP / MU / FP-MU / DP (paper Fig. 6(b))\n");
  return 0;
}

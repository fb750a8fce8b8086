// Figure 6(d): percentage of under-tagged resources vs budget.
//
// Paper shape: ~25% of resources start under-tagged (<= 10 posts). FC
// barely helps (taggers ignore the unpopular tail); RR is marginally
// better; MU helps early; FP is flat then drops to zero in a cliff once
// its water-filling brings every resource past the threshold; DP declines
// gradually; FP-MU sits between FP and MU.
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
  const double nd = static_cast<double>(bench_ds->dataset.size());
  std::printf("Figure 6(d): under-tagged percentage vs budget "
              "(%zu resources, threshold 10 posts)\n",
              bench_ds->dataset.size());

  bench::MetricSeries series = bench::RunBudgetSweep(
      *bench_ds, budgets, static_cast<int>(omega), dp);
  bench::PrintMetricTable(
      "% of resources with <= 10 posts:", budgets, series,
      [nd](const core::AllocationMetrics& m) {
        return 100.0 * static_cast<double>(m.under_tagged) / nd;
      },
      "%9.1f%%");
  std::printf("\nexpected shape: FC worst; FP drops in a cliff once its "
              "water level passes the threshold (paper Fig. 6(d))\n");
  return 0;
}

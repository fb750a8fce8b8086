// Figure 6(c): wasted post tasks vs budget.
//
// A task is wasted when it lands on a resource that has already passed its
// stable point. Paper shape: FC wastes ~48% of its tasks; RR wastes some;
// the targeted strategies essentially none.
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
  std::printf("Figure 6(c): wasted post tasks vs budget (%zu resources)\n",
              bench_ds->dataset.size());

  bench::MetricSeries series = bench::RunBudgetSweep(
      *bench_ds, budgets, static_cast<int>(omega), dp);
  bench::PrintMetricTable(
      "post tasks spent on over-tagged resources:", budgets, series,
      [](const core::AllocationMetrics& m) {
        return static_cast<double>(m.wasted_posts);
      },
      "%10.0f");

  // The headline percentage at the largest budget.
  const auto& fc = series.at("FC");
  if (!fc.empty() && budgets.back() > 0) {
    std::printf("\nFC wasted %.1f%% of its tasks at B=%lld "
                "(paper: ~48%%)\n",
                100.0 * static_cast<double>(fc.back().wasted_posts) /
                    static_cast<double>(budgets.back()),
                static_cast<long long>(budgets.back()));
  }
  return 0;
}

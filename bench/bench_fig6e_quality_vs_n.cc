// Figure 6(e): tagging quality vs number of resources, fixed budget.
//
// Paper shape: with a fixed budget, quality decreases as the resource set
// grows (each resource receives fewer tasks); FP and FP-MU stay closest to
// DP at every size.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/common/bench_common.h"
#include "src/util/flags.h"
#include "src/util/logging.h"

int main(int argc, char** argv) {
  using namespace incentag;

  int64_t budget = 1000;
  int64_t seed = 42;
  int64_t omega = 5;
  bool dp = true;
  std::string sizes_csv = "100,200,300,400,500";
  util::FlagSet flags;
  flags.AddInt("budget", &budget, "fixed budget");
  flags.AddInt("seed", &seed, "corpus seed");
  flags.AddInt("omega", &omega, "MA window for MU / FP-MU");
  flags.AddBool("dp", &dp, "include the offline-optimal DP");
  flags.AddString("sizes", &sizes_csv, "comma-separated resource counts");
  INCENTAG_CHECK(flags.Parse(argc, argv).ok());
  bench::RequireValidOmega("omega", omega);

  std::vector<int64_t> sizes = bench::ParseBudgetList(sizes_csv);
  std::printf("Figure 6(e): quality vs #resources at B=%lld\n",
              static_cast<long long>(budget));

  std::map<std::string, std::vector<double>> quality;
  std::vector<size_t> kept_sizes;
  for (int64_t n : sizes) {
    auto bench_ds = bench::MakeDataset(n, static_cast<uint64_t>(seed));
    kept_sizes.push_back(bench_ds->dataset.size());
    sim::CrowdModel crowd(bench_ds->dataset.popularity, 1.0, 99);
    for (const char* name : bench::kPracticalStrategies) {
      auto strategy = bench::MakeStrategy(name, &crowd);
      quality[name].push_back(
          bench::RunAtBudget(*bench_ds, strategy.get(), budget,
                             static_cast<int>(omega))
              .final_metrics.avg_quality);
    }
    if (dp) {
      quality["DP"].push_back(
          bench::RunDpAtBudget(*bench_ds, budget, static_cast<int>(omega))
              .final_metrics.avg_quality);
    }
  }

  std::printf("\n%8s  %8s", "n(gen)", "n(kept)");
  for (const auto& [name, values] : quality) {
    std::printf("  %10s", name.c_str());
  }
  std::printf("\n");
  for (size_t i = 0; i < sizes.size(); ++i) {
    std::printf("%8lld  %8zu", static_cast<long long>(sizes[i]),
                kept_sizes[i]);
    for (const auto& [name, values] : quality) {
      std::printf("  %10.4f", values[i]);
    }
    std::printf("\n");
  }
  std::printf("\nexpected shape: every curve declines with n; FP / FP-MU "
              "closest to DP (paper Fig. 6(e))\n");
  return 0;
}

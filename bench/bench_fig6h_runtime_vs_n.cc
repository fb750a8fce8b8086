// Figure 6(h): allocation runtime vs number of resources, fixed budget.
//
// Paper shape: all practical strategies scale gently with n (heap
// operations are O(log n)); DP scales linearly in n but from a base that
// is orders of magnitude higher.
#include <cstdio>
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
  std::string sizes_csv = "100,200,400,800";
  util::FlagSet flags;
  flags.AddInt("budget", &budget, "fixed budget");
  flags.AddInt("seed", &seed, "corpus seed");
  flags.AddInt("omega", &omega, "MA window for MU / FP-MU");
  flags.AddBool("dp", &dp, "include the offline-optimal DP");
  flags.AddString("sizes", &sizes_csv, "comma-separated resource counts");
  INCENTAG_CHECK(flags.Parse(argc, argv).ok());
  bench::RequireValidOmega("omega", omega);

  std::vector<int64_t> sizes = bench::ParseBudgetList(sizes_csv);
  std::printf("Figure 6(h): runtime vs #resources at B=%lld\n",
              static_cast<long long>(budget));

  std::printf("\n%8s  %8s", "n(gen)", "n(kept)");
  for (const char* name : bench::kPracticalStrategies) {
    std::printf("  %10s", name);
  }
  if (dp) std::printf("  %10s", "DP");
  std::printf("\n");

  for (int64_t n : sizes) {
    auto bench_ds = bench::MakeDataset(n, static_cast<uint64_t>(seed));
    std::printf("%8lld  %8zu", static_cast<long long>(n),
                bench_ds->dataset.size());
    sim::CrowdModel crowd(bench_ds->dataset.popularity, 1.0, 99);
    for (const char* name : bench::kPracticalStrategies) {
      auto strategy = bench::MakeStrategy(name, &crowd);
      core::RunReport report = bench::RunAtBudget(
          *bench_ds, strategy.get(), budget, static_cast<int>(omega));
      std::printf("  %9.4fs", report.elapsed_seconds);
    }
    if (dp) {
      double plan_seconds = 0.0;
      (void)bench::RunDpAtBudget(*bench_ds, budget,
                                 static_cast<int>(omega), &plan_seconds);
      std::printf("  %9.4fs", plan_seconds);
    }
    std::printf("\n");
  }
  std::printf("\nexpected shape: practical strategies scale gently with "
              "n; DP is orders of magnitude slower (paper Fig. 6(h))\n");
  return 0;
}

// Figure 6(f): effect of the MA window omega on MU and FP-MU.
//
// Paper shape: MU's quality falls as omega grows (more resources lack an
// MA score and are ignored). FP-MU's warm-up grows with omega; beyond a
// crossover it consumes the whole budget and FP-MU degenerates to exactly
// FP (the flat reference line).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common/bench_common.h"
#include "src/util/flags.h"
#include "src/util/logging.h"

int main(int argc, char** argv) {
  using namespace incentag;

  int64_t n = 400;
  int64_t seed = 42;
  int64_t budget = 1000;
  std::string omegas_csv = "2,4,6,8,10,12,14,16";
  util::FlagSet flags;
  flags.AddInt("n", &n, "resources to generate");
  flags.AddInt("seed", &seed, "corpus seed");
  flags.AddInt("budget", &budget, "fixed budget");
  flags.AddString("omegas", &omegas_csv, "comma-separated omega values");
  INCENTAG_CHECK(flags.Parse(argc, argv).ok());

  auto bench_ds = bench::MakeDataset(n, static_cast<uint64_t>(seed));
  std::vector<int64_t> omegas = bench::ParseBudgetList(omegas_csv);
  for (int64_t omega : omegas) bench::RequireValidOmega("omegas", omega);
  std::printf("Figure 6(f): effect of omega at B=%lld (%zu resources)\n",
              static_cast<long long>(budget), bench_ds->dataset.size());

  // FP ignores omega: one run provides the reference line.
  auto fp = bench::MakeStrategy("FP", nullptr);
  const double fp_quality =
      bench::RunAtBudget(*bench_ds, fp.get(), budget, /*omega=*/5)
          .final_metrics.avg_quality;

  std::printf("\n%8s  %10s  %10s  %10s\n", "omega", "MU", "FP-MU", "FP");
  for (int64_t omega : omegas) {
    auto mu = bench::MakeStrategy("MU", nullptr);
    auto fpmu = bench::MakeStrategy("FP-MU", nullptr);
    const double mu_quality =
        bench::RunAtBudget(*bench_ds, mu.get(), budget,
                           static_cast<int>(omega))
            .final_metrics.avg_quality;
    const double fpmu_quality =
        bench::RunAtBudget(*bench_ds, fpmu.get(), budget,
                           static_cast<int>(omega))
            .final_metrics.avg_quality;
    std::printf("%8lld  %10.4f  %10.4f  %10.4f\n",
                static_cast<long long>(omega), mu_quality, fpmu_quality,
                fp_quality);
  }
  std::printf("\nexpected shape: MU declines with omega; FP-MU converges "
              "to the FP line once warm-up swallows the budget "
              "(paper Fig. 6(f))\n");
  return 0;
}

// Figure 6(g): allocation runtime vs budget (log-log in the paper).
//
// Paper shape: DP's planning time grows quadratically with B (3,000+
// seconds at B = 10,000 on 2013 hardware) while the practical strategies
// stay near-linear and orders of magnitude faster. FP-MU tracks FP while
// the warm-up lasts and MU beyond it.
//
// DP is only run up to --dp_budget_cap (its O(n B^2) planning would
// otherwise dominate the harness); larger budgets print "-".
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
  int64_t omega = 5;
  int64_t dp_budget_cap = 2000;
  std::string budget_csv = "1000,2000,4000,8000,16000";
  util::FlagSet flags;
  flags.AddInt("n", &n, "resources to generate");
  flags.AddInt("seed", &seed, "corpus seed");
  flags.AddInt("omega", &omega, "MA window for MU / FP-MU");
  flags.AddInt("dp_budget_cap", &dp_budget_cap,
               "largest budget at which DP is planned");
  flags.AddString("budgets", &budget_csv, "comma-separated budget list");
  INCENTAG_CHECK(flags.Parse(argc, argv).ok());
  bench::RequireValidOmega("omega", omega);

  auto bench_ds = bench::MakeDataset(n, static_cast<uint64_t>(seed));
  std::vector<int64_t> budgets = bench::ParseBudgetList(budget_csv);
  std::printf("Figure 6(g): runtime vs budget (%zu resources)\n",
              bench_ds->dataset.size());

  std::printf("\n%8s", "budget");
  for (const char* name : bench::kPracticalStrategies) {
    std::printf("  %10s", name);
  }
  std::printf("  %10s\n", "DP");
  sim::CrowdModel crowd(bench_ds->dataset.popularity, 1.0, 99);
  for (int64_t budget : budgets) {
    std::printf("%8lld", static_cast<long long>(budget));
    for (const char* name : bench::kPracticalStrategies) {
      auto strategy = bench::MakeStrategy(name, &crowd);
      core::RunReport report = bench::RunAtBudget(
          *bench_ds, strategy.get(), budget, static_cast<int>(omega));
      std::printf("  %9.4fs", report.elapsed_seconds);
    }
    if (budget <= dp_budget_cap) {
      double plan_seconds = 0.0;
      (void)bench::RunDpAtBudget(*bench_ds, budget,
                                 static_cast<int>(omega), &plan_seconds);
      std::printf("  %9.4fs", plan_seconds);
    } else {
      std::printf("  %10s", "-");
    }
    std::printf("\n");
  }
  std::printf("\nexpected shape: practical strategies near-linear in B; "
              "DP quadratic and orders of magnitude slower "
              "(paper Fig. 6(g))\n");
  return 0;
}

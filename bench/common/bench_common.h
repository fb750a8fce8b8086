// Shared plumbing for the experiment harnesses under bench/.
//
// Every figure/table binary follows the same skeleton: build a corpus,
// prepare the dataset, run strategies at one or more budgets, print the
// series the paper plots. This header centralises that skeleton so each
// binary only contains its experiment's specifics.
#ifndef INCENTAG_BENCH_COMMON_BENCH_COMMON_H_
#define INCENTAG_BENCH_COMMON_BENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/allocation.h"
#include "src/core/strategy.h"
#include "src/sim/crowd.h"
#include "src/sim/dataset_prep.h"
#include "src/sim/generator.h"

namespace incentag {
namespace bench {

// A generated corpus plus its prepared dataset (the corpus must stay alive
// for lazy streams and category lookups).
struct BenchDataset {
  std::unique_ptr<sim::Corpus> corpus;
  sim::PreparedDataset dataset;
};

// Builds the standard experiment dataset; aborts with a message on
// configuration errors (benches have no caller to propagate to).
std::unique_ptr<BenchDataset> MakeDataset(int64_t num_resources,
                                          uint64_t seed);

// The five practical strategies, in the paper's presentation order.
extern const char* const kPracticalStrategies[5];

// Instantiates a practical strategy by name ("FC" needs `crowd`).
std::unique_ptr<core::Strategy> MakeStrategy(const std::string& name,
                                             sim::CrowdModel* crowd);

// Runs `strategy` on a fresh stream of `bench_ds` with the given budget.
// Aborts on engine errors.
core::RunReport RunAtBudget(const BenchDataset& bench_ds,
                            core::Strategy* strategy, int64_t budget,
                            int omega,
                            std::vector<int64_t> checkpoints = {});

// Plans DP for `budget` and executes the plan through the engine so its
// metrics are measured identically to the online strategies. `plan_seconds`
// (optional) receives the planning wall-clock, which dominates DP's cost
// and is what Figure 6(g)/(h) report.
core::RunReport RunDpAtBudget(const BenchDataset& bench_ds, int64_t budget,
                              int omega, double* plan_seconds = nullptr);

// Plans DP for every budget from one table (core::DpPlanner::PlanSweep)
// and executes each plan through the engine; reports[i] is budgets[i]'s.
std::vector<core::RunReport> RunDpSweep(const BenchDataset& bench_ds,
                                        const std::vector<int64_t>& budgets,
                                        int omega);

// Metrics per strategy per budget: series[strategy][i] corresponds to
// budgets[i]. Practical strategies run once with checkpoints; DP is an
// offline algorithm optimising for a specific B, so each budget gets its
// own plan, all from one sweep (RunDpSweep).
using MetricSeries = std::map<std::string, std::vector<core::AllocationMetrics>>;
MetricSeries RunBudgetSweep(const BenchDataset& bench_ds,
                            const std::vector<int64_t>& budgets, int omega,
                            bool include_dp, uint64_t crowd_seed = 99);

// Prints one table row per budget with one column per strategy, where the
// cell value is extracted by `select`.
void PrintMetricTable(
    const std::string& title, const std::vector<int64_t>& budgets,
    const MetricSeries& series,
    const std::function<double(const core::AllocationMetrics&)>& select,
    const char* value_format = "%10.4f");

// Parses budgets of the form "0,500,1000"; aborts on malformed input.
std::vector<int64_t> ParseBudgetList(const std::string& csv);

// Checks an --omega (or one --omegas) value at parse time: prints the
// flag and core::ValidateOmega's message to stderr and exits 2 unless
// the value is a valid MA window.
void RequireValidOmega(const char* flag, int64_t omega);

// Full year sequences (initial + future) of a prepared dataset, used to
// build rfd snapshots at arbitrary post counts.
core::PostStore BuildYearSequences(const sim::PreparedDataset& ds);

// Post counts after a campaign: initial + allocation (empty allocation =
// the January state).
std::vector<int64_t> CountsAfter(const sim::PreparedDataset& ds,
                                 const std::vector<int64_t>& allocation);

}  // namespace bench
}  // namespace incentag

#endif  // INCENTAG_BENCH_COMMON_BENCH_COMMON_H_

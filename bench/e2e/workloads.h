// Running the workloads: one round is a fresh manager (plus, for the
// HTTP workloads, a server and its tagger connections) driving one fleet
// to completion inside the timed phase, then checking every report.
// Isolation passes drive a single layer's public API alone.
#ifndef INCENTAG_BENCH_E2E_WORKLOADS_H_
#define INCENTAG_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bench/e2e/fleet.h"
#include "bench/e2e/measure.h"

namespace incentag {
namespace e2e {

struct RoundContext {
  const WorkloadSpec* spec = nullptr;
  const Dataset* dataset = nullptr;
  const References* references = nullptr;
  // Journals of round k go to <work_dir>/journals-<k>.
  std::string work_dir;
  // Steady-clock deadline (obs::NowNs) after which waits give up and the
  // round fails instead of hanging.
  uint64_t deadline_ns = 0;
  // Time ReadJournal over the journals of recovered rounds (traced runs).
  bool read_journals = false;
};

// Everything the measured rounds of one phase add up to.
struct Tally {
  int rounds = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t completions = 0;  // Σ tasks_completed: what was applied
  double wall_s = 0.0;      // Σ timed phases (first Submit .. WaitAll)
  std::vector<double> round_wall_s;
  std::vector<Window> windows;  // the timed phases
  std::vector<double> round_completions;
  std::vector<double> prepare_s;    // dataset preparation before each round
  // Manager (+ intake, server) construction, connects and campaign configs.
  std::vector<double> construct_s;
  std::vector<double> makespan_s;
  std::vector<double> submit_ms;
  std::vector<double> list_us;
  std::vector<double> pull_ms;
  std::vector<double> post_ms;
  std::vector<double> read_ms;
  double client_rtt_us = 0.0;  // Σ round trips of every HTTP request
  int64_t client_requests = 0;
  int64_t pulls = 0;
  int64_t empty_pulls = 0;
  int64_t http_body_bytes = 0;
  int64_t disk_bytes = 0;
  std::vector<double> recover_s;
  int64_t records_replayed = 0;
  double journal_read_bytes = 0.0;
  double journal_read_s = 0.0;
  std::vector<std::string> errors;
  ObsDelta obs;

  void Fail(std::string error);
};

// Runs one round of `fleet` and adds it to `tally`. `round` numbers the
// journal directory. With `recover`, the round's journals are recovered
// on a fresh manager (workloads that recover) and read back with
// ReadJournal (ctx.read_journals) — both outside the clock.
void RunRound(const RoundContext& ctx, std::span<const CampaignSpec> fleet,
              int round, bool recover, Tally* tally);

// Isolation passes (traced run only): each drives one layer's public API
// alone with the workload's inputs and adds its metrics to `out`.
void RunIsolation(const RoundContext& ctx, MetricTable* out,
                  std::vector<std::string>* errors);

}  // namespace e2e
}  // namespace incentag

#endif  // INCENTAG_BENCH_E2E_WORKLOADS_H_

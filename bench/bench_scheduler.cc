// Scheduler policies under a mixed-class fleet: time-to-completion per
// class (p50/p99) and deadline-miss rate for round-robin, priority and
// EDF stepping.
//
// The fleet models the production mix the scheduler subsystem exists
// for: a large background tier (priority 1, no deadline, big budgets)
// submitted first, and a small critical tier (high priority, tight
// deadline, small budgets) submitted last — the worst case for FIFO
// round-robin, where critical campaigns queue behind the whole
// background tier.
//
// Deadlines are machine-portable: a calibration run (round-robin, no
// deadlines) measures the fleet's wall time T on this machine, and every
// critical campaign then gets deadline = T * --deadline_frac. Under
// round-robin the critical tier finishes near T and misses; under EDF it
// finishes after roughly its own share of the work and meets the same
// deadline. The JSON gates on that gap (miss_rate_advantage, and the
// critical-tier p99 speedup), not on absolute seconds.
//
//   ./build/bench/bench_scheduler --n=200 --background=24 --critical=8
//       --json=bench_scheduler.json
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/common/bench_common.h"
#include "src/core/strategy_fp.h"
#include "src/core/strategy_fpmu.h"
#include "src/core/strategy_mu.h"
#include "src/core/strategy_rr.h"
#include "src/service/campaign_manager.h"
#include "src/util/flags.h"
#include "src/util/logging.h"
#include "src/util/stopwatch.h"

namespace {

using namespace incentag;

std::unique_ptr<core::Strategy> MixedStrategy(int index) {
  switch (index % 4) {
    case 0:
      return std::make_unique<core::RoundRobinStrategy>();
    case 1:
      return std::make_unique<core::FewestPostsStrategy>();
    case 2:
      return std::make_unique<core::MostUnstableStrategy>();
    default:
      return std::make_unique<core::HybridFpMuStrategy>();
  }
}

struct ClassStats {
  double p50 = 0.0;
  double p99 = 0.0;
};

struct FleetResult {
  ClassStats background;
  ClassStats critical;
  double miss_rate = 0.0;  // critical campaigns finishing past deadline
  double wall_seconds = 0.0;
};

ClassStats Percentiles(std::vector<double> ttc) {
  ClassStats stats;
  if (ttc.empty()) return stats;
  std::sort(ttc.begin(), ttc.end());
  stats.p50 = ttc[ttc.size() / 2];
  stats.p99 = ttc[std::min(ttc.size() - 1,
                           static_cast<size_t>(0.99 * ttc.size()))];
  return stats;
}

// Runs the mixed fleet under `policy`. `deadline_seconds` == 0 is the
// calibration shape: identical workload, no deadlines.
FleetResult RunFleet(const bench::BenchDataset& bench_ds,
                     service::SchedulerPolicy policy, int64_t background,
                     int64_t critical, int64_t budget,
                     int64_t critical_budget, int64_t threads,
                     int64_t critical_priority, double deadline_seconds) {
  const sim::PreparedDataset& ds = bench_ds.dataset;
  service::ManagerOptions options;
  options.num_threads = static_cast<int>(threads);
  options.tasks_per_step = 64;
  options.scheduler.policy = policy;
  // Relax the hard starvation bound so the bench measures the policies'
  // separation, not the anti-starvation backstop: at the default (64
  // skips) the background tier starts preempting mid-drain and pulls
  // every policy toward round-robin. Tests cover the backstop itself.
  options.scheduler.starvation_limit = 4096;
  service::CampaignManager manager(options);

  // Build every config before submitting anything: interleaving strategy
  // construction with Submit would drip-feed the fleet (each campaign
  // finishing before the next arrives) instead of contending for the
  // workers.
  std::vector<service::CampaignConfig> configs;
  for (int64_t i = 0; i < background + critical; ++i) {
    const bool is_critical = i >= background;
    service::CampaignConfig config;
    config.name = (is_critical ? "critical-" : "background-") +
                  std::to_string(is_critical ? i - background : i);
    config.options.budget = is_critical ? critical_budget : budget;
    config.options.omega = 5;
    config.options.batch_size = 32;
    config.options.priority =
        is_critical ? static_cast<int32_t>(critical_priority) : 1;
    config.options.deadline_seconds = is_critical ? deadline_seconds : 0.0;
    config.initial_posts = &ds.initial_posts;
    config.references = &ds.references;
    config.strategy = MixedStrategy(static_cast<int>(i));
    config.stream = std::make_unique<core::VectorPostStream>(ds.MakeStream());
    configs.push_back(std::move(config));
  }

  util::Stopwatch timer;
  // Background tier first: FIFO round-robin serves it first, which is
  // exactly the anti-pattern deadline scheduling exists to fix.
  for (service::CampaignConfig& config : configs) {
    auto id = manager.Submit(std::move(config));
    INCENTAG_CHECK(id.ok());
  }
  manager.WaitAll();

  FleetResult result;
  result.wall_seconds = timer.ElapsedSeconds();
  std::vector<double> background_ttc;
  std::vector<double> critical_ttc;
  int64_t misses = 0;
  service::ListQuery all;
  all.limit = service::ListQuery::kMaxLimit;
  for (const service::CampaignStatus& s : manager.List(all).statuses) {
    INCENTAG_CHECK(s.state == service::CampaignState::kDone);
    const double ttc = s.queue_delay_seconds + s.elapsed_seconds;
    const bool is_critical = s.name.rfind("critical-", 0) == 0;
    (is_critical ? critical_ttc : background_ttc).push_back(ttc);
    // deadline_slack_seconds froze when the campaign went terminal.
    if (is_critical && deadline_seconds > 0.0 &&
        s.deadline_slack_seconds < 0.0) {
      ++misses;
    }
  }
  result.background = Percentiles(std::move(background_ttc));
  result.critical = Percentiles(std::move(critical_ttc));
  result.miss_rate = critical > 0
                         ? static_cast<double>(misses) /
                               static_cast<double>(critical)
                         : 0.0;
  manager.Shutdown();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  int64_t n = 200;
  int64_t seed = 42;
  int64_t background = 24;
  int64_t critical = 8;
  int64_t budget = 6000;
  int64_t critical_budget = 2000;
  int64_t threads = 2;
  int64_t critical_priority = 8;
  double deadline_frac = 0.4;
  std::string json_path;
  util::FlagSet flags;
  flags.AddInt("n", &n, "resources to generate");
  flags.AddInt("seed", &seed, "corpus seed");
  flags.AddInt("background", &background,
               "background campaigns (priority 1, no deadline)");
  flags.AddInt("critical", &critical,
               "critical campaigns (high priority, deadlined, submitted "
               "last)");
  flags.AddInt("budget", &budget, "reward units per background campaign");
  flags.AddInt("critical_budget", &critical_budget,
               "reward units per critical campaign");
  flags.AddInt("threads", &threads,
               "worker threads (kept small so the fleet contends)");
  flags.AddInt("critical_priority", &critical_priority,
               "priority weight of the critical tier");
  flags.AddDouble("deadline_frac", &deadline_frac,
                  "critical deadline as a fraction of the calibrated "
                  "round-robin fleet wall time");
  flags.AddString("json", &json_path,
                  "also write results as JSON to this file (the CI "
                  "perf-trajectory artifact)");
  std::string log_level = "warn";
  flags.AddString("log_level", &log_level,
                  "stderr verbosity: debug|info|warn|error|none");
  INCENTAG_CHECK(flags.Parse(argc, argv).ok());
  util::LogLevel level;
  INCENTAG_CHECK(util::ParseLogLevel(log_level, &level));
  util::SetLogLevel(level);
  if (threads < 1) threads = 1;

  auto bench_ds = bench::MakeDataset(n, static_cast<uint64_t>(seed));
  std::printf(
      "scheduler fleet: %lld background x budget %lld + %lld critical x "
      "budget %lld, %lld threads, %zu resources\n",
      static_cast<long long>(background), static_cast<long long>(budget),
      static_cast<long long>(critical),
      static_cast<long long>(critical_budget),
      static_cast<long long>(threads), bench_ds->dataset.size());

  // Calibrate the deadline on this machine: the same fleet under plain
  // round-robin with no deadlines.
  FleetResult calibration =
      RunFleet(*bench_ds, service::SchedulerPolicy::kRoundRobin, background,
               critical, budget, critical_budget, threads, critical_priority,
               /*deadline_seconds=*/0.0);
  const double deadline_seconds = calibration.wall_seconds * deadline_frac;
  std::printf("calibration: fleet wall %.3fs -> critical deadline %.3fs\n",
              calibration.wall_seconds, deadline_seconds);

  const service::SchedulerPolicy policies[] = {
      service::SchedulerPolicy::kRoundRobin,
      service::SchedulerPolicy::kPriority,
      service::SchedulerPolicy::kDeadline,
  };
  std::printf("%10s  %12s  %12s  %12s  %12s  %10s  %10s\n", "policy",
              "crit p50", "crit p99", "bg p50", "bg p99", "miss rate",
              "wall s");
  FleetResult results[3];
  for (int i = 0; i < 3; ++i) {
    results[i] = RunFleet(*bench_ds, policies[i], background, critical,
                          budget, critical_budget, threads,
                          critical_priority, deadline_seconds);
    std::printf("%10s  %12.4f  %12.4f  %12.4f  %12.4f  %9.0f%%  %10.3f\n",
                service::SchedulerPolicyName(policies[i]),
                results[i].critical.p50, results[i].critical.p99,
                results[i].background.p50, results[i].background.p99,
                100.0 * results[i].miss_rate, results[i].wall_seconds);
  }
  const FleetResult& rr = results[0];
  const FleetResult& edf = results[2];
  const double advantage = rr.miss_rate - edf.miss_rate;
  // p50 is the jitter-robust gated metric (p99 of a small critical tier
  // is a single-sample max and too noisy for shared CI runners).
  const double p50_speedup =
      edf.critical.p50 > 0.0 ? rr.critical.p50 / edf.critical.p50 : 0.0;
  const double p99_speedup =
      edf.critical.p99 > 0.0 ? rr.critical.p99 / edf.critical.p99 : 0.0;
  std::printf(
      "deadline-miss advantage (rr - edf): %.3f; critical speedup "
      "(rr/edf): p50 %.2fx, p99 %.2fx\n",
      advantage, p50_speedup, p99_speedup);

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    INCENTAG_CHECK(out != nullptr);
    std::fprintf(out,
                 "{\"bench\":\"scheduler\",\"n\":%lld,\"background\":%lld,"
                 "\"critical\":%lld,\"budget\":%lld,"
                 "\"critical_budget\":%lld,\"threads\":%lld,"
                 "\"critical_priority\":%lld,\"deadline_frac\":%g,"
                 "\"calibration_seconds\":%.6f,"
                 "\"deadline_seconds\":%.6f,\"policies\":{",
                 static_cast<long long>(n),
                 static_cast<long long>(background),
                 static_cast<long long>(critical),
                 static_cast<long long>(budget),
                 static_cast<long long>(critical_budget),
                 static_cast<long long>(threads),
                 static_cast<long long>(critical_priority), deadline_frac,
                 calibration.wall_seconds, deadline_seconds);
    for (int i = 0; i < 3; ++i) {
      std::fprintf(
          out,
          "%s\"%s\":{\"critical_p50\":%.6f,\"critical_p99\":%.6f,"
          "\"background_p50\":%.6f,\"background_p99\":%.6f,"
          "\"deadline_miss_rate\":%.4f,\"wall_seconds\":%.6f}",
          i == 0 ? "" : ",", service::SchedulerPolicyName(policies[i]),
          results[i].critical.p50, results[i].critical.p99,
          results[i].background.p50, results[i].background.p99,
          results[i].miss_rate, results[i].wall_seconds);
    }
    std::fprintf(out,
                 "},\"rr_miss_rate\":%.4f,\"edf_miss_rate\":%.4f,"
                 "\"miss_rate_advantage\":%.4f,"
                 "\"critical_p50_speedup\":%.4f,"
                 "\"critical_p99_speedup\":%.4f}\n",
                 rr.miss_rate, edf.miss_rate, advantage, p50_speedup,
                 p99_speedup);
    std::fclose(out);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

// Service-layer throughput: aggregate completed tasks/sec of the
// concurrent CampaignManager as a function of worker thread count and
// campaign count.
//
// Each configuration submits `campaigns` mixed-strategy campaigns (RR,
// FP, MU, FP-MU round-robin) over one shared prepared dataset and drives
// them to completion. With --latency_us=0 (default) completions are
// inline, so the sweep isolates the manager's scheduling overhead and
// scaling; with a positive latency the CrowdLoadGenerator's tagger
// threads complete tasks asynchronously and out of order, exercising the
// reorder path under realistic crowd timing.
//
//   ./build/bench/bench_service_throughput --n=300 --campaigns=32
//       --budget=2000 --threads=8
//
// The thread sweep runs 1,2,4,... up to --threads (default: hardware
// concurrency). The paper's Figure 6(g)/(h) timing discipline applies:
// dataset preparation is outside the clock, only Submit..WaitAll is
// timed.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/common/bench_common.h"
#include "src/core/strategy_fp.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/core/strategy_fpmu.h"
#include "src/core/strategy_mu.h"
#include "src/core/strategy_rr.h"
#include "src/service/campaign_manager.h"
#include "src/sim/load_generator.h"
#include "src/util/flags.h"
#include "src/util/logging.h"
#include "src/util/stopwatch.h"
#include "src/util/text.h"

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

struct SweepResult {
  int threads = 0;
  int64_t tasks = 0;
  double seconds = 0.0;
  // Journal fsyncs the group-commit sink performed (0 unjournaled); the
  // coalescing win is tasks >> syncs.
  int64_t journal_syncs = 0;
};

// The fleet-wide sink fsync counter (the ISSUE 6/7 replacement for the
// removed CampaignStatus::journal_syncs alias). Cumulative across the
// process; RunOnce reads it before and after to get a per-run delta.
int64_t JournalSyncsTotal() {
  static obs::Counter* syncs = obs::Registry::Default().GetCounter(
      "incentag_persist_journal_syncs_total",
      "Journal fsyncs performed by the group-commit sink");
  return syncs->Value();
}

SweepResult RunOnce(const bench::BenchDataset& bench_ds, int threads,
                    int64_t campaigns, int64_t budget, int64_t batch,
                    int64_t taggers, double latency_us,
                    const std::string& journal_dir) {
  const sim::PreparedDataset& ds = bench_ds.dataset;
  const int64_t syncs_before = JournalSyncsTotal();

  std::unique_ptr<sim::CrowdLoadGenerator> crowd;
  service::ManagerOptions options;
  options.num_threads = threads;
  options.journal_dir = journal_dir;
  if (taggers > 0) {
    sim::LoadGeneratorOptions load_options;
    load_options.num_taggers = static_cast<int>(taggers);
    load_options.mean_latency_us = latency_us;
    load_options.seed = 31;
    crowd = std::make_unique<sim::CrowdLoadGenerator>(load_options);
    options.completions = crowd.get();
  }
  service::CampaignManager manager(options);

  util::Stopwatch timer;
  for (int64_t i = 0; i < campaigns; ++i) {
    service::CampaignConfig config;
    config.name = "bench-" + std::to_string(i);
    config.options.budget = budget;
    config.options.omega = 5;
    config.options.batch_size = batch;
    config.initial_posts = &ds.initial_posts;
    config.references = &ds.references;
    config.strategy = MixedStrategy(static_cast<int>(i));
    config.stream = std::make_unique<core::VectorPostStream>(ds.MakeStream());
    auto id = manager.Submit(std::move(config));
    INCENTAG_CHECK(id.ok());
  }
  manager.WaitAll();
  SweepResult result;
  result.seconds = timer.ElapsedSeconds();
  result.threads = manager.num_threads();
  service::ListQuery all;
  all.limit = service::ListQuery::kMaxLimit;
  for (const service::CampaignStatus& status : manager.List(all).statuses) {
    INCENTAG_CHECK(status.state == service::CampaignState::kDone);
    result.tasks += status.tasks_completed;
  }
  if (crowd != nullptr) crowd->Stop();
  manager.Shutdown();
  // After Shutdown the sink has drained, so the delta covers every fsync
  // this run performed.
  result.journal_syncs = JournalSyncsTotal() - syncs_before;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  int64_t n = 300;
  int64_t seed = 42;
  int64_t budget = 2000;
  int64_t campaigns = 32;
  int64_t batch = 32;
  int64_t threads = 0;
  int64_t taggers = 0;
  double latency_us = 0.0;
  std::string batch_sweep_list;
  std::string journal_dir;
  std::string json_path;
  std::string metrics_json;
  std::string log_level = "warn";
  util::FlagSet flags;
  flags.AddInt("n", &n, "resources to generate");
  flags.AddInt("seed", &seed, "corpus seed");
  flags.AddInt("budget", &budget, "reward units per campaign");
  flags.AddInt("campaigns", &campaigns, "concurrent campaigns");
  flags.AddInt("batch", &batch, "tasks assigned per campaign batch");
  util::AddThreadsFlag(&flags, &threads);
  flags.AddInt("taggers", &taggers,
               "tagger threads (0 = inline completions)");
  flags.AddDouble("latency_us", &latency_us,
                  "mean simulated tagger latency, microseconds");
  flags.AddString("journal_dir", &journal_dir,
                  "enable the write-ahead journal in this directory "
                  "('' = journaling off) to measure its overhead");
  flags.AddString("batch_sweep", &batch_sweep_list,
                  "comma-separated assignment batch sizes to sweep at max "
                  "threads — how burst-shaped the completion pipeline is "
                  "per campaign step; reports tasks/sec per size");
  flags.AddString("json", &json_path,
                  "also write the sweep results as JSON to this file "
                  "(the CI perf-trajectory artifact)");
  flags.AddString("metrics_json", &metrics_json,
                  "write the fleet obs metrics snapshot (plus the "
                  "fsync_p99_ms gate value) as JSON to this file");
  flags.AddString("log_level", &log_level,
                  "stderr verbosity: debug|info|warn|error|none");
  INCENTAG_CHECK(flags.Parse(argc, argv).ok());
  util::LogLevel level;
  INCENTAG_CHECK(util::ParseLogLevel(log_level, &level));
  util::SetLogLevel(level);
  if (threads < 1) threads = 1;

  auto bench_ds = bench::MakeDataset(n, static_cast<uint64_t>(seed));
  std::printf(
      "service throughput: %lld campaigns x budget %lld, batch %lld, "
      "%zu resources%s\n",
      static_cast<long long>(campaigns), static_cast<long long>(budget),
      static_cast<long long>(batch), bench_ds->dataset.size(),
      taggers > 0 ? " (crowd-completed)" : " (inline completions)");
  std::printf("%8s  %12s  %10s  %12s  %8s\n", "threads", "tasks", "seconds",
              "tasks/sec", "speedup");

  // Powers of two up to --threads, plus --threads itself when it is not
  // one (the requested max always runs).
  std::vector<int64_t> sweep;
  for (int64_t t = 1; t <= threads; t *= 2) sweep.push_back(t);
  if (sweep.empty() || sweep.back() != threads) sweep.push_back(threads);

  double base_rate = 0.0;
  std::vector<SweepResult> results;
  std::vector<double> rates;
  for (int64_t t : sweep) {
    SweepResult result =
        RunOnce(*bench_ds, static_cast<int>(t), campaigns, budget, batch,
                taggers, latency_us, journal_dir);
    const double rate =
        result.seconds > 0.0
            ? static_cast<double>(result.tasks) / result.seconds
            : 0.0;
    if (base_rate == 0.0) base_rate = rate;
    std::printf("%8d  %12lld  %10.3f  %12.0f  %7.2fx\n", result.threads,
                static_cast<long long>(result.tasks), result.seconds, rate,
                base_rate > 0.0 ? rate / base_rate : 0.0);
    results.push_back(result);
    rates.push_back(rate);
  }

  // Journaled runs also measure the durability tax:
  // journaled_inline_ratio = journaled / inline tasks-per-sec at max
  // threads over the same fleet and dataset, best-of-3 on both sides —
  // the same estimator for numerator and denominator, so scheduler
  // noise cannot bias the ratio (single ~50ms fleet runs jitter +-15%
  // on shared machines). The gathered-append + group-commit design is
  // only a win if this stays near 1.0; CI holds a hard >= 0.85 floor
  // (see check_regression.py).
  double journaled_inline_ratio = 0.0;
  if (!journal_dir.empty()) {
    auto run_rate = [&](const std::string& dir) {
      SweepResult r =
          RunOnce(*bench_ds, static_cast<int>(threads), campaigns,
                  budget, batch, taggers, latency_us, dir);
      return r.seconds > 0.0
                 ? static_cast<double>(r.tasks) / r.seconds
                 : 0.0;
    };
    // Best-of-5 per side, reps interleaved so a load spike on the
    // host taxes both estimates instead of biasing one. The thread
    // sweep already produced the first journaled max-thread sample.
    double journaled_rate = rates.empty() ? 0.0 : rates.back();
    double inline_rate = 0.0;
    for (int i = 0; i < 5; ++i) {
      if (i > 0) {
        journaled_rate = std::max(journaled_rate, run_rate(journal_dir));
      }
      inline_rate = std::max(inline_rate, run_rate(""));
    }
    journaled_inline_ratio =
        inline_rate > 0.0 ? journaled_rate / inline_rate : 0.0;
    std::printf(
        "\njournaled_inline_ratio: %.3f "
        "(journaled %.0f / inline %.0f tasks/sec at %lld threads, "
        "best of 5)\n",
        journaled_inline_ratio, journaled_rate, inline_rate,
        static_cast<long long>(threads));
  }

  // The assignment-batch sweep at max threads: how much the batched
  // completion pipeline — span delivery, single-lock inbox, vectorized
  // apply, batched journal appends — gains as the per-step burst grows.
  struct SweepEntry {
    int64_t value = 0;  // the assignment batch size
    int64_t tasks = 0;
    double rate = 0.0;
    int64_t syncs = 0;
  };
  std::vector<SweepEntry> assign_sweep;
  if (!batch_sweep_list.empty()) {
    std::printf("\nassignment batch sweep (%lld threads):\n",
                static_cast<long long>(threads));
    std::printf("%10s  %12s  %12s\n", "batch", "tasks/sec", "fsyncs");
    for (std::string_view part : util::Split(batch_sweep_list, ',')) {
      part = util::StripAsciiWhitespace(part);
      if (part.empty()) continue;
      auto parsed = util::ParseInt64(part);
      INCENTAG_CHECK(parsed.ok() && parsed.value() > 0);
      SweepResult result =
          RunOnce(*bench_ds, static_cast<int>(threads), campaigns, budget,
                  parsed.value(), taggers, latency_us, journal_dir);
      SweepEntry entry;
      entry.value = parsed.value();
      entry.tasks = result.tasks;
      entry.rate = result.seconds > 0.0
                       ? static_cast<double>(result.tasks) / result.seconds
                       : 0.0;
      entry.syncs = result.journal_syncs;
      assign_sweep.push_back(entry);
    }
    for (const SweepEntry& entry : assign_sweep) {
      std::printf("%10lld  %12.0f  %12lld\n",
                  static_cast<long long>(entry.value), entry.rate,
                  static_cast<long long>(entry.syncs));
    }
  }

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    INCENTAG_CHECK(out != nullptr);
    // Journaled runs are a distinct bench identity with their own
    // baseline and gates (the ratio below); unjournaled output is
    // byte-compatible with pre-ISSUE-9 "service_throughput" JSONs.
    std::fprintf(out,
                 "{\"bench\":\"%s\",\"n\":%lld,"
                 "\"campaigns\":%lld,\"budget\":%lld,\"batch\":%lld,"
                 "\"taggers\":%lld,\"latency_us\":%g,\"journaled\":%s,",
                 journal_dir.empty() ? "service_throughput"
                                     : "service_throughput_journaled",
                 static_cast<long long>(n),
                 static_cast<long long>(campaigns),
                 static_cast<long long>(budget),
                 static_cast<long long>(batch),
                 static_cast<long long>(taggers), latency_us,
                 journal_dir.empty() ? "false" : "true");
    if (!journal_dir.empty()) {
      std::fprintf(out, "\"journaled_inline_ratio\":%.4f,",
                   journaled_inline_ratio);
    }
    std::fprintf(out, "\"results\":[");
    for (size_t i = 0; i < results.size(); ++i) {
      std::fprintf(out,
                   "%s{\"threads\":%d,\"tasks\":%lld,\"seconds\":%.6f,"
                   "\"tasks_per_sec\":%.1f,\"speedup\":%.3f,"
                   "\"journal_syncs\":%lld}",
                   i == 0 ? "" : ",", results[i].threads,
                   static_cast<long long>(results[i].tasks),
                   results[i].seconds, rates[i],
                   base_rate > 0.0 ? rates[i] / base_rate : 0.0,
                   static_cast<long long>(results[i].journal_syncs));
    }
    std::fprintf(out, "]");
    if (!assign_sweep.empty()) {
      std::fprintf(out, ",\"batch_sweep\":[");
      for (size_t i = 0; i < assign_sweep.size(); ++i) {
        std::fprintf(out,
                     "%s{\"batch\":%lld,\"tasks\":%lld,"
                     "\"tasks_per_sec\":%.1f,\"journal_syncs\":%lld}",
                     i == 0 ? "" : ",",
                     static_cast<long long>(assign_sweep[i].value),
                     static_cast<long long>(assign_sweep[i].tasks),
                     assign_sweep[i].rate,
                     static_cast<long long>(assign_sweep[i].syncs));
      }
      std::fprintf(out, "]");
    }
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (!metrics_json.empty()) {
    // The obs snapshot covers the whole process (all sweep points); the
    // fsync p99 is hoisted to the top level for check_regression.py's
    // "metrics" gate. 0 when the run was unjournaled.
    const obs::MetricsSnapshot snapshot =
        obs::Registry::Default().Snapshot();
    const obs::HistogramSample* fsync =
        snapshot.FindHistogram("incentag_persist_fsync_seconds");
    std::FILE* out = std::fopen(metrics_json.c_str(), "w");
    INCENTAG_CHECK(out != nullptr);
    std::fprintf(out,
                 "{\"bench\":\"metrics\",\"fsync_p99_ms\":%.6f,"
                 "\"fsync_count\":%llu,\"metrics\":%s}\n",
                 fsync == nullptr ? 0.0 : fsync->Quantile(0.99) * 1000.0,
                 static_cast<unsigned long long>(
                     fsync == nullptr ? 0 : fsync->count),
                 snapshot.RenderJson().c_str());
    std::fclose(out);
    std::printf("wrote %s\n", metrics_json.c_str());
  }
  return 0;
}

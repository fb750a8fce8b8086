// Recovery-time bench: how long does it take to resurrect a journaled
// campaign, with and without checkpointed compaction (journal format v2)?
//
// A campaign of --budget tasks is journaled to completion twice — once
// plain (the PR 2 format: one CompletionRecord per applied task forever)
// and once with --compact_bytes snapshot compaction. Each journal is then
// recovered by a fresh CampaignManager and the wall-clock of Recover(),
// the number of tail records replayed, and the final reports are
// compared. Compaction must show an order-of-magnitude reduction in
// replayed records with byte-identical reports — that is the acceptance
// bar this binary gates in CI (bench/check_regression.py).
//
//   ./build/bench/bench_recovery --n=600 --budget=50000
//       --compact_bytes=52500 --json=bench_recovery.json
//
// --compact_bytes defaults to 2500 framed completions
// (persist::kFramedCompletionBytes each), 52,500 bytes.
//
// The paper's Figure 6(g)/(h) timing discipline applies: dataset
// preparation and the recorded runs are outside the clock; only
// Recover() is timed.
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/common/bench_common.h"
#include "src/core/strategy_fp.h"
#include "src/persist/journal.h"
#include "src/service/campaign_manager.h"
#include "src/util/flags.h"
#include "src/util/logging.h"
#include "src/util/stopwatch.h"

namespace {

using namespace incentag;
namespace fs = std::filesystem;

core::EngineOptions MakeOptions(int64_t budget) {
  core::EngineOptions options;
  options.budget = budget;
  options.omega = 5;
  options.batch_size = 32;
  options.checkpoints = {budget / 4, budget / 2, budget};
  return options;
}

service::CampaignConfig MakeConfig(const bench::BenchDataset& bench_ds,
                                   int64_t budget) {
  const sim::PreparedDataset& ds = bench_ds.dataset;
  service::CampaignConfig config;
  config.name = "recovery-bench";
  config.options = MakeOptions(budget);
  config.initial_posts = &ds.initial_posts;
  config.references = &ds.references;
  config.strategy = std::make_unique<core::FewestPostsStrategy>();
  config.stream = std::make_unique<core::VectorPostStream>(ds.MakeStream());
  return config;
}

// Journals one full campaign run into `dir` (deterministic mode: the
// whole run happens inside Submit, compactions inline).
void RecordRun(const bench::BenchDataset& bench_ds, int64_t budget,
               const std::string& dir, int64_t compact_bytes) {
  service::ManagerOptions options;
  options.deterministic = true;
  options.journal_dir = dir;
  options.compact_journal_bytes = compact_bytes;
  service::CampaignManager manager(options);
  auto id = manager.Submit(MakeConfig(bench_ds, budget));
  INCENTAG_CHECK(id.ok());
  auto report = manager.Wait(id.value());
  INCENTAG_CHECK(report.ok());
  manager.Shutdown();
}

struct RecoveryResult {
  double recovery_seconds = 0.0;
  int64_t records_replayed = 0;
  core::RunReport report;
};

RecoveryResult RecoverDir(const bench::BenchDataset& bench_ds,
                          const std::string& dir) {
  const sim::PreparedDataset& ds = bench_ds.dataset;
  service::ManagerOptions options;
  options.deterministic = true;
  service::CampaignManager manager(options);
  util::Stopwatch timer;
  auto ids = manager.Recover(
      dir,
      [&ds](const persist::SubmitRecord& record)
          -> util::Result<service::CampaignConfig> {
        service::CampaignConfig config;
        config.name = record.name;
        config.options = record.options;
        config.initial_posts = &ds.initial_posts;
        config.references = &ds.references;
        if (record.strategy_name != "FP") {
          return util::Status::InvalidArgument("unexpected strategy " +
                                               record.strategy_name);
        }
        config.strategy = std::make_unique<core::FewestPostsStrategy>();
        config.stream =
            std::make_unique<core::VectorPostStream>(ds.MakeStream());
        return config;
      });
  RecoveryResult result;
  result.recovery_seconds = timer.ElapsedSeconds();
  INCENTAG_CHECK(ids.ok());
  INCENTAG_CHECK(ids.value().size() == 1);
  auto report = manager.Wait(ids.value()[0]);
  INCENTAG_CHECK(report.ok());
  result.report = std::move(report).value();
  auto status = manager.Status(ids.value()[0]);
  INCENTAG_CHECK(status.ok());
  result.records_replayed = status.value().records_replayed;
  return result;
}

bool ReportsIdentical(const core::RunReport& a, const core::RunReport& b) {
  auto metrics_equal = [](const core::AllocationMetrics& x,
                          const core::AllocationMetrics& y) {
    return x.budget_used == y.budget_used && x.avg_quality == y.avg_quality &&
           x.over_tagged == y.over_tagged &&
           x.wasted_posts == y.wasted_posts &&
           x.under_tagged == y.under_tagged;
  };
  if (a.strategy_name != b.strategy_name || a.allocation != b.allocation ||
      a.budget_spent != b.budget_spent ||
      a.stopped_early != b.stopped_early ||
      a.checkpoints.size() != b.checkpoints.size() ||
      !metrics_equal(a.final_metrics, b.final_metrics)) {
    return false;
  }
  for (size_t i = 0; i < a.checkpoints.size(); ++i) {
    if (!metrics_equal(a.checkpoints[i], b.checkpoints[i])) return false;
  }
  return true;
}

int64_t JournalBytes(const std::string& dir) {
  int64_t total = 0;
  auto files = util::ListDirFiles(dir, ".journal");
  if (files.ok()) {
    for (const std::string& path : files.value()) {
      std::error_code ec;
      total += static_cast<int64_t>(fs::file_size(path, ec));
    }
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  int64_t n = 600;
  int64_t seed = 42;
  int64_t budget = 50000;
  int64_t compact_bytes = 2500 * persist::kFramedCompletionBytes;
  std::string work_dir;
  std::string json_path;
  util::FlagSet flags;
  flags.AddInt("n", &n, "resources to generate");
  flags.AddInt("seed", &seed, "corpus seed");
  flags.AddInt("budget", &budget, "reward units (journal trace length)");
  flags.AddInt("compact_bytes", &compact_bytes,
               "snapshot compaction interval, journal bytes (a framed "
               "completion is " +
                   std::to_string(persist::kFramedCompletionBytes) +
                   " bytes)");
  flags.AddString("dir", &work_dir,
                  "working directory for the journals "
                  "('' = a fresh directory under /tmp)");
  flags.AddString("json", &json_path,
                  "also write the results as JSON to this file "
                  "(the CI perf-gate artifact)");
  std::string log_level = "warn";
  flags.AddString("log_level", &log_level,
                  "stderr verbosity: debug|info|warn|error|none");
  INCENTAG_CHECK(flags.Parse(argc, argv).ok());
  util::LogLevel level;
  INCENTAG_CHECK(util::ParseLogLevel(log_level, &level));
  util::SetLogLevel(level);

  if (work_dir.empty()) {
    work_dir = (fs::temp_directory_path() / "incentag-bench-recovery")
                   .string();
  }
  const std::string plain_dir = work_dir + "/plain";
  const std::string compacted_dir = work_dir + "/compacted";
  fs::remove_all(work_dir);
  INCENTAG_CHECK(util::CreateDirectories(plain_dir).ok());
  INCENTAG_CHECK(util::CreateDirectories(compacted_dir).ok());

  auto bench_ds = bench::MakeDataset(n, static_cast<uint64_t>(seed));
  std::printf("recovery bench: budget %lld over %zu resources, "
              "compact_bytes=%lld\n",
              static_cast<long long>(budget), bench_ds->dataset.size(),
              static_cast<long long>(compact_bytes));

  RecordRun(*bench_ds, budget, plain_dir, /*compact_bytes=*/0);
  RecordRun(*bench_ds, budget, compacted_dir, compact_bytes);
  const int64_t plain_bytes = JournalBytes(plain_dir);
  const int64_t compacted_bytes = JournalBytes(compacted_dir);

  RecoveryResult plain = RecoverDir(*bench_ds, plain_dir);
  RecoveryResult compacted = RecoverDir(*bench_ds, compacted_dir);
  const bool identical = ReportsIdentical(plain.report, compacted.report);

  const double replay_reduction =
      compacted.records_replayed > 0
          ? static_cast<double>(plain.records_replayed) /
                static_cast<double>(compacted.records_replayed)
          : static_cast<double>(plain.records_replayed);
  const double recovery_speedup =
      compacted.recovery_seconds > 0.0
          ? plain.recovery_seconds / compacted.recovery_seconds
          : 0.0;

  std::printf("%12s  %16s  %16s  %14s\n", "journal", "recovery_seconds",
              "records_replayed", "journal_bytes");
  std::printf("%12s  %16.4f  %16lld  %14lld\n", "plain",
              plain.recovery_seconds,
              static_cast<long long>(plain.records_replayed),
              static_cast<long long>(plain_bytes));
  std::printf("%12s  %16.4f  %16lld  %14lld\n", "compacted",
              compacted.recovery_seconds,
              static_cast<long long>(compacted.records_replayed),
              static_cast<long long>(compacted_bytes));
  std::printf("replay reduction: %.1fx, recovery speedup: %.1fx, "
              "reports identical: %s\n",
              replay_reduction, recovery_speedup,
              identical ? "yes" : "NO");
  INCENTAG_CHECK(identical);

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    INCENTAG_CHECK(out != nullptr);
    std::fprintf(
        out,
        "{\"bench\":\"recovery\",\"n\":%lld,\"budget\":%lld,"
        "\"compact_bytes\":%lld,"
        "\"plain\":{\"recovery_seconds\":%.6f,\"records_replayed\":%lld,"
        "\"journal_bytes\":%lld},"
        "\"compacted\":{\"recovery_seconds\":%.6f,\"records_replayed\":%lld,"
        "\"journal_bytes\":%lld},"
        "\"replay_reduction\":%.3f,\"recovery_speedup\":%.3f,"
        "\"reports_identical\":%s}\n",
        static_cast<long long>(n), static_cast<long long>(budget),
        static_cast<long long>(compact_bytes), plain.recovery_seconds,
        static_cast<long long>(plain.records_replayed),
        static_cast<long long>(plain_bytes), compacted.recovery_seconds,
        static_cast<long long>(compacted.records_replayed),
        static_cast<long long>(compacted_bytes), replay_reduction,
        recovery_speedup, identical ? "true" : "false");
    std::fclose(out);
    std::printf("wrote %s\n", json_path.c_str());
  }
  fs::remove_all(work_dir);
  return 0;
}

// Crash-recovery, replay and teardown-robustness tests for the service
// layer (ISSUE 2): a journaled campaign killed mid-run and recovered by a
// fresh CampaignManager must produce a RunReport byte-identical to the
// uninterrupted deterministic run, a journal directory from an older
// build is refused rather than half-read, and no campaign may ever wedge
// in kRunning — a closed completion source fails it fast and WaitFor
// bounds every wait.
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/metrics.h"
#include "src/persist/journal.h"
#include "src/service/campaign_manager.h"
#include "src/sim/load_generator.h"
#include "src/util/file_io.h"
#include "src/util/random.h"
#include "tests/testing/campaign_fixture.h"

namespace incentag {
namespace service {
namespace {

namespace fs = std::filesystem;
using std::chrono::milliseconds;

// Inline source whose first SubmitTasks blocks until Release() — used to
// pin the single pool worker so a second campaign provably queues.
class BlockingCompletionSource : public CompletionSource {
 public:
  bool SubmitTasks(const std::vector<TaskHandle>& tasks,
                   const CompletionFn& done) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return released_; });
    }
    if (!tasks.empty()) done(std::span<const TaskHandle>(tasks));
    return true;
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
};

class RecoveryTest : public testing::CampaignTest<60, 20260729> {
 protected:
  // Runs campaign `kind` against a source that completes only
  // `kill_after` tasks, so the campaign wedges mid-run; tears the
  // manager down (the "kill"), leaving a journal whose trace ends
  // mid-campaign. Returns the journal directory.
  void KillMidRun(int kind, int64_t budget, uint64_t seed,
                  int64_t kill_after) {
    testing::LimitedCompletionSource source(kill_after);
    ManagerOptions options;
    options.num_threads = 2;
    options.tasks_per_step = 8;
    options.completions = &source;
    options.journal_dir = dir_.string();
    CampaignManager manager(options);
    auto id = manager.Submit(MakeConfig(kind, budget, seed));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    // The campaign can never finish: the source went silent. WaitFor
    // bounds the wait instead of hanging (the old Wait would never
    // return here).
    auto result = manager.WaitFor(id.value(), milliseconds(200));
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), util::StatusCode::kDeadlineExceeded);
    manager.Shutdown();  // the "kill": cancels and drops the campaign
  }

  struct Run {
    int kind;
    int64_t budget;
    uint64_t seed;
  };

  // Runs every campaign to completion in one deterministic journaled
  // manager; `journals` receives their journal paths in `runs` order.
  void JournalFinishedRuns(const std::vector<Run>& runs,
                           std::vector<std::string>* journals) {
    ManagerOptions options;
    options.deterministic = true;
    options.journal_dir = dir_.string();
    CampaignManager manager(options);
    for (const Run& run : runs) {
      auto id = manager.Submit(MakeConfig(run.kind, run.budget, run.seed));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      journals->push_back(
          (dir_ / ("campaign-" + std::to_string(id.value()) + ".journal"))
              .string());
    }
    manager.Shutdown();
  }

  // Future posts that differ per seed % 4: each resource's sequence
  // without its first seed % 4 + 1 posts, when it has more. Built on
  // first use and kept by the fixture, so a store outlives every manager.
  const core::PostStore* StoreFor(uint64_t seed) {
    const size_t drop = seed % 4 + 1;
    auto [it, inserted] = stores_.try_emplace(drop);
    if (inserted) {
      core::PostStore::Builder store;
      for (core::PostSequence sequence : dataset().future_posts) {
        store.AddPosts(sequence.size() > drop
                           ? sequence.Slice(drop, sequence.size())
                           : sequence);
        store.EndResource();
      }
      it->second = std::move(store).Build();
    }
    return &it->second;
  }

  std::map<size_t, core::PostStore> stores_;
};

// A kill after N completions, recovered by a fresh manager that resumes
// the campaign *live* on its thread pool with inline completions:
// recovery is not limited to deterministic mode. (Every strategy's
// journal, cut at seeded points and recovered, is recovery_cut_test.)
TEST_F(RecoveryTest, RecoverContinuesLiveOnThreadPool) {
  const int kind = 1;
  const int64_t budget = 400;
  const uint64_t seed = 1234;
  KillMidRun(kind, budget, seed, /*kill_after=*/150);

  ManagerOptions options;
  options.num_threads = 3;
  options.tasks_per_step = 16;
  CampaignManager recovered(options);
  auto ids = recovered.Recover(dir_.string(), Factory);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  ASSERT_EQ(ids.value().size(), 1u);
  auto result = recovered.WaitFor(ids.value()[0], milliseconds(10000));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().state, CampaignState::kDone);
  EXPECT_TRUE(testing::SameReport(Uninterrupted(kind, budget, seed),
                                  result.value().report)) << "live recovery";

  // The resumed journal now records the full campaign: a second recovery
  // replays it end-to-end to the same report again.
  recovered.Shutdown();
  ManagerOptions det;
  det.deterministic = true;
  CampaignManager again(det);
  auto ids2 = again.Recover(dir_.string(), Factory);
  ASSERT_TRUE(ids2.ok()) << ids2.status().ToString();
  ASSERT_EQ(ids2.value().size(), 1u);
  auto report2 = again.Wait(ids2.value()[0]);
  ASSERT_TRUE(report2.ok());
  EXPECT_TRUE(
      testing::SameReport(Uninterrupted(kind, budget, seed), report2.value()))
      << "second recovery";
}

// Recovered campaigns keep their pre-crash ids, and a Submit into the
// same journal directory afterwards gets a fresh id — it must never
// truncate a journal file a recovered campaign is still appending to.
TEST_F(RecoveryTest, RecoveredIdsAreStableAndNewSubmitsDoNotCollide) {
  const int kind = 1;
  const int64_t budget = 300;
  const uint64_t seed = 8;
  KillMidRun(kind, budget, seed, /*kill_after=*/100);

  ManagerOptions options;
  options.num_threads = 2;
  options.journal_dir = dir_.string();
  CampaignManager manager(options);
  // A failing factory aborts recovery before any side effects...
  auto failing = manager.Recover(
      dir_.string(),
      [](const persist::SubmitRecord&) -> util::Result<CampaignConfig> {
        return util::Status::InvalidArgument("factory not ready");
      });
  EXPECT_FALSE(failing.ok());
  EXPECT_EQ(manager.num_campaigns(), 0u);
  // ...as does a config that fails validation (MaTracker needs omega >= 2).
  auto bad_omega = manager.Recover(
      dir_.string(),
      [](const persist::SubmitRecord& submit) -> util::Result<CampaignConfig> {
        auto config = Factory(submit);
        if (config.ok()) config.value().options.omega = 1;
        return config;
      });
  EXPECT_EQ(bad_omega.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(manager.num_campaigns(), 0u);
  // ...so retrying with a working factory recovers cleanly.
  auto ids = manager.Recover(dir_.string(), Factory);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  ASSERT_EQ(ids.value().size(), 1u);
  EXPECT_EQ(ids.value()[0], 1u);  // the pre-crash id
  // An accidental repeat is a no-op: resumed journals are skipped.
  auto repeat = manager.Recover(dir_.string(), Factory);
  ASSERT_TRUE(repeat.ok()) << repeat.status().ToString();
  EXPECT_TRUE(repeat.value().empty());

  auto fresh = manager.Submit(MakeConfig(kind, budget, seed + 1));
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(fresh.value(), 2u);  // bumped past the recovered id
  auto r1 = manager.WaitFor(ids.value()[0], milliseconds(10000));
  auto r2 = manager.WaitFor(fresh.value(), milliseconds(10000));
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r1.value().state, CampaignState::kDone);
  EXPECT_EQ(r2.value().state, CampaignState::kDone);
  EXPECT_TRUE(testing::SameReport(Uninterrupted(kind, budget, seed),
                                  r1.value().report)) << "recovered";
  manager.Shutdown();

  // Both journals intact and complete after the mixed run.
  auto files = util::ListDirFiles(dir_.string(), ".journal");
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files.value().size(), 2u);
  for (const std::string& path : files.value()) {
    auto contents = persist::ReadJournal(path);
    ASSERT_TRUE(contents.ok()) << contents.status().ToString();
    EXPECT_TRUE(contents.value().tail_status.ok()) << path;
    EXPECT_TRUE(contents.value().has_submit) << path;
  }
}

// A journal name whose id a later Submit could not follow recovers under
// a fresh id: UINT64_MAX and UINT64_MAX - 1 would move the next Submits
// to id 0, the scheduler's "queue empty" value, under which a campaign
// never steps and Shutdown waits for ever; 25 digits overflow 64 bits.
TEST_F(RecoveryTest, JournalIdsPastTheIdRangeRecoverUnderFreshIds) {
  const int kind = 1;
  const int64_t budget = 300;
  const std::vector<std::string> names = {
      "campaign-18446744073709551615.journal",
      "campaign-18446744073709551614.journal",
      "campaign-1234567890123456789012345.journal"};
  for (size_t k = 0; k < names.size(); ++k) {
    KillMidRun(kind, budget, /*seed=*/8 + k, /*kill_after=*/100);
    fs::rename(dir_ / "campaign-1.journal", dir_ / names[k]);
  }

  ManagerOptions options;
  options.num_threads = 2;
  options.journal_dir = dir_.string();
  CampaignManager manager(options);
  auto ids = manager.Recover(dir_.string(), Factory);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  std::vector<CampaignId> recovered = ids.value();
  std::sort(recovered.begin(), recovered.end());
  EXPECT_EQ(recovered, (std::vector<CampaignId>{1, 2, 3}));
  std::vector<CampaignId> all = recovered;
  for (uint64_t seed : {20u, 21u}) {
    auto fresh = manager.Submit(MakeConfig(kind, budget, seed));
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    EXPECT_NE(fresh.value(), 0u);
    all.push_back(fresh.value());
  }
  EXPECT_EQ(all.back(), 5u);
  for (CampaignId id : all) {
    auto result = manager.WaitFor(id, milliseconds(10000));
    ASSERT_TRUE(result.ok()) << id << ": " << result.status().ToString();
    EXPECT_EQ(result.value().state, CampaignState::kDone) << id;
  }
  manager.Shutdown();
}

// Recovery is all or nothing: mid-journal damage in one file aborts
// Recover before any campaign is registered or any good journal is
// reopened, and once the bad file is gone both good journals resume to
// the reports of their uninterrupted runs.
TEST_F(RecoveryTest, MidJournalCorruptionAbortsRecoveryOfEveryJournal) {
  const std::vector<Run> runs = {{0, 240, 11}, {1, 260, 12}, {2, 280, 13}};
  std::vector<std::string> journals;
  JournalFinishedRuns(runs, &journals);
  ASSERT_EQ(journals.size(), 3u);
  // Tear the good journals mid-trace, so recovery resumes their spend
  // rather than only replaying it.
  std::vector<std::string> good_bytes;
  for (size_t i : {size_t{0}, size_t{2}}) {
    fs::resize_file(journals[i], fs::file_size(journals[i]) / 2);
    auto bytes = util::ReadFileToString(journals[i]);
    ASSERT_TRUE(bytes.ok());
    good_bytes.push_back(std::move(bytes).value());
  }
  // Flip a CRC byte of the middle journal's first completion record.
  // More records follow it, so this is corruption, not a torn tail.
  {
    auto bytes = util::ReadFileToString(journals[1]);
    ASSERT_TRUE(bytes.ok());
    std::string damaged = std::move(bytes).value();
    uint32_t submit_length = 0;
    for (int b = 0; b < 4; ++b) {
      submit_length |= static_cast<uint32_t>(
                           static_cast<unsigned char>(damaged[b]))
                       << (8 * b);
    }
    const size_t crc_byte = 8 + submit_length + 4;
    ASSERT_LT(crc_byte + 64, damaged.size());
    damaged[crc_byte] = static_cast<char>(damaged[crc_byte] ^ 0x5a);
    std::ofstream f(journals[1], std::ios::binary | std::ios::trunc);
    f.write(damaged.data(), static_cast<std::streamsize>(damaged.size()));
  }

  ManagerOptions options;
  options.deterministic = true;
  CampaignManager manager(options);
  auto failed = manager.Recover(dir_.string(), Factory);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), util::StatusCode::kCorruption)
      << failed.status().ToString();
  EXPECT_EQ(manager.num_campaigns(), 0u);
  // The journal before the damaged one was parsed but never reopened:
  // its torn tail is still there.
  auto first = util::ReadFileToString(journals[0]);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value(), good_bytes[0]);

  fs::remove(journals[1]);
  auto ids = manager.Recover(dir_.string(), Factory);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  ASSERT_EQ(ids.value().size(), 2u);
  const Run resumed[] = {runs[0], runs[2]};
  for (size_t k = 0; k < 2; ++k) {
    const Run& run = resumed[k];
    const std::string label = "kind " + std::to_string(run.kind);
    auto report = manager.Wait(ids.value()[k]);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(testing::SameReport(
        Uninterrupted(run.kind, run.budget, run.seed), report.value()))
        << label;
    auto status = manager.Status(ids.value()[k]);
    ASSERT_TRUE(status.ok());
    EXPECT_GT(status.value().records_replayed, 0) << label;
    EXPECT_LT(status.value().records_replayed, run.budget) << label;
  }
}

// Campaigns that finish during their own replay free their hold on the
// dataset's trajectory table. Recover keeps every table it used until it
// returns, so recovering several such journals on one dataset builds the
// table once, not once per journal.
TEST_F(RecoveryTest, RecoverBuildsEachTrajectoryTableOnce) {
  const std::vector<Run> runs = {{0, 200, 21}, {1, 220, 22}, {3, 240, 23}};
  std::vector<std::string> journals;
  JournalFinishedRuns(runs, &journals);
  ASSERT_EQ(journals.size(), 3u);

  obs::Counter* tables = obs::Registry::Default().GetCounter(
      "incentag_service_trajectory_tables_total", "");
  const int64_t before = tables->Value();
  ManagerOptions options;
  options.deterministic = true;
  CampaignManager recovered(options);
  auto ids = recovered.Recover(dir_.string(), Factory);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  ASSERT_EQ(ids.value().size(), 3u);
  EXPECT_EQ(tables->Value() - before, 1);
  for (size_t k = 0; k < runs.size(); ++k) {
    const Run& run = runs[k];
    auto result = recovered.WaitFor(ids.value()[k], milliseconds(1));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().state, CampaignState::kDone);
    EXPECT_TRUE(testing::SameReport(
        Uninterrupted(run.kind, run.budget, run.seed), result.value().report))
        << "kind " << run.kind;
  }
  // Every campaign is done, so the table went with Recover's pin.
  EXPECT_EQ(recovered.num_initial_states(), 0u);
}

// Recover asks the factory once per journal: phase 1 checks the config
// it returns and phase 2 replays that same config.
TEST_F(RecoveryTest, RecoverCallsTheFactoryOncePerJournal) {
  const std::vector<Run> runs = {{0, 200, 31}, {2, 220, 32}, {4, 240, 33}};
  std::vector<std::string> journals;
  JournalFinishedRuns(runs, &journals);
  ASSERT_EQ(journals.size(), 3u);

  std::map<uint64_t, int> calls;  // by journaled seed, one per run
  const auto counting = [&calls](const persist::SubmitRecord& record) {
    ++calls[record.seed];
    return Factory(record);
  };
  ManagerOptions options;
  options.num_threads = 2;
  CampaignManager recovered(options);
  auto ids = recovered.Recover(dir_.string(), counting);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  ASSERT_EQ(ids.value().size(), runs.size());
  EXPECT_EQ(calls.size(), runs.size());
  for (const Run& run : runs) EXPECT_EQ(calls[run.seed], 1) << run.seed;
  for (size_t k = 0; k < runs.size(); ++k) {
    const Run& run = runs[k];
    auto result = recovered.WaitFor(ids.value()[k], milliseconds(10000));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().state, CampaignState::kDone);
    EXPECT_TRUE(testing::SameReport(
        Uninterrupted(run.kind, run.budget, run.seed), result.value().report))
        << "kind " << run.kind;
  }
}

// Recover pins every trajectory table until it returns, so journals over
// one borrowed store share one table even when a campaign finishes
// during its replay, and a table is built once per store.
TEST_F(RecoveryTest, RecoverPinsOneTablePerBorrowedStore) {
  // Seeds 21 and 25 share a store (21 % 4 == 25 % 4); the rest differ.
  const std::vector<Run> runs = {{0, 200, 21}, {1, 220, 22}, {3, 240, 23},
                                 {0, 210, 25}};
  {
    ManagerOptions options;
    options.deterministic = true;
    options.journal_dir = dir_.string();
    CampaignManager manager(options);
    for (const Run& run : runs) {
      CampaignConfig config = MakeConfig(run.kind, run.budget, run.seed);
      config.stream = std::make_unique<core::VectorPostStream>(
          StoreFor(run.seed));
      ASSERT_TRUE(manager.Submit(std::move(config)).ok());
    }
    manager.Shutdown();
  }

  obs::Counter* tables = obs::Registry::Default().GetCounter(
      "incentag_service_trajectory_tables_total", "");
  const int64_t before = tables->Value();
  ManagerOptions options;
  options.deterministic = true;
  CampaignManager recovered(options);
  auto ids = recovered.Recover(
      dir_.string(),
      [&](const persist::SubmitRecord& record)
          -> util::Result<CampaignConfig> {
        auto config = Factory(record);
        if (config.ok()) {
          config.value().stream = std::make_unique<core::VectorPostStream>(
              StoreFor(record.seed));
        }
        return config;
      });
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  ASSERT_EQ(ids.value().size(), runs.size());
  EXPECT_EQ(tables->Value() - before, 3);
  EXPECT_EQ(recovered.num_initial_states(), 0u);
  for (size_t k = 0; k < runs.size(); ++k) {
    const Run& run = runs[k];
    std::shared_ptr<void> context;
    const testing::Spec spec =
        testing::KindSpec(run.kind, run.budget, run.seed);
    auto strategy = sim::MakeStrategyByName(
        spec.strategy, dataset().popularity, spec.seed, &context);
    core::AllocationEngine engine(spec.options, &dataset().initial_posts,
                                  &dataset().references);
    core::VectorPostStream stream(StoreFor(run.seed));
    auto want = engine.Run(strategy.get(), &stream);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    auto result = recovered.WaitFor(ids.value()[k], milliseconds(1));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().state, CampaignState::kDone);
    EXPECT_TRUE(testing::SameReport(want.value(), result.value().report))
        << "kind " << run.kind;
  }
}

// A crash tears bytes, not records: garbage appended past the last valid
// record (or a bit flip inside it) must not block recovery.
TEST_F(RecoveryTest, RecoveryToleratesTornJournalTail) {
  const int kind = 0;
  const int64_t budget = 300;
  const uint64_t seed = 5;
  KillMidRun(kind, budget, seed, /*kill_after=*/100);

  auto files = util::ListDirFiles(dir_.string(), ".journal");
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files.value().size(), 1u);
  {
    std::ofstream f(files.value()[0],
                    std::ios::binary | std::ios::app);
    f << "\x07torn-partial-frame";
  }

  ManagerOptions options;
  options.deterministic = true;
  CampaignManager recovered(options);
  auto ids = recovered.Recover(dir_.string(), Factory);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  ASSERT_EQ(ids.value().size(), 1u);
  auto report = recovered.Wait(ids.value()[0]);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(
      testing::SameReport(Uninterrupted(kind, budget, seed), report.value()))
      << "torn tail";

  // An empty journal (crash before the submit fsync) is skipped, not an
  // error, and does not disturb other journals in the directory.
  { std::ofstream f((dir_ / "campaign-99.journal").string()); }
  CampaignManager again(options);
  auto ids2 = again.Recover(dir_.string(), Factory);
  ASSERT_TRUE(ids2.ok()) << ids2.status().ToString();
  EXPECT_EQ(ids2.value().size(), 1u);
}

// Kill during JournalWriter::AppendCompletionBatch (ISSUE 5): the
// batched append makes a torn write land mid-quantum, tearing the file
// at an arbitrary byte inside a run of completion records. Recovery must
// truncate to the last whole record, replay the surviving prefix, and
// re-run the lost completions to a report byte-identical to the
// uninterrupted run — for cuts at every position inside a frame: header,
// payload, and across a record boundary.
TEST_F(RecoveryTest, KillDuringBatchAppendRecoversByteIdentically) {
  constexpr int64_t kFrameBytes = 21;  // 8 header + 13 completion payload
  const int kind = 0;
  const int64_t budget = 300;
  const uint64_t seed = 9;
  const core::RunReport want = Uninterrupted(kind, budget, seed);
  KillMidRun(kind, budget, seed, /*kill_after=*/100);

  auto files = util::ListDirFiles(dir_.string(), ".journal");
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files.value().size(), 1u);
  const std::string journal = files.value()[0];
  auto pristine = util::ReadFileToString(journal);
  ASSERT_TRUE(pristine.ok());
  const int64_t full = static_cast<int64_t>(pristine.value().size());

  // Cut back 1..2 whole frames plus every intra-frame offset.
  for (int64_t back = 1; back <= 2 * kFrameBytes - 1; back += 5) {
    {
      std::ofstream f(journal, std::ios::binary | std::ios::trunc);
      f.write(pristine.value().data(),
              static_cast<std::streamsize>(full - back));
    }
    ManagerOptions options;
    options.deterministic = true;
    CampaignManager recovered(options);
    auto ids = recovered.Recover(dir_.string(), Factory);
    ASSERT_TRUE(ids.ok())
        << "cut " << back << ": " << ids.status().ToString();
    ASSERT_EQ(ids.value().size(), 1u);
    auto report = recovered.Wait(ids.value()[0]);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(testing::SameReport(want, report.value()))
        << "torn batch, cut " << back;
  }
}

// A journal replayed against the wrong inputs (different seed => the
// strategy chooses differently) must fail that campaign loudly, not
// fabricate state.
TEST_F(RecoveryTest, DivergentJournalFinalizesAsFailed) {
  const int kind = 4;  // FC: seed-dependent choices
  KillMidRun(kind, /*budget=*/300, /*seed=*/42, /*kill_after=*/120);

  ManagerOptions options;
  options.deterministic = true;
  CampaignManager recovered(options);
  auto wrong_seed_factory = [](const persist::SubmitRecord& record)
      -> util::Result<CampaignConfig> {
    persist::SubmitRecord tweaked = record;
    tweaked.seed = record.seed + 1;
    return Factory(tweaked);
  };
  auto ids = recovered.Recover(dir_.string(), wrong_seed_factory);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  ASSERT_EQ(ids.value().size(), 1u);
  auto result = recovered.WaitFor(ids.value()[0], milliseconds(5000));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().state, CampaignState::kFailed);
  EXPECT_NE(result.value().error.find("diverged"), std::string::npos)
      << result.value().error;
}

// An explicit operator cancellation is journaled: Recover rebuilds the
// partial report but finalizes kCancelled instead of resuming the spend
// (a shutdown-interrupted campaign, by contrast, resumes — that is what
// the kill-and-recover tests above assert).
TEST_F(RecoveryTest, CancelledCampaignStaysCancelledAcrossRecovery) {
  const int kind = 1;
  const int64_t budget = 100000;
  const uint64_t seed = 4;
  {
    testing::LimitedCompletionSource source(50);
    ManagerOptions options;
    options.num_threads = 2;
    options.completions = &source;
    options.journal_dir = dir_.string();
    CampaignManager manager(options);
    auto id = manager.Submit(MakeConfig(kind, budget, seed));
    ASSERT_TRUE(id.ok());
    // Let it wedge at 50 completions, then cancel explicitly.
    auto running = manager.WaitFor(id.value(), milliseconds(200));
    EXPECT_FALSE(running.ok());
    ASSERT_TRUE(manager.Cancel(id.value()).ok());
    auto result = manager.WaitFor(id.value(), milliseconds(10000));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().state, CampaignState::kCancelled);
    manager.Shutdown();
  }

  ManagerOptions det;
  det.deterministic = true;
  CampaignManager recovered(det);
  auto ids = recovered.Recover(dir_.string(), Factory);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  ASSERT_EQ(ids.value().size(), 1u);
  auto result = recovered.WaitFor(ids.value()[0], milliseconds(1));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().state, CampaignState::kCancelled);
  EXPECT_TRUE(result.value().report.stopped_early);
  EXPECT_LT(result.value().report.budget_spent, budget);
  EXPECT_GT(result.value().report.budget_spent, 0);
}

// Older builds could leave a fleet commit log next to the journals whose
// patches carried acknowledged completions. Nothing applies it any more,
// so a non-empty one must refuse the directory — at construction (every
// journaled Submit fails) and in Recover — rather than recover a prefix
// silently short of what was acked.
TEST_F(RecoveryTest, NonEmptyLegacyCommitLogRefusesTheDirectory) {
  KillMidRun(/*kind=*/1, /*budget=*/300, /*seed=*/8, /*kill_after=*/100);
  const fs::path log = dir_ / "fleet-commit.log";
  { std::ofstream(log, std::ios::binary) << "acked patch bytes"; }

  ManagerOptions options;
  options.num_threads = 2;
  options.journal_dir = dir_.string();
  CampaignManager manager(options);
  auto submitted = manager.Submit(MakeConfig(0, 50, 1));
  ASSERT_FALSE(submitted.ok());
  EXPECT_EQ(submitted.status().code(), util::StatusCode::kFailedPrecondition);
  EXPECT_NE(submitted.status().ToString().find(log.string()),
            std::string::npos)
      << submitted.status().ToString();
  auto ids = manager.Recover(dir_.string(), Factory);
  ASSERT_FALSE(ids.ok());
  EXPECT_EQ(ids.status().code(), util::StatusCode::kFailedPrecondition);
  EXPECT_NE(ids.status().ToString().find(log.string()), std::string::npos)
      << ids.status().ToString();
  EXPECT_EQ(manager.num_campaigns(), 0u);
  manager.Shutdown();

  // Recover into a manager that journals elsewhere (or not at all) is
  // refused the same way; the log and the journal stay untouched.
  ManagerOptions det;
  det.deterministic = true;
  CampaignManager other(det);
  auto again = other.Recover(dir_.string(), Factory);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(fs::file_size(log), 17u);
  auto files = util::ListDirFiles(dir_.string(), ".journal");
  ASSERT_TRUE(files.ok());
  EXPECT_EQ(files.value().size(), 1u);
}

// The zero-length log a clean shutdown of an older build leaves holds
// nothing: it is removed, by the constructor and by Recover alike, and
// the journals recover byte-identically.
TEST_F(RecoveryTest, EmptyLegacyCommitLogIsRemoved) {
  const int kind = 2;
  const int64_t budget = 260;
  const uint64_t seed = 5;
  KillMidRun(kind, budget, seed, /*kill_after=*/90);
  const fs::path log = dir_ / "fleet-commit.log";
  { std::ofstream create(log, std::ios::binary); }
  ASSERT_TRUE(fs::exists(log));

  ManagerOptions det;
  det.deterministic = true;
  CampaignManager recovered(det);
  auto ids = recovered.Recover(dir_.string(), Factory);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  EXPECT_FALSE(fs::exists(log));
  ASSERT_EQ(ids.value().size(), 1u);
  auto report = recovered.Wait(ids.value()[0]);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(
      testing::SameReport(Uninterrupted(kind, budget, seed), report.value()))
      << "recovered past an empty legacy log";

  const fs::path fresh = dir_ / "fresh";
  ASSERT_TRUE(util::CreateDirectories(fresh.string()).ok());
  { std::ofstream create(fresh / "fleet-commit.log", std::ios::binary); }
  ManagerOptions journaled;
  journaled.deterministic = true;
  journaled.journal_dir = fresh.string();
  CampaignManager manager(journaled);
  EXPECT_FALSE(fs::exists(fresh / "fleet-commit.log"));
  auto id = manager.Submit(MakeConfig(kind, budget, seed));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
}

// ISSUE 2 satellite: a completion source that closes mid-campaign must
// finalize the campaign as kFailed("completion source closed"), never
// leave it kRunning forever.
TEST_F(RecoveryTest, ClosedCrowdFailsCampaignsInsteadOfWedging) {
  sim::LoadGeneratorOptions load_options;
  load_options.num_taggers = 2;
  load_options.mean_latency_us = 300.0;
  load_options.seed = 3;
  sim::CrowdLoadGenerator crowd(load_options);
  ManagerOptions options;
  options.num_threads = 2;
  options.completions = &crowd;
  CampaignManager manager(options);
  std::vector<CampaignId> ids;
  for (int i = 0; i < 4; ++i) {
    auto id = manager.Submit(MakeConfig(i, 1000000, 21));
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  // Let some tasks flow, then close the crowd under the campaigns.
  std::this_thread::sleep_for(milliseconds(30));
  crowd.Stop();
  for (CampaignId id : ids) {
    auto result = manager.WaitFor(id, milliseconds(10000));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().state, CampaignState::kFailed);
    EXPECT_NE(result.value().error.find("completion source closed"),
              std::string::npos)
        << result.value().error;
  }
  manager.Shutdown();
}

// ISSUE 2 satellite: cancelling a campaign that never got its first step
// yields a report synthesized from the config — strategy name and a
// zero allocation — plus the kCancelled state via WaitFor, instead of an
// anonymous default-constructed RunReport.
TEST_F(RecoveryTest, CancelBeforeFirstStepSynthesizesReport) {
  BlockingCompletionSource blocker;
  ManagerOptions options;
  options.num_threads = 1;  // one worker, pinned by the blocker
  options.completions = &blocker;
  CampaignManager manager(options);
  auto pinned = manager.Submit(MakeConfig(0, 50, 1));
  ASSERT_TRUE(pinned.ok());
  // Give the worker time to enter the blocking SubmitTasks.
  std::this_thread::sleep_for(milliseconds(50));
  auto queued = manager.Submit(MakeConfig(1, 50, 1));  // FP strategy
  ASSERT_TRUE(queued.ok());
  ASSERT_TRUE(manager.Cancel(queued.value()).ok());
  blocker.Release();

  auto result = manager.WaitFor(queued.value(), milliseconds(10000));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().state, CampaignState::kCancelled);
  EXPECT_EQ(result.value().report.strategy_name, "FP");
  EXPECT_EQ(result.value().report.allocation.size(), dataset().size());
  EXPECT_EQ(result.value().report.budget_spent, 0);
  EXPECT_TRUE(result.value().report.stopped_early);

  auto first = manager.WaitFor(pinned.value(), milliseconds(10000));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  manager.Shutdown();
}

// ISSUE 2 satellite: elapsed_seconds starts at the first step, and the
// time a campaign sat queued behind other campaigns is reported
// separately as queue_delay_seconds.
TEST_F(RecoveryTest, QueueDelayReportedSeparatelyFromElapsed) {
  BlockingCompletionSource blocker;
  ManagerOptions options;
  options.num_threads = 1;
  options.completions = &blocker;
  CampaignManager manager(options);
  auto pinned = manager.Submit(MakeConfig(0, 50, 1));
  ASSERT_TRUE(pinned.ok());
  std::this_thread::sleep_for(milliseconds(50));
  auto queued = manager.Submit(MakeConfig(1, 50, 1));
  ASSERT_TRUE(queued.ok());
  // The queued campaign cannot step while the worker is pinned.
  std::this_thread::sleep_for(milliseconds(150));
  blocker.Release();
  auto result = manager.WaitFor(queued.value(), milliseconds(10000));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto status = manager.Status(queued.value());
  ASSERT_TRUE(status.ok());
  // Queued >= 150ms behind the pinned campaign; generous margin for CI.
  EXPECT_GE(status.value().queue_delay_seconds, 0.05);
  // Active time excludes the queueing: an inline 50-budget campaign
  // finishes orders of magnitude faster than it queued.
  EXPECT_LT(status.value().elapsed_seconds,
            status.value().queue_delay_seconds);
  manager.WaitFor(pinned.value(), milliseconds(10000));
  manager.Shutdown();
}

// ISSUE 2 satellite: the cancel-while-token-released race. Campaigns
// waiting on a slow crowd release their scheduling token; Cancel must
// always re-schedule a finalizing step, never strand the campaign.
TEST_F(RecoveryTest, CancelRacingTokenReleaseAlwaysTerminates) {
  sim::LoadGeneratorOptions load_options;
  load_options.num_taggers = 3;
  load_options.mean_latency_us = 80.0;
  load_options.tagger_speed_sigma = 1.0;
  load_options.seed = 99;
  sim::CrowdLoadGenerator crowd(load_options);
  ManagerOptions options;
  options.num_threads = 3;
  options.tasks_per_step = 4;
  options.completions = &crowd;
  CampaignManager manager(options);

  util::Rng rng(2026);
  const int kCampaigns = 16;
  std::vector<CampaignId> ids;
  for (int i = 0; i < kCampaigns; ++i) {
    auto id = manager.Submit(MakeConfig(i, 100000, 7));
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  // Hammer cancels from a racing thread at jittered times, so some land
  // while the stepper holds the token, some exactly around the release
  // point, some while the campaign is idle.
  std::thread canceller([&] {
    for (CampaignId id : ids) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(rng.NextBounded(2000)));
      EXPECT_TRUE(manager.Cancel(id).ok());
    }
  });
  canceller.join();
  for (CampaignId id : ids) {
    auto result = manager.WaitFor(id, milliseconds(10000));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(IsTerminal(result.value().state));
  }
  crowd.Stop();
  manager.Shutdown();
}

}  // namespace
}  // namespace service
}  // namespace incentag

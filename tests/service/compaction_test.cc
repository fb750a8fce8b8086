// Checkpointed journal compaction (journal format v2): a campaign killed
// mid-run with compaction enabled recovers from snapshot + tail to a
// RunReport byte-identical to recovering the full journal and to the
// uninterrupted run; a kill during the compaction rewrite (temp file
// present, rename not done) recovers from the old journal; a corrupt
// snapshot record falls back to full replay; and compaction running
// concurrently with live completion application never perturbs results
// (the TSan job runs this file).
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/persist/journal.h"
#include "src/service/campaign_manager.h"
#include "src/sim/load_generator.h"
#include "src/util/file_io.h"
#include "tests/testing/campaign_fixture.h"

namespace incentag {
namespace service {
namespace {

namespace fs = std::filesystem;
using std::chrono::milliseconds;

class CompactionTest : public testing::CampaignTest<60, 20260729> {
 protected:
  // Runs campaign `kind` against a source that completes only
  // `kill_after` tasks so it wedges mid-run, then tears the manager down
  // (the "kill"). With compact_bytes > 0 the journal gets compacted
  // along the way. Returns the journal path.
  std::string KillMidRun(int kind, int64_t budget, uint64_t seed,
                         int64_t kill_after, int64_t compact_bytes) {
    testing::LimitedCompletionSource source(kill_after);
    ManagerOptions options;
    options.num_threads = 2;
    options.tasks_per_step = 8;
    options.completions = &source;
    options.journal_dir = dir_.string();
    options.compact_journal_bytes = compact_bytes;
    CampaignManager manager(options);
    auto id = manager.Submit(MakeConfig(kind, budget, seed));
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    auto result = manager.WaitFor(id.value(), milliseconds(200));
    EXPECT_FALSE(result.ok());  // wedged: the source went silent
    manager.Shutdown();
    return (dir_ / ("campaign-" + std::to_string(id.value()) + ".journal"))
        .string();
  }

};

// Kill mid-run with compaction on, then recovery resumes live on a thread
// pool and runs to completion with further compactions enabled — the
// journal stays recoverable (deterministically) after the campaign
// finishes. (Every strategy's compacted journal, cut at seeded points and
// recovered from its snapshot, is recovery_cut_test.)
TEST_F(CompactionTest, SnapshotRecoveryContinuesLiveAndStaysRecoverable) {
  const int kind = 1;
  const int64_t budget = 400;
  const uint64_t seed = 1234;
  KillMidRun(kind, budget, seed, /*kill_after=*/200,
             30 * persist::kFramedCompletionBytes);

  ManagerOptions options;
  options.num_threads = 3;
  options.tasks_per_step = 16;
  options.compact_journal_bytes = 30 * persist::kFramedCompletionBytes;
  options.journal_dir = dir_.string();
  CampaignManager recovered(options);
  auto ids = recovered.Recover(dir_.string(), Factory);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  ASSERT_EQ(ids.value().size(), 1u);
  auto result = recovered.WaitFor(ids.value()[0], milliseconds(10000));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().state, CampaignState::kDone);
  const core::RunReport want = Uninterrupted(kind, budget, seed);
  EXPECT_TRUE(testing::SameReport(want, result.value().report))
      << "live recovery";
  recovered.Shutdown();

  ManagerOptions det;
  det.deterministic = true;
  CampaignManager again(det);
  auto ids2 = again.Recover(dir_.string(), Factory);
  ASSERT_TRUE(ids2.ok()) << ids2.status().ToString();
  ASSERT_EQ(ids2.value().size(), 1u);
  auto report2 = again.Wait(ids2.value()[0]);
  ASSERT_TRUE(report2.ok()) << report2.status().ToString();
  EXPECT_TRUE(testing::SameReport(want, report2.value())) << "second recovery";
}

// Kill during the compaction rewrite: the temp file exists but the
// rename never happened. The original journal is untouched truth;
// recovery ignores and removes the orphan.
TEST_F(CompactionTest, KillDuringCompactionRecoversFromOldJournal) {
  const int kind = 0;
  const int64_t budget = 300;
  const uint64_t seed = 5;
  const std::string journal =
      KillMidRun(kind, budget, seed, /*kill_after=*/120, /*compact_bytes=*/0);
  const std::string tmp = journal + persist::kCompactionTmpSuffix;
  {
    std::ofstream f(tmp, std::ios::binary);
    f << "half-written compaction rewrite";
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
      << "kill during compaction";
  EXPECT_FALSE(fs::exists(tmp));
}

// A snapshot record whose frame is intact but whose body is garbage
// (e.g. a half-migrated or future-format snapshot) must not poison the
// journal: with the full trace still present, recovery falls back to
// replaying everything.
TEST_F(CompactionTest, CorruptSnapshotFallsBackToFullReplay) {
  const int kind = 2;
  const int64_t budget = 300;
  const uint64_t seed = 9;
  const std::string journal =
      KillMidRun(kind, budget, seed, /*kill_after=*/120, /*compact_bytes=*/0);

  auto before = persist::ReadJournal(journal);
  ASSERT_TRUE(before.ok());
  const int64_t trace_len =
      static_cast<int64_t>(before.value().completions.size());
  ASSERT_GT(trace_len, 0);
  {
    std::string garbage;
    garbage.push_back(static_cast<char>(persist::RecordType::kSnapshot));
    garbage += "these bytes are not a snapshot";
    const std::string frame = persist::FrameRecord(garbage);
    std::ofstream f(journal, std::ios::binary | std::ios::app);
    f.write(frame.data(), static_cast<std::streamsize>(frame.size()));
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
      << "corrupt snapshot fallback";
  auto status = recovered.Status(ids.value()[0]);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().records_replayed, trace_len);  // full replay
}

// A compacted journal whose snapshot is unusable has lost its prefix;
// recovery must fail that campaign loudly instead of fabricating state.
TEST_F(CompactionTest, UnusableSnapshotWithCompactedPrefixFailsCampaign) {
  const int kind = 1;
  KillMidRun(kind, /*budget=*/300, /*seed=*/8, /*kill_after=*/150,
             40 * persist::kFramedCompletionBytes);
  auto files = util::ListDirFiles(dir_.string(), ".journal");
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files.value().size(), 1u);
  auto contents = persist::ReadJournal(files.value()[0]);
  ASSERT_TRUE(contents.ok());
  ASSERT_TRUE(contents.value().has_snapshot);
  ASSERT_FALSE(contents.value().completions.empty());
  ASSERT_GT(contents.value().completions.front().seq, 0u);

  // Rewrite the journal with the snapshot body replaced by garbage of
  // the same framing (prefix records are gone — that is the point).
  std::string bytes =
      persist::FrameRecord(persist::EncodeSubmitRecord(contents.value().submit));
  std::string garbage;
  garbage.push_back(static_cast<char>(persist::RecordType::kSnapshot));
  garbage += "unreadable snapshot";
  bytes += persist::FrameRecord(garbage);
  for (const persist::CompletionRecord& record :
       contents.value().completions) {
    bytes += persist::FrameRecord(persist::EncodeCompletionRecord(record));
  }
  {
    std::ofstream f(files.value()[0], std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  ManagerOptions options;
  options.deterministic = true;
  CampaignManager recovered(options);
  auto ids = recovered.Recover(dir_.string(), Factory);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  ASSERT_EQ(ids.value().size(), 1u);
  auto result = recovered.WaitFor(ids.value()[0], milliseconds(1000));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().state, CampaignState::kFailed);
  EXPECT_NE(result.value().error.find("full replay impossible"),
            std::string::npos)
      << result.value().error;

  // The empty-tail variant — the journal's normal state right after a
  // compaction. Restarting from Begin here would silently discard the
  // whole pre-crash spend, so it must fail just as loudly.
  std::string no_tail =
      persist::FrameRecord(persist::EncodeSubmitRecord(contents.value().submit));
  no_tail += persist::FrameRecord(garbage);
  {
    std::ofstream f(files.value()[0], std::ios::binary | std::ios::trunc);
    f.write(no_tail.data(), static_cast<std::streamsize>(no_tail.size()));
  }
  CampaignManager recovered2(options);
  auto ids2 = recovered2.Recover(dir_.string(), Factory);
  ASSERT_TRUE(ids2.ok()) << ids2.status().ToString();
  ASSERT_EQ(ids2.value().size(), 1u);
  auto result2 = recovered2.WaitFor(ids2.value()[0], milliseconds(1000));
  ASSERT_TRUE(result2.ok()) << result2.status().ToString();
  EXPECT_EQ(result2.value().state, CampaignState::kFailed);
  EXPECT_NE(result2.value().error.find("full replay impossible"),
            std::string::npos)
      << result2.value().error;
}

// Explicit Compact(id): a wedged (but journaled) campaign can be
// compacted on demand; the rewrite lands within a bounded wait and the
// journal recovers to ground truth afterwards.
TEST_F(CompactionTest, ExplicitCompactRewritesWedgedCampaign) {
  const int kind = 3;
  const int64_t budget = 300;
  const uint64_t seed = 21;
  testing::LimitedCompletionSource source(150);
  ManagerOptions options;
  options.num_threads = 2;
  options.tasks_per_step = 8;
  options.completions = &source;
  options.journal_dir = dir_.string();
  CampaignManager manager(options);
  auto id = manager.Submit(MakeConfig(kind, budget, seed));
  ASSERT_TRUE(id.ok());
  auto wedged = manager.WaitFor(id.value(), milliseconds(300));
  EXPECT_FALSE(wedged.ok());

  EXPECT_EQ(manager.Compact(id.value() + 999).code(),
            util::StatusCode::kNotFound);
  ASSERT_TRUE(manager.Compact(id.value()).ok());
  const std::string journal =
      (dir_ / ("campaign-" + std::to_string(id.value()) + ".journal"))
          .string();
  bool compacted = false;
  for (int i = 0; i < 100 && !compacted; ++i) {
    std::this_thread::sleep_for(milliseconds(20));
    auto contents = persist::ReadJournal(journal);
    compacted = contents.ok() && contents.value().has_snapshot;
  }
  EXPECT_TRUE(compacted);
  manager.Shutdown();

  ManagerOptions det;
  det.deterministic = true;
  CampaignManager recovered(det);
  auto ids = recovered.Recover(dir_.string(), Factory);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  ASSERT_EQ(ids.value().size(), 1u);
  auto report = recovered.Wait(ids.value()[0]);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(
      testing::SameReport(Uninterrupted(kind, budget, seed), report.value()))
      << "explicit compact";
}

// Compact() contract errors: unjournaled and terminal campaigns.
TEST_F(CompactionTest, CompactRejectsUnjournaledAndTerminalCampaigns) {
  {
    ManagerOptions options;  // no journal_dir
    options.num_threads = 2;
    CampaignManager manager(options);
    auto id = manager.Submit(MakeConfig(1, 50, 3));
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(manager.Compact(id.value()).code(),
              util::StatusCode::kFailedPrecondition);
    manager.WaitFor(id.value(), milliseconds(10000));
  }
  {
    ManagerOptions options;
    options.num_threads = 2;
    options.journal_dir = dir_.string();
    CampaignManager manager(options);
    auto id = manager.Submit(MakeConfig(1, 50, 3));
    ASSERT_TRUE(id.ok());
    auto result = manager.WaitFor(id.value(), milliseconds(10000));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(manager.Compact(id.value()).code(),
              util::StatusCode::kFailedPrecondition);
  }
}

// A 16-campaign fleet compacting aggressively through the one compactor
// thread: every campaign still completes to ground truth and every
// journal stays recoverable. (The TSan job runs this file, so steppers
// handing jobs to the compactor while it rewrites are race-checked.)
TEST_F(CompactionTest, FleetCompactingEveryTenCompletionsStaysRecoverable) {
  sim::LoadGeneratorOptions load_options;
  load_options.num_taggers = 4;
  load_options.mean_latency_us = 20.0;
  load_options.seed = 13;
  sim::CrowdLoadGenerator crowd(load_options);
  ManagerOptions options;
  options.num_threads = 4;
  options.tasks_per_step = 8;
  options.completions = &crowd;
  options.journal_dir = dir_.string();
  // Every campaign compacts often.
  options.compact_journal_bytes = 10 * persist::kFramedCompletionBytes;
  CampaignManager manager(options);

  const int kCampaigns = 16;
  std::vector<CampaignId> ids;
  for (int i = 0; i < kCampaigns; ++i) {
    auto id = manager.Submit(MakeConfig(i % 5, 150 + 10 * (i % 4), 7));
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  for (int i = 0; i < kCampaigns; ++i) {
    auto result = manager.WaitFor(ids[i], milliseconds(20000));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result.value().state, CampaignState::kDone);
    EXPECT_TRUE(testing::SameReport(Uninterrupted(i % 5, 150 + 10 * (i % 4), 7),
                                    result.value().report)) << "campaign " << i;
  }
  crowd.Stop();
  manager.Shutdown();

  ManagerOptions det;
  det.deterministic = true;
  CampaignManager recovered(det);
  auto recovered_ids = recovered.Recover(dir_.string(), Factory);
  ASSERT_TRUE(recovered_ids.ok()) << recovered_ids.status().ToString();
  ASSERT_EQ(recovered_ids.value().size(), static_cast<size_t>(kCampaigns));
  for (CampaignId id : recovered_ids.value()) {
    auto report = recovered.Wait(id);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
  }
}

// The journal-bytes trigger: with compact_journal_bytes set, journals get
// checkpoint-compacted as they grow past the threshold.
TEST_F(CompactionTest, JournalBytesTriggerCompacts) {
  ManagerOptions options;
  options.num_threads = 2;
  options.tasks_per_step = 8;
  options.journal_dir = dir_.string();
  options.compact_journal_bytes = 1024;
  CampaignManager manager(options);
  auto id = manager.Submit(MakeConfig(1, 300, 9));
  ASSERT_TRUE(id.ok());
  auto result = manager.WaitFor(id.value(), milliseconds(20000));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().state, CampaignState::kDone);
  manager.Shutdown();

  const std::string journal =
      (dir_ / ("campaign-" + std::to_string(id.value()) + ".journal"))
          .string();
  auto contents = persist::ReadJournal(journal);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_TRUE(contents.value().has_snapshot);
  EXPECT_GT(contents.value().snapshot.num_completions, 0u);

  // And it recovers to ground truth like any compacted journal.
  ManagerOptions det;
  det.deterministic = true;
  CampaignManager recovered(det);
  auto ids = recovered.Recover(dir_.string(), Factory);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  ASSERT_EQ(ids.value().size(), 1u);
  auto report = recovered.Wait(ids.value()[0]);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(testing::SameReport(Uninterrupted(1, 300, 9), report.value()))
      << "bytes-trigger recovery";
}

// A threshold equal to the whole journal fires on a campaign's final
// quantum, so the campaign finishes while that compaction is still queued
// or running. Finalize waits for the rewrite before it closes the
// journal: every finished journal holds a snapshot of its whole run.
TEST_F(CompactionTest, CampaignFinishingMidCompactionKeepsItsSnapshot) {
  const int kind = 1;
  const int64_t budget = 300;
  const uint64_t seed = 9;
  // The uncompacted journal of the same run, from a deterministic
  // manager in a directory of its own.
  const fs::path plain_dir = dir_ / "plain";
  fs::create_directories(plain_dir);
  fs::path plain;
  {
    ManagerOptions det;
    det.deterministic = true;
    det.journal_dir = plain_dir.string();
    CampaignManager manager(det);
    auto id = manager.Submit(MakeConfig(kind, budget, seed));
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(manager.Wait(id.value()).ok());
    manager.Shutdown();
    plain = plain_dir /
            ("campaign-" + std::to_string(id.value()) + ".journal");
  }
  auto full = persist::ReadJournal(plain.string());
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_FALSE(full.value().has_snapshot);
  const uint64_t completions = full.value().completions.size();

  ManagerOptions options;
  options.num_threads = 2;
  options.tasks_per_step = 8;
  options.journal_dir = dir_.string();
  options.compact_journal_bytes =
      static_cast<int64_t>(fs::file_size(plain));
  CampaignManager manager(options);
  const int kCampaigns = 8;
  std::vector<CampaignId> ids;
  for (int i = 0; i < kCampaigns; ++i) {
    auto id = manager.Submit(MakeConfig(kind, budget, seed));
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  for (CampaignId id : ids) {
    auto result = manager.WaitFor(id, milliseconds(20000));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result.value().state, CampaignState::kDone);
  }
  manager.Shutdown();
  for (CampaignId id : ids) {
    const std::string journal =
        (dir_ / ("campaign-" + std::to_string(id) + ".journal")).string();
    auto contents = persist::ReadJournal(journal);
    ASSERT_TRUE(contents.ok()) << contents.status().ToString();
    EXPECT_TRUE(contents.value().has_snapshot) << "campaign " << id;
    EXPECT_EQ(contents.value().snapshot.num_completions, completions)
        << "campaign " << id;
  }
}

// Compaction racing live application: a crowd completes tasks out of
// order on tagger threads while the compactor rewrites the journal
// every few completions. Reports must equal the sequential ground truth
// for every campaign, and every journal must stay recoverable. This is
// the TSan target for the stepper/compactor/sink interleaving.
TEST_F(CompactionTest, ConcurrentCompactionUnderCrowdLoadIsExact) {
  sim::LoadGeneratorOptions load_options;
  load_options.num_taggers = 4;
  load_options.mean_latency_us = 30.0;
  load_options.seed = 11;
  sim::CrowdLoadGenerator crowd(load_options);
  ManagerOptions options;
  options.num_threads = 3;
  options.tasks_per_step = 8;
  options.completions = &crowd;
  options.journal_dir = dir_.string();
  // Compact aggressively.
  options.compact_journal_bytes = 10 * persist::kFramedCompletionBytes;
  CampaignManager manager(options);

  const int kCampaigns = 6;
  std::vector<CampaignId> ids;
  for (int i = 0; i < kCampaigns; ++i) {
    auto id = manager.Submit(MakeConfig(i, 200 + 20 * i, 7));
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  for (int i = 0; i < kCampaigns; ++i) {
    auto result = manager.WaitFor(ids[i], milliseconds(20000));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result.value().state, CampaignState::kDone);
    EXPECT_TRUE(testing::SameReport(Uninterrupted(i, 200 + 20 * i, 7),
                                    result.value().report)) << "campaign " << i;
  }
  crowd.Stop();
  manager.Shutdown();

  ManagerOptions det;
  det.deterministic = true;
  CampaignManager recovered(det);
  auto recovered_ids = recovered.Recover(dir_.string(), Factory);
  ASSERT_TRUE(recovered_ids.ok()) << recovered_ids.status().ToString();
  ASSERT_EQ(recovered_ids.value().size(), static_cast<size_t>(kCampaigns));
  for (CampaignId id : recovered_ids.value()) {
    auto report = recovered.Wait(id);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
  }
}

}  // namespace
}  // namespace service
}  // namespace incentag

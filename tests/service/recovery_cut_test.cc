// Kill + Recover at seeded random cut points: the recovery rows of the
// cross-path identity table. A crash leaves a journal that is some prefix
// of the journal an uninterrupted run writes, possibly torn inside a
// frame, and possibly beside a half-written compaction rewrite. Every
// such state, recovered by a fresh manager, must finish with the report
// of the uninterrupted run, byte for byte. The cut points are drawn from
// a fixed seed:
//   * mid-batch: at a frame boundary inside the completion trace, or torn
//     inside the next frame;
//   * mid-compaction: an uncompacted journal cut mid-batch beside a
//     prefix of the rewrite that would have replaced it;
//   * compacted tail: a compacted journal cut after its snapshot;
//   * after a terminal record: the whole journal of a finished run, and a
//     cancelled run's journal ending in its cancel record.
// The specs are the cross-path table's: one per strategy (RR, FP, MU,
// FP-MU, FC), plus the mixed fleet, which mixes omegas and under-tagged
// thresholds over one dataset and recovers all at once on the threaded
// manager.
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/persist/journal.h"
#include "src/service/campaign_manager.h"
#include "src/util/file_io.h"
#include "src/util/random.h"
#include "tests/testing/campaign_fixture.h"

namespace incentag {
namespace service {
namespace {

namespace fs = std::filesystem;
using testing::SameReport;
using testing::Spec;
using std::chrono::milliseconds;

// End offset of every intact frame in a journal image.
std::vector<size_t> FrameEnds(const std::string& bytes) {
  std::vector<size_t> ends;
  persist::FrameCursor cursor(bytes);
  while (cursor.Next()) {
    ends.push_back(static_cast<size_t>(cursor.valid_bytes()));
  }
  return ends;
}

// True when the journal's second frame is a snapshot record (type 4):
// the layout a compaction leaves.
bool HoldsSnapshot(const std::string& bytes) {
  const std::vector<size_t> ends = FrameEnds(bytes);
  return ends.size() > 1 && bytes[ends[0] + 8] == 4;
}

// Intact completion records after the journal's last snapshot (or its
// submit record): what a recovery replays.
int64_t TailCompletions(const std::string& bytes) {
  int64_t tail = 0;
  persist::FrameCursor cursor(bytes);
  while (cursor.Next()) {
    const auto type = static_cast<persist::RecordType>(cursor.body()[0]);
    if (type == persist::RecordType::kSnapshot) tail = 0;
    if (type == persist::RecordType::kCompletion) ++tail;
  }
  return tail;
}

// A crash state: the journal's bytes, and the compaction rewrite left
// beside it (empty: none).
struct Cut {
  std::string label;
  std::string journal;
  std::string tmp;
};

class RecoveryCutTest : public testing::CampaignTest<60, 20261018> {
 protected:
  // Runs every spec to the end in one deterministic journaled manager
  // (compacting every `compact_bytes` journal bytes; 0 = never) and returns
  // each finished journal's bytes, in `specs` order.
  std::vector<std::string> FinishedJournals(const std::vector<Spec>& specs,
                                            int64_t compact_bytes) {
    const fs::path dir = dir_ / "journals";
    fs::remove_all(dir);
    std::vector<std::string> out;
    {
      ManagerOptions options;
      options.deterministic = true;
      options.journal_dir = dir.string();
      options.compact_journal_bytes = compact_bytes;
      CampaignManager manager(options);
      for (const Spec& spec : specs) {
        auto id = manager.Submit(MakeConfig(spec));
        EXPECT_TRUE(id.ok()) << id.status().ToString();
      }
      manager.Shutdown();
    }
    for (size_t i = 0; i < specs.size(); ++i) {
      auto bytes = util::ReadFileToString(
          (dir / ("campaign-" + std::to_string(i + 1) + ".journal"))
              .string());
      EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
      out.push_back(std::move(bytes).value());
    }
    fs::remove_all(dir);
    return out;
  }

  // A cut inside the completion trace of `journal`, after frame `first`
  // or later: at a frame boundary, or torn inside the next frame.
  static std::string CutMidBatch(const std::string& journal, size_t first,
                                 util::Rng* rng) {
    const std::vector<size_t> ends = FrameEnds(journal);
    EXPECT_GT(ends.size(), first + 2) << "no completion frames to cut";
    if (ends.size() <= first + 2) return journal;
    const size_t i =
        first + static_cast<size_t>(rng->NextBounded(ends.size() - first - 1));
    const size_t frame = ends[i + 1] - ends[i];
    return journal.substr(0, ends[i] + rng->NextBounded(frame));
  }

  // One crash state of each kind, from a finished plain journal and the
  // same run's finished compacted journal.
  static Cut DrawCut(int kind, const std::string& plain,
                     const std::string& compacted, util::Rng* rng) {
    switch (kind % 4) {
      case 0:
        return {"mid-batch", CutMidBatch(plain, 1, rng), ""};
      case 1: {
        // The rename never happened: the old journal is the truth and the
        // rewrite beside it is any prefix of what it would have become.
        const size_t tmp_bytes =
            1 + static_cast<size_t>(rng->NextBounded(compacted.size()));
        return {"mid-compaction", CutMidBatch(plain, 1, rng),
                compacted.substr(0, tmp_bytes)};
      }
      case 2:
        // Frame 0 is the submit, frame 1 the snapshot.
        return {"compacted tail", CutMidBatch(compacted, 1, rng), ""};
      default:
        return {kind % 8 == 3 ? "after the last record (plain)"
                              : "after the last record (compacted)",
                kind % 8 == 3 ? plain : compacted, ""};
    }
  }

  // Writes `cut` as journal `id` (and its rewrite) into `dir`.
  static void WriteCut(const fs::path& dir, CampaignId id, const Cut& cut) {
    const std::string path =
        (dir / ("campaign-" + std::to_string(id) + ".journal")).string();
    std::ofstream(path, std::ios::binary) << cut.journal;
    if (!cut.tmp.empty()) {
      std::ofstream(path + ".compact.tmp", std::ios::binary) << cut.tmp;
    }
  }

};

TEST_F(RecoveryCutTest, EveryStrategyRecoversFromSeededCutPoints) {
  const std::vector<Spec> specs = testing::StrategySpecs();
  const std::vector<std::string> plain = FinishedJournals(specs, 0);
  const std::vector<std::string> compacted =
      FinishedJournals(specs, 150 * persist::kFramedCompletionBytes);
  util::Rng rng(0x5EED2021);
  for (size_t s = 0; s < specs.size(); ++s) {
    const core::RunReport want = Uninterrupted(specs[s]);
    ASSERT_TRUE(HoldsSnapshot(compacted[s])) << specs[s].name;
    for (int kind = 0; kind < 8; ++kind) {
      const Cut cut = DrawCut(kind, plain[s], compacted[s], &rng);
      const std::string label = specs[s].name + ", " + cut.label + " (" +
                                std::to_string(cut.journal.size()) + " of " +
                                std::to_string(plain[s].size()) + " bytes)";
      const fs::path dir = dir_ / "cut";
      fs::remove_all(dir);
      ASSERT_TRUE(util::CreateDirectories(dir.string()).ok());
      WriteCut(dir, 7, cut);

      ManagerOptions options;
      options.deterministic = true;
      CampaignManager manager(options);
      auto ids = manager.Recover(dir.string(), Factory);
      ASSERT_TRUE(ids.ok()) << label << ": " << ids.status().ToString();
      ASSERT_EQ(ids.value().size(), 1u) << label;
      EXPECT_EQ(ids.value()[0], 7u) << label;
      auto result = manager.WaitFor(ids.value()[0], milliseconds(10000));
      ASSERT_TRUE(result.ok()) << label;
      EXPECT_EQ(result.value().state, CampaignState::kDone) << label;
      EXPECT_TRUE(SameReport(want, result.value().report)) << label;
      // Recovery replays exactly the tail after the snapshot, which is
      // shorter than the whole trace.
      const int64_t replayed = manager.Status(7).value().records_replayed;
      EXPECT_EQ(replayed, TailCompletions(cut.journal)) << label;
      if (HoldsSnapshot(cut.journal)) {
        EXPECT_LT(replayed, TailCompletions(plain[s])) << label;
      }
      EXPECT_FALSE(fs::exists(dir / "campaign-7.journal.compact.tmp"))
          << label;
    }
  }
}

// A cancel record is terminal: the recovered campaign stays cancelled with
// the partial report the live run gave. Cut before the record, the same
// journal resumes to the uninterrupted report.
TEST_F(RecoveryCutTest, CancelRecordIsTerminalAndACutBeforeItResumes) {
  util::Rng rng(0xCA9CE1);
  for (const Spec& spec : testing::StrategySpecs()) {
    const fs::path dir = dir_ / "live";
    fs::remove_all(dir);
    const int64_t applied = 40 + static_cast<int64_t>(rng.NextBounded(80));
    core::RunReport partial;
    {
      testing::LimitedCompletionSource source(applied);
      ManagerOptions options;
      options.num_threads = 2;
      options.tasks_per_step = 8;
      options.completions = &source;
      options.journal_dir = dir.string();
      CampaignManager manager(options);
      auto id = manager.Submit(MakeConfig(spec));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      const auto deadline =
          std::chrono::steady_clock::now() + milliseconds(10000);
      while (manager.Status(id.value()).value().tasks_completed < applied) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline) << spec.name;
        std::this_thread::sleep_for(milliseconds(1));
      }
      ASSERT_TRUE(manager.Cancel(id.value()).ok());
      auto result = manager.WaitFor(id.value(), milliseconds(10000));
      ASSERT_TRUE(result.ok()) << spec.name;
      ASSERT_EQ(result.value().state, CampaignState::kCancelled) << spec.name;
      partial = result.value().report;
      manager.Shutdown();
    }
    auto bytes = util::ReadFileToString((dir / "campaign-1.journal").string());
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    const std::string journal = std::move(bytes).value();
    const std::vector<size_t> ends = FrameEnds(journal);
    ASSERT_EQ(ends.back(), journal.size()) << spec.name;
    const std::string before_cancel =
        journal.substr(0, ends[ends.size() - 2]);

    const Cut cuts[] = {
        {"after the cancel record", journal, ""},
        {"before the cancel record", CutMidBatch(before_cancel, 1, &rng), ""},
    };
    for (const Cut& cut : cuts) {
      const std::string label = spec.name + ", " + cut.label;
      const fs::path cut_dir = dir_ / "cut";
      fs::remove_all(cut_dir);
      ASSERT_TRUE(util::CreateDirectories(cut_dir.string()).ok());
      WriteCut(cut_dir, 1, cut);
      ManagerOptions options;
      options.deterministic = true;
      CampaignManager manager(options);
      auto ids = manager.Recover(cut_dir.string(), Factory);
      ASSERT_TRUE(ids.ok()) << label << ": " << ids.status().ToString();
      ASSERT_EQ(ids.value().size(), 1u) << label;
      auto result = manager.WaitFor(ids.value()[0], milliseconds(10000));
      ASSERT_TRUE(result.ok()) << label;
      const bool cancelled = &cut == &cuts[0];
      EXPECT_EQ(result.value().state, cancelled ? CampaignState::kCancelled
                                                : CampaignState::kDone)
          << label;
      EXPECT_TRUE(SameReport(cancelled ? partial : Uninterrupted(spec),
                             result.value().report))
          << label;
    }
  }
}

// The mixed omega/threshold fleet, each journal cut at its own seeded
// point and kind, recovered together on the threaded manager.
TEST_F(RecoveryCutTest, MixedFleetRecoversFromSeededCutPoints) {
  const std::vector<Spec> specs = testing::MixedFleet();
  const std::vector<std::string> plain = FinishedJournals(specs, 0);
  const std::vector<std::string> compacted =
      FinishedJournals(specs, 48 * persist::kFramedCompletionBytes);
  for (size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(HoldsSnapshot(compacted[i])) << specs[i].name;
  }
  std::map<std::string, core::RunReport> want;
  for (const Spec& spec : specs) want[spec.name] = Uninterrupted(spec);

  util::Rng rng(0xF1EE7);
  for (int round = 0; round < 2; ++round) {
    const fs::path dir = dir_ / "fleet";
    fs::remove_all(dir);
    ASSERT_TRUE(util::CreateDirectories(dir.string()).ok());
    std::map<std::string, std::string> labels;
    for (size_t i = 0; i < specs.size(); ++i) {
      const Cut cut = DrawCut(static_cast<int>(i) + round * 3, plain[i],
                              compacted[i], &rng);
      labels[specs[i].name] = specs[i].name + ", " + cut.label;
      WriteCut(dir, static_cast<CampaignId>(i + 1), cut);
    }

    ManagerOptions options;
    options.num_threads = 4;
    options.tasks_per_step = 8;
    CampaignManager manager(options);
    auto ids = manager.Recover(dir.string(), Factory);
    ASSERT_TRUE(ids.ok()) << ids.status().ToString();
    ASSERT_EQ(ids.value().size(), specs.size());
    for (CampaignId id : ids.value()) {
      auto result = manager.WaitFor(id, milliseconds(60000));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      auto status = manager.Status(id);
      ASSERT_TRUE(status.ok());
      const std::string& label = labels[status.value().name];
      EXPECT_EQ(result.value().state, CampaignState::kDone) << label;
      EXPECT_TRUE(SameReport(want[status.value().name], result.value().report))
          << label;
    }
  }
}

}  // namespace
}  // namespace service
}  // namespace incentag

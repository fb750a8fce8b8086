// Journal format v2: SnapshotRecord round trips, the reader's snapshot
// seek rules (seq re-basing after a compacted prefix, graceful
// degradation on an undecodable snapshot body), and the atomic
// JournalWriter::Compact rewrite — including its crash windows (temp
// file never renamed) and post-swap appends.
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/persist/compactor.h"
#include "src/persist/journal.h"
#include "src/util/file_io.h"
#include "tests/testing/test_util.h"

namespace incentag {
namespace persist {
namespace {

namespace fs = std::filesystem;

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = incentag::testing::TempPath(
        std::string("snapshot_test_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    ASSERT_TRUE(util::CreateDirectories(dir_.string()).ok());
  }

  void TearDown() override { fs::remove_all(dir_); }

  std::string PathFor(const std::string& name) const {
    return (dir_ / name).string();
  }

  static SubmitRecord MakeSubmit() {
    SubmitRecord record;
    record.name = "community-3";
    record.strategy_name = "FP";
    record.seed = 99;
    record.options.budget = 500;
    record.options.omega = 5;
    record.options.batch_size = 4;
    record.options.checkpoints = {100, 500};
    return record;
  }

  static SnapshotRecord MakeSnapshot(uint64_t num_completions) {
    SnapshotRecord snapshot;
    snapshot.num_completions = num_completions;
    snapshot.pending = {7, 3, 7};
    snapshot.next_assign_seq = num_completions + snapshot.pending.size();
    snapshot.runtime_state = "opaque runtime bytes \x01\x02\x00\xff";
    return snapshot;
  }

  static void AppendRaw(const std::string& path, const std::string& bytes) {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  fs::path dir_;
};

TEST_F(SnapshotTest, SnapshotRecordRoundTrips) {
  SnapshotRecord want = MakeSnapshot(42);
  SnapshotRecord got;
  ASSERT_TRUE(DecodeSnapshotRecord(EncodeSnapshotRecord(want), &got).ok());
  EXPECT_EQ(want.format_version, got.format_version);
  EXPECT_EQ(want.num_completions, got.num_completions);
  EXPECT_EQ(want.next_assign_seq, got.next_assign_seq);
  EXPECT_EQ(want.pending, got.pending);
  EXPECT_EQ(want.runtime_state, got.runtime_state);
}

TEST_F(SnapshotTest, SnapshotRecordRejectsInconsistentSeqAccounting) {
  SnapshotRecord broken = MakeSnapshot(42);
  broken.next_assign_seq = 999;  // != num_completions + pending
  SnapshotRecord got;
  EXPECT_FALSE(DecodeSnapshotRecord(EncodeSnapshotRecord(broken), &got).ok());
}

TEST_F(SnapshotTest, SnapshotRecordRejectsFutureFormatVersion) {
  SnapshotRecord future = MakeSnapshot(1);
  future.format_version = kJournalFormatVersion + 1;
  SnapshotRecord got;
  EXPECT_FALSE(DecodeSnapshotRecord(EncodeSnapshotRecord(future), &got).ok());
}

// The compacted layout: submit + snapshot + tail. The snapshot re-bases
// the completion sequence, so the tail may start at any seq.
TEST_F(SnapshotTest, ReaderSeeksToSnapshotAndReBasesSeqs) {
  const std::string path = PathFor("compacted.journal");
  std::string bytes = FrameRecord(EncodeSubmitRecord(MakeSubmit()));
  bytes += FrameRecord(EncodeSnapshotRecord(MakeSnapshot(40)));
  for (uint64_t seq = 40; seq < 45; ++seq) {
    bytes += FrameRecord(EncodeCompletionRecord(CompletionRecord{seq, 2}));
  }
  AppendRaw(path, bytes);

  auto contents = ReadJournal(path);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_TRUE(contents.value().has_submit);
  ASSERT_TRUE(contents.value().has_snapshot);
  EXPECT_TRUE(contents.value().snapshot_status.ok());
  EXPECT_EQ(contents.value().snapshot.num_completions, 40u);
  ASSERT_EQ(contents.value().completions.size(), 5u);
  EXPECT_EQ(contents.value().completions.front().seq, 40u);
  EXPECT_TRUE(contents.value().tail_status.ok());
}

// A tail that does not continue where the snapshot left off is real
// corruption, not something recovery may guess past.
TEST_F(SnapshotTest, ReaderRejectsTailGapAfterSnapshot) {
  const std::string path = PathFor("gap.journal");
  std::string bytes = FrameRecord(EncodeSubmitRecord(MakeSubmit()));
  bytes += FrameRecord(EncodeSnapshotRecord(MakeSnapshot(40)));
  bytes += FrameRecord(EncodeCompletionRecord(CompletionRecord{41, 2}));
  AppendRaw(path, bytes);
  EXPECT_FALSE(ReadJournal(path).ok());
}

// An inline checkpoint (snapshot appended mid-trace, prefix still
// present) must agree with the records around it.
TEST_F(SnapshotTest, ReaderAcceptsInlineCheckpointAndRejectsMismatched) {
  const std::string good = PathFor("inline.journal");
  std::string bytes = FrameRecord(EncodeSubmitRecord(MakeSubmit()));
  for (uint64_t seq = 0; seq < 3; ++seq) {
    bytes += FrameRecord(EncodeCompletionRecord(CompletionRecord{seq, 1}));
  }
  bytes += FrameRecord(EncodeSnapshotRecord(MakeSnapshot(3)));
  bytes += FrameRecord(EncodeCompletionRecord(CompletionRecord{3, 1}));
  AppendRaw(good, bytes);
  auto contents = ReadJournal(good);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_TRUE(contents.value().has_snapshot);
  EXPECT_EQ(contents.value().completions.size(), 4u);

  const std::string bad = PathFor("inline-mismatch.journal");
  std::string bad_bytes = FrameRecord(EncodeSubmitRecord(MakeSubmit()));
  bad_bytes += FrameRecord(EncodeCompletionRecord(CompletionRecord{0, 1}));
  bad_bytes += FrameRecord(EncodeSnapshotRecord(MakeSnapshot(9)));
  AppendRaw(bad, bad_bytes);
  EXPECT_FALSE(ReadJournal(bad).ok());
}

// A snapshot whose frame is intact (CRC passes) but whose body does not
// decode — e.g. written by a newer format — degrades to
// snapshot_status instead of failing the journal, because an
// uncompacted trace can still replay from seq 0.
TEST_F(SnapshotTest, UndecodableSnapshotBodyDegradesToStatus) {
  const std::string path = PathFor("bad-snapshot.journal");
  std::string bytes = FrameRecord(EncodeSubmitRecord(MakeSubmit()));
  for (uint64_t seq = 0; seq < 4; ++seq) {
    bytes += FrameRecord(EncodeCompletionRecord(CompletionRecord{seq, 1}));
  }
  std::string garbage;
  garbage.push_back(static_cast<char>(RecordType::kSnapshot));
  garbage += "not a snapshot body";
  bytes += FrameRecord(garbage);
  AppendRaw(path, bytes);

  auto contents = ReadJournal(path);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_FALSE(contents.value().has_snapshot);
  EXPECT_FALSE(contents.value().snapshot_status.ok());
  EXPECT_EQ(contents.value().completions.size(), 4u);
  EXPECT_EQ(contents.value().completions.front().seq, 0u);
}

// Format v1 journals (format_version 1, no snapshot records) still read.
TEST_F(SnapshotTest, FormatV1JournalStillReads) {
  const std::string path = PathFor("v1.journal");
  SubmitRecord v1 = MakeSubmit();
  v1.format_version = 1;
  std::string bytes = FrameRecord(EncodeSubmitRecord(v1));
  bytes += FrameRecord(EncodeCompletionRecord(CompletionRecord{0, 5}));
  AppendRaw(path, bytes);
  auto contents = ReadJournal(path);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_EQ(contents.value().submit.format_version, 1u);
  EXPECT_FALSE(contents.value().has_snapshot);
  EXPECT_EQ(contents.value().completions.size(), 1u);
}

TEST_F(SnapshotTest, CompactRewritesJournalAsSnapshotPlusTail) {
  const std::string path = PathFor("campaign-1.journal");
  auto writer = JournalWriter::Open(path, 0);
  ASSERT_TRUE(writer.ok());
  const SubmitRecord submit = MakeSubmit();
  ASSERT_TRUE(writer.value()->AppendSubmit(submit).ok());
  for (uint64_t seq = 0; seq < 6; ++seq) {
    ASSERT_TRUE(writer.value()
                    ->AppendCompletion(CompletionRecord{
                        seq, static_cast<core::ResourceId>(seq)})
                    .ok());
  }
  const int64_t tail_offset = writer.value()->size();
  for (uint64_t seq = 6; seq < 10; ++seq) {
    ASSERT_TRUE(writer.value()
                    ->AppendCompletion(CompletionRecord{
                        seq, static_cast<core::ResourceId>(seq)})
                    .ok());
  }

  SnapshotRecord snapshot;
  snapshot.num_completions = 6;
  snapshot.next_assign_seq = 6;
  snapshot.runtime_state = "state-at-6";
  ASSERT_TRUE(writer.value()->Compact(submit, snapshot, tail_offset).ok());
  EXPECT_FALSE(fs::exists(path + kCompactionTmpSuffix));

  // The writer survived the fd swap: appends land in the new file.
  ASSERT_TRUE(
      writer.value()->AppendCompletion(CompletionRecord{10, 10}).ok());
  ASSERT_TRUE(writer.value()->Sync().ok());

  auto contents = ReadJournal(path);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  ASSERT_TRUE(contents.value().has_snapshot);
  EXPECT_EQ(contents.value().snapshot.num_completions, 6u);
  EXPECT_EQ(contents.value().snapshot.runtime_state, "state-at-6");
  ASSERT_EQ(contents.value().completions.size(), 5u);  // seqs 6..10
  EXPECT_EQ(contents.value().completions.front().seq, 6u);
  EXPECT_EQ(contents.value().completions.back().seq, 10u);
  EXPECT_TRUE(contents.value().tail_status.ok());
}

TEST_F(SnapshotTest, CompactRejectsTailOffsetPastEnd) {
  const std::string path = PathFor("campaign-2.journal");
  auto writer = JournalWriter::Open(path, 0);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()->AppendSubmit(MakeSubmit()).ok());
  SnapshotRecord snapshot;
  EXPECT_FALSE(
      writer.value()->Compact(MakeSubmit(), snapshot, 1 << 20).ok());
}

// The compactor thread applies queued rewrites and Drain waits for them.
TEST_F(SnapshotTest, CompactorRunsQueuedJobs) {
  const std::string path = PathFor("campaign-3.journal");
  auto writer = JournalWriter::Open(path, 0);
  ASSERT_TRUE(writer.ok());
  const SubmitRecord submit = MakeSubmit();
  ASSERT_TRUE(writer.value()->AppendSubmit(submit).ok());
  for (uint64_t seq = 0; seq < 8; ++seq) {
    ASSERT_TRUE(writer.value()
                    ->AppendCompletion(CompletionRecord{seq, 1})
                    .ok());
  }

  Compactor compactor;
  CompactionJob job;
  job.writer = writer.value().get();
  job.submit = submit;
  job.snapshot.num_completions = 8;
  job.snapshot.next_assign_seq = 8;
  job.snapshot.runtime_state = "state-at-8";
  job.tail_offset = writer.value()->size();
  util::Status seen = util::Status::Internal("callback never ran");
  job.done = [&seen](const util::Status& status) { seen = status; };
  compactor.Enqueue(std::move(job));
  compactor.Drain();
  EXPECT_TRUE(seen.ok()) << seen.ToString();
  EXPECT_EQ(compactor.compactions(), 1);

  auto contents = ReadJournal(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_TRUE(contents.value().has_snapshot);
  EXPECT_TRUE(contents.value().completions.empty());  // all compacted away

  // After Stop, jobs are rejected through the callback.
  compactor.Stop();
  CompactionJob late;
  late.writer = writer.value().get();
  bool rejected = false;
  late.done = [&rejected](const util::Status& status) {
    rejected = !status.ok();
  };
  compactor.Enqueue(std::move(late));
  EXPECT_TRUE(rejected);
}

}  // namespace
}  // namespace persist
}  // namespace incentag

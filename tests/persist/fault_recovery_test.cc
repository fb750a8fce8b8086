// Storage-fault recovery sweep (ISSUE 10): ENOSPC injected at every
// sync-path fail point must either be retried to success (transient,
// within the ladder budget) or escalate to on_writer_sick (exhausted) —
// and in both cases every appended record must survive to a reader once
// the fault clears. Silent data loss is the one unacceptable outcome.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/persist/journal.h"
#include "src/persist/journal_sink.h"
#include "src/util/fail_point.h"
#include "src/util/file_io.h"

namespace incentag {
namespace persist {
namespace {

#if !INCENTAG_FAILPOINTS

TEST(FaultRecoveryTest, CompiledOut) {
  GTEST_SKIP() << "built with INCENTAG_FAILPOINTS=OFF";
}

#else

using util::FailPoint;

// Arms a registered fail point for the enclosing scope.
class ScopedFailPoint {
 public:
  ScopedFailPoint(const char* name, FailPoint::Trigger trigger,
                  FailPoint::Fault fault)
      : point_(FailPoint::Find(name)) {
    EXPECT_NE(point_, nullptr) << name;
    if (point_ != nullptr) point_->Arm(trigger, fault);
  }
  ~ScopedFailPoint() {
    if (point_ != nullptr) point_->Disarm();
  }
  FailPoint* point() { return point_; }

  static FailPoint::Trigger Fires(uint64_t max_fires) {
    FailPoint::Trigger t;
    t.mode = FailPoint::Mode::kAlways;
    t.max_fires = max_fires;
    return t;
  }
  static FailPoint::Fault Enospc() {
    FailPoint::Fault f;
    f.shape = FailPoint::Shape::kErrno;
    f.err = ENOSPC;
    return f;
  }
  static FailPoint::Fault ShortWrite(int64_t max_bytes) {
    FailPoint::Fault f;
    f.shape = FailPoint::Shape::kShortWrite;
    f.max_bytes = max_bytes;
    return f;
  }
  static FailPoint::Fault TornSync() {
    FailPoint::Fault f;
    f.shape = FailPoint::Shape::kTornSync;
    f.err = EIO;
    return f;
  }

 private:
  FailPoint* point_;
};

// A ladder that retries fast (microsecond backoffs) so the sweep stays
// well under a second per episode.
SyncRetryPolicy FastRetry() {
  SyncRetryPolicy retry;
  retry.max_attempts = 4;
  retry.initial_backoff_us = 1;
  retry.multiplier = 2.0;
  retry.max_backoff_us = 50;
  return retry;
}

int64_t CounterValue(const char* name) {
  return obs::Registry::Default().GetCounter(name, "")->Value();
}

class FaultRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("fault_recovery_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    util::FailPoint::DisarmAll();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::unique_ptr<JournalWriter> MakeWriter(const std::string& name) {
    auto writer = JournalWriter::Open(Path(name));
    EXPECT_TRUE(writer.ok()) << writer.status().ToString();
    SubmitRecord submit;
    submit.name = name;
    submit.strategy_name = "round_robin";
    EXPECT_TRUE(writer.value()->AppendSubmit(submit).ok());
    EXPECT_TRUE(writer.value()->SyncData().ok());
    return std::move(writer).value();
  }

  static void AppendBatch(JournalWriter* writer, uint64_t first_seq,
                          size_t count) {
    std::vector<CompletionRecord> records(count);
    for (size_t i = 0; i < count; ++i) {
      records[i].seq = first_seq + i;
      records[i].resource = static_cast<core::ResourceId>(i % 7);
    }
    ASSERT_TRUE(
        writer->AppendCompletionBatch(records.data(), records.size()).ok());
  }

  // One sink pass over `writer`, returning once it has landed (or the
  // ladder gave up on it).
  static void SyncThroughSink(JournalSink* sink, JournalWriter* writer) {
    sink->Schedule(writer);
    sink->Drain();
  }

  // Every record appended before the fault must be readable afterwards.
  void ExpectIntact(const std::string& name, size_t expected_completions) {
    auto contents = ReadJournal(Path(name));
    ASSERT_TRUE(contents.ok()) << contents.status().ToString();
    EXPECT_TRUE(contents.value().has_submit);
    ASSERT_EQ(contents.value().completions.size(), expected_completions);
    for (size_t i = 0; i < expected_completions; ++i) {
      EXPECT_EQ(contents.value().completions[i].seq, i);
    }
  }

  std::filesystem::path dir_;
};

// Transient ENOSPC at each per-fd sync point: the ladder retries within
// budget, the sick escalation never fires, and the journal is intact.
TEST_F(FaultRecoveryTest, TransientEnospcAtEverySyncPointIsRetried) {
  const char* kPoints[] = {"file_io/pwritev", "file_io/fdatasync"};
  for (const char* point : kPoints) {
    SCOPED_TRACE(point);
    JournalSinkOptions options;
    options.batch_interval_us = 0;
    options.retry = FastRetry();
    std::atomic<int> sick{0};
    options.on_writer_sick = [&](JournalWriter*, const util::Status&) {
      ++sick;
    };
    JournalSink sink(options);
    const std::string name = std::string("t_") + (point + 8) + ".journal";
    auto writer = MakeWriter(name);
    AppendBatch(writer.get(), 0, 16);

    const int64_t attempts_before =
        CounterValue("incentag_persist_retry_attempts_total");
    const int64_t success_before =
        CounterValue("incentag_persist_retry_success_total");
    {
      // Two failures, then clean: inside the 4-attempt ladder.
      ScopedFailPoint fp(point, ScopedFailPoint::Fires(2),
                         ScopedFailPoint::Enospc());
      SyncThroughSink(&sink, writer.get());
      EXPECT_EQ(fp.point()->fires(), 2u);
    }
    EXPECT_EQ(sick.load(), 0);
    EXPECT_GE(CounterValue("incentag_persist_retry_attempts_total"),
              attempts_before + 2);
    EXPECT_GE(CounterValue("incentag_persist_retry_success_total"),
              success_before + 1);
    sink.Stop();
    writer.reset();
    ExpectIntact(name, 16);
  }
}

// Sustained ENOSPC: the ladder exhausts, the writer is reported sick
// exactly once — and once space returns, nothing has been lost.
TEST_F(FaultRecoveryTest, ExhaustedLadderEscalatesWithoutDataLoss) {
  JournalSinkOptions options;
  options.batch_interval_us = 0;
  options.retry = FastRetry();
  std::atomic<int> sick{0};
  util::Status sick_status;
  options.on_writer_sick = [&](JournalWriter*, const util::Status& status) {
    ++sick;
    sick_status = status;
  };
  JournalSink sink(options);
  auto writer = MakeWriter("exhausted.journal");
  AppendBatch(writer.get(), 0, 32);

  const int64_t exhausted_before =
      CounterValue("incentag_persist_retry_exhausted_total");
  {
    ScopedFailPoint fp("file_io/fdatasync", ScopedFailPoint::Fires(0),
                       ScopedFailPoint::Enospc());
    SyncThroughSink(&sink, writer.get());  // per-journal, not fatal
  }
  EXPECT_EQ(sick.load(), 1);
  EXPECT_EQ(util::ClassifyIoError(sick_status),
            util::IoErrorClass::kTransient);
  EXPECT_GE(CounterValue("incentag_persist_retry_exhausted_total"),
            exhausted_before + 1);

  // Space returns (fault disarmed): the buffered bytes are still in the
  // writer and a plain sync lands them.
  ASSERT_TRUE(writer->Sync().ok());
  sink.Stop();
  writer.reset();
  ExpectIntact("exhausted.journal", 32);
}

// A torn fdatasync (bytes durable, completion lost — the fsyncgate
// shape) must not double-apply on retry: the reopen-and-restore rebuild
// re-appends from the durable offset and the journal decodes cleanly.
TEST_F(FaultRecoveryTest, TornSyncRetriesWithoutDuplication) {
  JournalSinkOptions options;
  options.batch_interval_us = 0;
  options.retry = FastRetry();
  std::atomic<int> sick{0};
  options.on_writer_sick = [&](JournalWriter*, const util::Status&) {
    ++sick;
  };
  JournalSink sink(options);
  auto writer = MakeWriter("torn.journal");
  AppendBatch(writer.get(), 0, 24);
  {
    ScopedFailPoint fp("file_io/fdatasync", ScopedFailPoint::Fires(1),
                       ScopedFailPoint::TornSync());
    SyncThroughSink(&sink, writer.get());
  }
  EXPECT_EQ(sick.load(), 0);
  sink.Stop();
  writer.reset();
  ExpectIntact("torn.journal", 24);
}

// The sink forwards the ladder and the sick escalation (the service
// layer builds on exactly this wiring for quarantine).
TEST_F(FaultRecoveryTest, SinkForwardsRetryPolicyAndSickCallback) {
  JournalSinkOptions options;
  options.batch_interval_us = 0;
  options.retry = FastRetry();
  std::atomic<int> sick{0};
  options.on_writer_sick = [&](JournalWriter*, const util::Status&) {
    ++sick;
  };
  std::atomic<int> storage_errors{0};
  options.on_storage_error = [&](const util::Status&) { ++storage_errors; };
  JournalSink sink(options);
  auto writer = MakeWriter("sink.journal");
  AppendBatch(writer.get(), 0, 12);
  {
    ScopedFailPoint fp("file_io/fdatasync", ScopedFailPoint::Fires(0),
                       ScopedFailPoint::Enospc());
    SyncThroughSink(&sink, writer.get());
  }
  EXPECT_EQ(sick.load(), 1);
  EXPECT_GE(storage_errors.load(), 4);  // one per ladder attempt
  // Quarantine wiring: untrack drops any pending dirty mark.
  sink.Untrack(writer.get());
  // Fault cleared: the records are still buffered and a sync lands them.
  ASSERT_TRUE(writer->Sync().ok());
  sink.Stop();
  writer.reset();
  ExpectIntact("sink.journal", 12);
}

// Compaction writes its rewrite straight to the kernel, one gathered
// pwritev per piece (submit + snapshot, bulk tail, delta). Capping every
// pwritev at 4 KiB forces the resume arithmetic on each piece, across
// the snapshot header/body seam too; the rewrite must still equal an
// unfaulted compaction byte for byte, and the writer must keep
// appending to it.
TEST_F(FaultRecoveryTest, CompactionUnderShortWritesMatchesUnfaulted) {
  SubmitRecord submit;
  submit.name = "compact";
  submit.strategy_name = "round_robin";
  SnapshotRecord snapshot;
  snapshot.num_completions = 40;
  snapshot.next_assign_seq = 50;  // num_completions + pending
  snapshot.pending = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3};
  // Several caps' worth of bytes, so the snapshot alone takes many
  // resumed writes.
  for (int i = 0; snapshot.runtime_state.size() < 50000; ++i) {
    snapshot.runtime_state += std::to_string(i * 7919) + ";";
  }
  constexpr int64_t kFrameBytes = 21;  // one framed completion record

  // Submit + 400 completions, compacted at completion 40 (a tail of
  // 7560 bytes, so the bulk copy is resumed too), then 400..409
  // appended to the compacted writer.
  auto build = [&](const std::string& name) {
    auto opened = JournalWriter::Open(Path(name));
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<JournalWriter> writer = std::move(opened).value();
    EXPECT_TRUE(writer->AppendSubmit(submit).ok());
    EXPECT_TRUE(writer->SyncData().ok());
    const int64_t base = writer->size();
    AppendBatch(writer.get(), 0, 400);
    EXPECT_TRUE(writer->Compact(submit, snapshot, base + 40 * kFrameBytes)
                    .ok());
    AppendBatch(writer.get(), 400, 10);
    EXPECT_TRUE(writer->Sync().ok());
    return writer;
  };

  auto plain = build("plain.journal");
  {
    ScopedFailPoint fp("file_io/pwritev", ScopedFailPoint::Fires(0),
                       ScopedFailPoint::ShortWrite(4096));
    auto faulted = build("short.journal");
    // The prefix alone needs over a dozen capped writes.
    EXPECT_GT(fp.point()->fires(), 12u);
  }

  auto want = util::ReadFileToString(Path("plain.journal"));
  auto got = util::ReadFileToString(Path("short.journal"));
  ASSERT_TRUE(want.ok() && got.ok());
  EXPECT_EQ(got.value(), want.value());

  auto contents = ReadJournal(Path("short.journal"));
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  const JournalContents& read = contents.value();
  EXPECT_TRUE(read.tail_status.ok());
  EXPECT_EQ(read.submit.name, submit.name);
  ASSERT_TRUE(read.has_snapshot);
  EXPECT_EQ(read.snapshot.num_completions, snapshot.num_completions);
  EXPECT_EQ(read.snapshot.next_assign_seq, snapshot.next_assign_seq);
  EXPECT_EQ(read.snapshot.pending, snapshot.pending);
  EXPECT_EQ(read.snapshot.runtime_state, snapshot.runtime_state);
  // The tail: completions 40..399 copied by the rewrite, then 400..409
  // appended through the adopted descriptor.
  ASSERT_EQ(read.completions.size(), 370u);
  for (size_t i = 0; i < read.completions.size(); ++i) {
    const uint64_t seq = 40 + i;
    EXPECT_EQ(read.completions[i].seq, seq);
    const uint64_t batch_index = seq < 400 ? seq : seq - 400;
    EXPECT_EQ(read.completions[i].resource,
              static_cast<core::ResourceId>(batch_index % 7));
  }
}

// A rewrite that fails before its rename leaves the journal as it was
// and no rewrite file beside it, and the writer keeps appending.
TEST_F(FaultRecoveryTest, FailedCompactionLeavesNoRewriteBehind) {
  auto writer = MakeWriter("failed.journal");
  const int64_t base = writer->size();
  AppendBatch(writer.get(), 0, 20);
  SubmitRecord submit;
  submit.name = "failed.journal";
  submit.strategy_name = "round_robin";
  SnapshotRecord snapshot;
  snapshot.num_completions = 10;
  snapshot.next_assign_seq = 10;
  size_t appended = 20;
  for (const char* point : {"compactor/rewrite", "compactor/rename"}) {
    {
      ScopedFailPoint fp(point, ScopedFailPoint::Fires(1),
                         ScopedFailPoint::Enospc());
      const int64_t tail = base + 10 * kFramedCompletionBytes;
      EXPECT_FALSE(writer->Compact(submit, snapshot, tail).ok()) << point;
    }
    EXPECT_FALSE(std::filesystem::exists(Path("failed.journal") +
                                         kCompactionTmpSuffix))
        << point;
    AppendBatch(writer.get(), appended, 5);
    appended += 5;
    ASSERT_TRUE(writer->Sync().ok());
    ExpectIntact("failed.journal", appended);
  }
}

// The directory fsync after a compaction's rename fails: the writer
// must already run on the rewrite, or its later appends would land in
// the unlinked old file and vanish on reopen. It owes the directory
// fsync, so its next sync retries it first and fails while it fails.
TEST_F(FaultRecoveryTest, FailedDirSyncAfterCompactionLosesNoRecord) {
  const std::string name = "dirsync.journal";
  auto writer = MakeWriter(name);
  const int64_t base = writer->size();
  AppendBatch(writer.get(), 0, 30);
  SubmitRecord submit;
  submit.name = name;
  submit.strategy_name = "round_robin";
  SnapshotRecord snapshot;
  snapshot.num_completions = 10;
  snapshot.next_assign_seq = 10;
  {
    ScopedFailPoint fp("file_io/syncdir", ScopedFailPoint::Fires(2),
                       ScopedFailPoint::Enospc());
    EXPECT_FALSE(
        writer->Compact(submit, snapshot, base + 10 * kFramedCompletionBytes)
            .ok());
    AppendBatch(writer.get(), 30, 10);
    EXPECT_FALSE(writer->SyncData().ok());  // the owed fsync fails again
    ASSERT_TRUE(writer->SyncData().ok());
    EXPECT_EQ(fp.point()->fires(), 2u);
  }
  EXPECT_FALSE(std::filesystem::exists(Path(name) + kCompactionTmpSuffix));

  // Reopened, the journal is the rewrite: the snapshot, then 10..39.
  writer.reset();
  auto contents = ReadJournal(Path(name));
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  ASSERT_TRUE(contents.value().has_snapshot);
  EXPECT_EQ(contents.value().snapshot.num_completions, 10u);
  ASSERT_EQ(contents.value().completions.size(), 30u);
  for (size_t i = 0; i < 30; ++i) {
    EXPECT_EQ(contents.value().completions[i].seq, 10 + i);
  }
}

#endif  // INCENTAG_FAILPOINTS

}  // namespace
}  // namespace persist
}  // namespace incentag

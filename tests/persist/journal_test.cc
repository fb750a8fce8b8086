#include "src/persist/journal.h"

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/persist/journal_sink.h"
#include "src/util/file_io.h"
#include "src/util/wire.h"
#include "tests/testing/test_util.h"

namespace incentag {
namespace persist {
namespace {

namespace fs = std::filesystem;

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = incentag::testing::TempPath(
        std::string("journal_test_") +
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
    record.name = "community-7";
    record.strategy_name = "FP-MU";
    record.seed = 0xDEADBEEFCAFEBABEull;
    record.options.budget = 1234;
    record.options.omega = 7;
    record.options.under_tagged_threshold = 11;
    record.options.batch_size = 16;
    record.options.checkpoints = {100, 500, 1234};
    record.options.priority = 9;
    record.options.deadline_seconds = 321.125;
    return record;
  }

  static void ExpectSubmitEqual(const SubmitRecord& want,
                                const SubmitRecord& got) {
    EXPECT_EQ(want.name, got.name);
    EXPECT_EQ(want.strategy_name, got.strategy_name);
    EXPECT_EQ(want.seed, got.seed);
    EXPECT_EQ(want.options.budget, got.options.budget);
    EXPECT_EQ(want.options.omega, got.options.omega);
    EXPECT_EQ(want.options.under_tagged_threshold,
              got.options.under_tagged_threshold);
    EXPECT_EQ(want.options.batch_size, got.options.batch_size);
    EXPECT_EQ(want.options.checkpoints, got.options.checkpoints);
    EXPECT_EQ(want.options.priority, got.options.priority);
    EXPECT_EQ(want.options.deadline_seconds, got.options.deadline_seconds);
  }

  // Writes a journal with `n` completions and returns its path.
  std::string WriteJournal(const std::string& name, size_t n) {
    const std::string path = PathFor(name);
    auto writer = JournalWriter::Open(path);
    EXPECT_TRUE(writer.ok()) << writer.status().ToString();
    EXPECT_TRUE(writer.value()->AppendSubmit(MakeSubmit()).ok());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(writer.value()
                      ->AppendCompletion(CompletionRecord{
                          i, static_cast<core::ResourceId>(i % 13)})
                      .ok());
    }
    EXPECT_TRUE(writer.value()->Sync().ok());
    return path;
  }

  fs::path dir_;
};

TEST_F(JournalTest, SubmitRecordRoundtrip) {
  const SubmitRecord want = MakeSubmit();
  SubmitRecord got;
  ASSERT_TRUE(DecodeSubmitRecord(EncodeSubmitRecord(want), &got).ok());
  ExpectSubmitEqual(want, got);
}

// A pre-scheduler (format v2) submit body — checkpoints are its last
// field — must decode with the baseline scheduling class, and a v2
// record must re-encode as a byte-identical v2 body (compaction rewrites
// a recovered journal's SubmitRecord verbatim).
TEST_F(JournalTest, V2SubmitBodyDecodesWithDefaultSchedulingClass) {
  const SubmitRecord want = MakeSubmit();
  std::string body;
  util::wire::PutU8(&body, static_cast<uint8_t>(RecordType::kSubmit));
  util::wire::PutU32(&body, 2);  // format_version: pre-scheduler
  util::wire::PutString(&body, want.name);
  util::wire::PutString(&body, want.strategy_name);
  util::wire::PutU64(&body, want.seed);
  util::wire::PutI64(&body, want.options.budget);
  util::wire::PutU32(&body, static_cast<uint32_t>(want.options.omega));
  util::wire::PutI64(&body, want.options.under_tagged_threshold);
  util::wire::PutI64(&body, want.options.batch_size);
  util::wire::PutU32(&body,
                     static_cast<uint32_t>(want.options.checkpoints.size()));
  for (int64_t checkpoint : want.options.checkpoints) {
    util::wire::PutI64(&body, checkpoint);
  }

  SubmitRecord got;
  ASSERT_TRUE(DecodeSubmitRecord(body, &got).ok());
  EXPECT_EQ(got.format_version, 2u);
  EXPECT_EQ(got.options.priority, 1);
  EXPECT_EQ(got.options.deadline_seconds, 0.0);
  EXPECT_EQ(want.options.checkpoints, got.options.checkpoints);

  // Re-encoding the decoded v2 record reproduces the v2 body exactly —
  // no v3 scheduling fields sneak in.
  EXPECT_EQ(EncodeSubmitRecord(got), body);
}

// A count field the body cannot hold is Corruption, not an allocation
// of the count's size.
TEST_F(JournalTest, HugeCountsAreCorruptionNotAllocations) {
  const SubmitRecord submit = MakeSubmit();
  std::string submit_body;
  util::wire::PutU8(&submit_body, static_cast<uint8_t>(RecordType::kSubmit));
  util::wire::PutU32(&submit_body, kJournalFormatVersion);
  util::wire::PutString(&submit_body, submit.name);
  util::wire::PutString(&submit_body, submit.strategy_name);
  util::wire::PutU64(&submit_body, submit.seed);
  util::wire::PutI64(&submit_body, submit.options.budget);
  util::wire::PutU32(&submit_body, 5);  // omega
  util::wire::PutI64(&submit_body, submit.options.under_tagged_threshold);
  util::wire::PutI64(&submit_body, submit.options.batch_size);
  util::wire::PutU32(&submit_body, 0xFFFFFFFFu);  // num_checkpoints
  util::wire::PutI64(&submit_body, 100);
  SubmitRecord got_submit;
  EXPECT_EQ(DecodeSubmitRecord(submit_body, &got_submit).code(),
            util::StatusCode::kCorruption);

  std::string snapshot_body;
  util::wire::PutU8(&snapshot_body,
                    static_cast<uint8_t>(RecordType::kSnapshot));
  util::wire::PutU32(&snapshot_body, kJournalFormatVersion);
  util::wire::PutU64(&snapshot_body, 10);                 // num_completions
  util::wire::PutU64(&snapshot_body, 10 + 0xFFFFFFFFull);  // next_assign_seq
  util::wire::PutU32(&snapshot_body, 0xFFFFFFFFu);        // num_pending
  util::wire::PutU32(&snapshot_body, 3);
  util::wire::PutString(&snapshot_body, "state");
  SnapshotRecord got_snapshot;
  EXPECT_EQ(DecodeSnapshotRecord(snapshot_body, &got_snapshot).code(),
            util::StatusCode::kCorruption);

  // The same bodies with honest counts still decode.
  SnapshotRecord honest;
  honest.num_completions = 10;
  honest.next_assign_seq = 12;
  honest.pending = {3, 4};
  honest.runtime_state = "state";
  ASSERT_TRUE(
      DecodeSnapshotRecord(EncodeSnapshotRecord(honest), &got_snapshot).ok());
  EXPECT_EQ(got_snapshot.pending, honest.pending);
}

TEST_F(JournalTest, CompletionRecordRoundtrip) {
  const CompletionRecord want{42, 7};
  CompletionRecord got;
  ASSERT_TRUE(DecodeCompletionRecord(EncodeCompletionRecord(want), &got).ok());
  EXPECT_EQ(want.seq, got.seq);
  EXPECT_EQ(want.resource, got.resource);
}

TEST_F(JournalTest, WriteThenReadBack) {
  const std::string path = WriteJournal("roundtrip.journal", 25);
  auto contents = ReadJournal(path);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_TRUE(contents.value().has_submit);
  ExpectSubmitEqual(MakeSubmit(), contents.value().submit);
  ASSERT_EQ(contents.value().completions.size(), 25u);
  for (size_t i = 0; i < 25; ++i) {
    EXPECT_EQ(contents.value().completions[i].seq, i);
    EXPECT_EQ(contents.value().completions[i].resource,
              static_cast<core::ResourceId>(i % 13));
  }
  EXPECT_TRUE(contents.value().tail_status.ok())
      << contents.value().tail_status.ToString();
  EXPECT_EQ(contents.value().valid_bytes,
            static_cast<int64_t>(fs::file_size(path)));
}

TEST_F(JournalTest, EncodeCompletionRecordToMatchesAllocatingEncode) {
  const CompletionRecord record{123456789, 42};
  std::string appended = "prefix-";
  EncodeCompletionRecordTo(record, &appended);
  EXPECT_EQ(appended.substr(7), EncodeCompletionRecord(record));

  std::string framed = "prefix-";
  AppendFramedCompletionRecord(record, &framed);
  EXPECT_EQ(framed.substr(7), FrameRecord(EncodeCompletionRecord(record)));
}

// Compaction cadences are written in completions times this constant.
TEST_F(JournalTest, FramedCompletionBytesMatchesTheEncoding) {
  for (const CompletionRecord& record :
       {CompletionRecord{0, 0}, CompletionRecord{~uint64_t{0}, 4000000000u}}) {
    EXPECT_EQ(static_cast<int64_t>(
                  FrameRecord(EncodeCompletionRecord(record)).size()),
              kFramedCompletionBytes);
  }
}

// The batched append is a pure fast path: the on-disk bytes must match a
// per-record append stream exactly, so v1–v3 readers (and compaction's
// tail copies) never notice which API produced a journal.
TEST_F(JournalTest, BatchAppendIsByteIdenticalToPerRecordAppends) {
  const std::string single_path = PathFor("single.journal");
  const std::string batch_path = PathFor("batch.journal");
  std::vector<CompletionRecord> records;
  for (uint64_t i = 0; i < 100; ++i) {
    records.push_back(CompletionRecord{i, static_cast<core::ResourceId>(i % 7)});
  }
  {
    auto writer = JournalWriter::Open(single_path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()->AppendSubmit(MakeSubmit()).ok());
    for (const CompletionRecord& record : records) {
      ASSERT_TRUE(writer.value()->AppendCompletion(record).ok());
    }
    ASSERT_TRUE(writer.value()->Sync().ok());
  }
  {
    auto writer = JournalWriter::Open(batch_path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()->AppendSubmit(MakeSubmit()).ok());
    // Uneven batch sizes, including an empty one (a legal no-op).
    ASSERT_TRUE(writer.value()->AppendCompletionBatch(records.data(), 1).ok());
    ASSERT_TRUE(writer.value()->AppendCompletionBatch(records.data() + 1, 0).ok());
    ASSERT_TRUE(
        writer.value()->AppendCompletionBatch(records.data() + 1, 63).ok());
    ASSERT_TRUE(
        writer.value()->AppendCompletionBatch(records.data() + 64, 36).ok());
    ASSERT_TRUE(writer.value()->Sync().ok());
  }
  auto single_bytes = util::ReadFileToString(single_path);
  auto batch_bytes = util::ReadFileToString(batch_path);
  ASSERT_TRUE(single_bytes.ok());
  ASSERT_TRUE(batch_bytes.ok());
  EXPECT_EQ(single_bytes.value(), batch_bytes.value());

  auto contents = ReadJournal(batch_path);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  ASSERT_EQ(contents.value().completions.size(), records.size());
  EXPECT_TRUE(contents.value().tail_status.ok());
}

TEST_F(JournalTest, TruncatedTailRecordIsDropped) {
  const std::string path = WriteJournal("truncated.journal", 10);
  const auto full_size = fs::file_size(path);
  // Tear the final record: cut 3 bytes out of its payload.
  fs::resize_file(path, full_size - 3);

  auto contents = ReadJournal(path);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_EQ(contents.value().completions.size(), 9u);
  EXPECT_FALSE(contents.value().tail_status.ok());
  EXPECT_LT(contents.value().valid_bytes,
            static_cast<int64_t>(full_size - 3));

  // Resuming at valid_bytes drops the torn tail and appends cleanly.
  auto writer = JournalWriter::Open(path, contents.value().valid_bytes);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE(writer.value()->AppendCompletion(CompletionRecord{9, 9}).ok());
  ASSERT_TRUE(writer.value()->Sync().ok());
  auto reread = ReadJournal(path);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(reread.value().completions.size(), 10u);
  EXPECT_TRUE(reread.value().tail_status.ok());
}

// Satellite (ISSUE 5): a crash during AppendCompletionBatch tears the
// batch at an arbitrary byte. The reader must keep every whole record of
// the batch that reached the disk, truncate the torn remainder as a
// benign tail, and let a resumed writer replay the lost suffix
// byte-identically to an uninterrupted journal.
TEST_F(JournalTest, KillDuringBatchAppendTruncatesToLastWholeRecord) {
  constexpr size_t kFrameBytes = 21;  // 8 header + 13 completion payload
  constexpr uint64_t kBatch = 16;
  std::vector<CompletionRecord> records;
  for (uint64_t i = 0; i < kBatch; ++i) {
    records.push_back(CompletionRecord{i, static_cast<core::ResourceId>(i)});
  }

  // The uninterrupted journal, for the byte-identity check at the end.
  const std::string want_path = PathFor("whole.journal");
  {
    auto writer = JournalWriter::Open(want_path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()->AppendSubmit(MakeSubmit()).ok());
    ASSERT_TRUE(
        writer.value()->AppendCompletionBatch(records.data(), kBatch).ok());
    ASSERT_TRUE(writer.value()->Sync().ok());
  }
  auto want_bytes = util::ReadFileToString(want_path);
  ASSERT_TRUE(want_bytes.ok());
  const size_t full_size = want_bytes.value().size();
  const size_t batch_start = full_size - kBatch * kFrameBytes;

  // Kill at every byte offset inside the batch's bytes (a torn write is
  // a prefix of the batch).
  for (size_t cut = batch_start + 1; cut < full_size; ++cut) {
    const std::string path = PathFor("torn.journal");
    fs::remove(path);
    fs::copy_file(want_path, path);
    fs::resize_file(path, cut);

    auto contents = ReadJournal(path);
    ASSERT_TRUE(contents.ok())
        << "cut " << cut << ": " << contents.status().ToString();
    const size_t whole = (cut - batch_start) / kFrameBytes;
    ASSERT_EQ(contents.value().completions.size(), whole) << "cut " << cut;
    EXPECT_EQ(contents.value().valid_bytes,
              static_cast<int64_t>(batch_start + whole * kFrameBytes));
    if (cut % kFrameBytes == batch_start % kFrameBytes) {
      // Cut exactly on a record boundary: a clean (if short) journal.
      EXPECT_TRUE(contents.value().tail_status.ok()) << "cut " << cut;
    } else {
      EXPECT_FALSE(contents.value().tail_status.ok()) << "cut " << cut;
    }

    // Resume at the last whole record and re-append the lost suffix: the
    // recovered journal must equal the uninterrupted one byte for byte.
    auto writer = JournalWriter::Open(path, contents.value().valid_bytes);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()
                    ->AppendCompletionBatch(records.data() + whole,
                                            kBatch - whole)
                    .ok());
    ASSERT_TRUE(writer.value()->Sync().ok());
    auto recovered = util::ReadFileToString(path);
    ASSERT_TRUE(recovered.ok());
    ASSERT_EQ(recovered.value(), want_bytes.value()) << "cut " << cut;
  }
}

TEST_F(JournalTest, CorruptCrcTailRecordIsDropped) {
  const std::string path = WriteJournal("corrupt.journal", 10);
  // Flip one byte in the last record's payload; its CRC no longer checks.
  {
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-1, std::ios::end);
    char byte;
    f.seekg(-1, std::ios::end);
    f.get(byte);
    f.seekp(-1, std::ios::end);
    f.put(static_cast<char>(byte ^ 0x5A));
  }
  auto contents = ReadJournal(path);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_EQ(contents.value().completions.size(), 9u);
  EXPECT_FALSE(contents.value().tail_status.ok());
  EXPECT_NE(contents.value().tail_status.message().find("crc"),
            std::string::npos)
      << contents.value().tail_status.ToString();
}

TEST_F(JournalTest, MidJournalCorruptionIsAHardError) {
  const std::string path = WriteJournal("midrot.journal", 10);
  const auto size = static_cast<std::streamoff>(fs::file_size(path));
  // Flip a payload byte of the 3rd-from-last record (each completion
  // frame is 8 header + 13 payload = 21 bytes): fully-present damage
  // with intact records after it is bit rot, not a torn tail — the
  // reader must refuse rather than silently truncate fsynced records.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    const std::streamoff target = size - 3 * 21 + 9;
    char byte;
    f.seekg(target);
    f.get(byte);
    f.seekp(target);
    f.put(static_cast<char>(byte ^ 0x5A));
  }
  auto contents = ReadJournal(path);
  ASSERT_FALSE(contents.ok());
  EXPECT_EQ(contents.status().code(), util::StatusCode::kCorruption);
  EXPECT_NE(contents.status().message().find("mid-journal"),
            std::string::npos)
      << contents.status().ToString();
}

TEST_F(JournalTest, EmptyOrTornFileHasNoSubmit) {
  const std::string path = PathFor("empty.journal");
  { std::ofstream f(path, std::ios::binary); }
  auto contents = ReadJournal(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_FALSE(contents.value().has_submit);
  EXPECT_EQ(contents.value().valid_bytes, 0);

  // A few garbage bytes (torn submit write) behave the same.
  { std::ofstream f(path, std::ios::binary); f << "torn"; }
  contents = ReadJournal(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_FALSE(contents.value().has_submit);
  EXPECT_FALSE(contents.value().tail_status.ok());
}

TEST_F(JournalTest, CompletionSeqGapIsStructuralCorruption) {
  const std::string path = PathFor("gap.journal");
  auto writer = JournalWriter::Open(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()->AppendSubmit(MakeSubmit()).ok());
  ASSERT_TRUE(writer.value()->AppendCompletion(CompletionRecord{0, 1}).ok());
  ASSERT_TRUE(writer.value()->AppendCompletion(CompletionRecord{2, 1}).ok());
  ASSERT_TRUE(writer.value()->Sync().ok());
  auto contents = ReadJournal(path);
  EXPECT_FALSE(contents.ok());
  EXPECT_EQ(contents.status().code(), util::StatusCode::kCorruption);
}

TEST_F(JournalTest, CompletionBeforeSubmitIsStructuralCorruption) {
  const std::string path = PathFor("order.journal");
  auto writer = JournalWriter::Open(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()->AppendCompletion(CompletionRecord{0, 1}).ok());
  ASSERT_TRUE(writer.value()->Sync().ok());
  auto contents = ReadJournal(path);
  EXPECT_FALSE(contents.ok());
  EXPECT_EQ(contents.status().code(), util::StatusCode::kCorruption);
}

TEST_F(JournalTest, SinkBatchesSyncsAndDrains) {
  const std::string path = PathFor("sink.journal");
  auto writer = JournalWriter::Open(path);
  ASSERT_TRUE(writer.ok());
  JournalSinkOptions options;
  options.batch_interval_us = 100;
  JournalSink sink(options);
  ASSERT_TRUE(writer.value()->AppendSubmit(MakeSubmit()).ok());
  for (uint64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(writer.value()
                    ->AppendCompletion(
                        CompletionRecord{i, static_cast<core::ResourceId>(i)})
                    .ok());
    sink.Schedule(writer.value().get());
  }
  sink.Drain();
  // Durable now: read the file back without touching the writer again.
  auto contents = ReadJournal(path);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_EQ(contents.value().completions.size(), 64u);
  // Coalescing must beat one fsync per append by a wide margin.
  EXPECT_GE(sink.syncs(), 1);
  EXPECT_LE(sink.syncs(), 64);
  sink.Stop();
  // Post-stop stragglers sync inline instead of being lost.
  ASSERT_TRUE(writer.value()->AppendCompletion(CompletionRecord{64, 1}).ok());
  sink.Schedule(writer.value().get());
  auto reread = ReadJournal(path);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(reread.value().completions.size(), 65u);
}

// A file walk reads a window at a time; it must yield exactly the frames
// a walk over the whole image in memory yields, including a record larger
// than the window and a torn tail.
TEST_F(JournalTest, FrameCursorOverAFileMatchesTheImage) {
  std::string bytes = FrameRecord(EncodeSubmitRecord(MakeSubmit()));
  for (uint64_t seq = 0; seq < 5000; ++seq) {
    bytes += FrameRecord(EncodeCompletionRecord(CompletionRecord{seq, 3}));
  }
  SnapshotRecord big;
  big.num_completions = 5000;
  big.next_assign_seq = 5000;
  big.runtime_state = std::string(200 << 10, 'r');  // 3x the window
  bytes += FrameRecord(EncodeSnapshotRecord(big));
  for (uint64_t seq = 5000; seq < 5100; ++seq) {
    bytes += FrameRecord(EncodeCompletionRecord(CompletionRecord{seq, 4}));
  }
  bytes += FrameRecord(EncodeCompletionRecord(CompletionRecord{5100, 4}))
               .substr(0, 15);
  const std::string path = PathFor("windowed.journal");
  {
    std::ofstream out(path, std::ios::binary);
    out << bytes;
  }
  FrameCursor image(bytes);
  auto file = FrameCursor::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  size_t frames = 0;
  while (image.Next()) {
    ASSERT_TRUE(file.value().Next()) << frames;
    EXPECT_EQ(image.offset(), file.value().offset());
    ASSERT_EQ(image.body(), file.value().body()) << frames;
    ++frames;
  }
  EXPECT_FALSE(file.value().Next());
  EXPECT_EQ(frames, 1u + 5000u + 1u + 100u);
  EXPECT_TRUE(file.value().status().ok());
  EXPECT_FALSE(file.value().tail_status().ok());
  EXPECT_EQ(image.valid_bytes(), file.value().valid_bytes());
  EXPECT_EQ(file.value().valid_bytes(),
            static_cast<int64_t>(bytes.size()) - 15);

  // ScanJournal agrees with ReadJournal on everything it keeps.
  auto summary = ScanJournal(path);
  auto contents = ReadJournal(path);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_TRUE(summary.value().has_snapshot);
  EXPECT_EQ(summary.value().snapshot_offset,
            contents.value().snapshot_offset);
  EXPECT_EQ(contents.value().snapshot.runtime_state, big.runtime_state);
  EXPECT_EQ(summary.value().num_completions, 5100u);
  EXPECT_EQ(contents.value().completions.size(), 5100u);
  EXPECT_EQ(summary.value().first_seq, 0u);
  EXPECT_EQ(summary.value().valid_bytes, contents.value().valid_bytes);

  // A bounded walk from the snapshot stops where it was told to.
  auto from_snapshot = FrameCursor::Open(
      path, summary.value().snapshot_offset, summary.value().valid_bytes);
  ASSERT_TRUE(from_snapshot.ok());
  ASSERT_TRUE(from_snapshot.value().Next());
  SnapshotView view;
  ASSERT_TRUE(DecodeSnapshotView(from_snapshot.value().body(), &view).ok());
  EXPECT_EQ(view.num_completions, 5000u);
  EXPECT_EQ(view.runtime_state, big.runtime_state);
  size_t tail = 0;
  while (from_snapshot.value().Next()) ++tail;
  EXPECT_EQ(tail, 100u);
  EXPECT_TRUE(from_snapshot.value().tail_status().ok());

  EXPECT_FALSE(FrameCursor::Open(path, 0, static_cast<int64_t>(bytes.size()) +
                                              1)
                   .ok());
}

// Compaction copies the tail only as whole, intact frames: a tail offset
// off a frame boundary fails the rewrite and leaves the journal as it was.
TEST_F(JournalTest, CompactRefusesATailThatIsNotWholeFrames) {
  const std::string path = WriteJournal("misaligned.journal", 20);
  auto before = util::ReadFileToString(path);
  ASSERT_TRUE(before.ok());
  auto writer = JournalWriter::Open(path);
  ASSERT_TRUE(writer.ok());
  SnapshotRecord snapshot;
  snapshot.num_completions = 10;
  snapshot.next_assign_seq = 10;
  const int64_t size = static_cast<int64_t>(before.value().size());
  util::Status status = writer.value()->Compact(MakeSubmit(), snapshot,
                                                size - 21 * 10 + 3);
  EXPECT_EQ(status.code(), util::StatusCode::kCorruption)
      << status.ToString();
  EXPECT_EQ(util::ReadFileToString(path).value(), before.value());
}

// A closed writer has nothing left to make durable: a sink pass that
// still holds it syncs nothing and succeeds; appends and compaction fail.
TEST_F(JournalTest, ClosedWriterSyncsNothingAndAppendsNothing) {
  const std::string path = WriteJournal("closed.journal", 5);
  auto writer = JournalWriter::Open(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()->Close().ok());
  EXPECT_TRUE(writer.value()->Flush().ok());
  EXPECT_TRUE(writer.value()->Sync().ok());
  EXPECT_TRUE(writer.value()->SyncData().ok());
  EXPECT_FALSE(writer.value()->AppendCompletion(CompletionRecord{5, 1}).ok());
  SnapshotRecord snapshot;
  EXPECT_EQ(writer.value()->Compact(MakeSubmit(), snapshot, 0).code(),
            util::StatusCode::kFailedPrecondition);
  // Refused before the rewrite file was created.
  EXPECT_FALSE(fs::exists(path + kCompactionTmpSuffix));
  auto contents = ReadJournal(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents.value().completions.size(), 5u);
}

}  // namespace
}  // namespace persist
}  // namespace incentag

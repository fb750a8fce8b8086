// Fuzz target for the journal reader's one entry point, the frame cursor
// and the record rules behind it (persist::ScanFrames). The input is a
// journal image. Built two ways: linked into persist_journal_fuzz_test,
// whose gtest driver replays a seed corpus and seeded mutations through
// it, and alone with clang's -fsanitize=fuzzer as a libFuzzer binary.
//
// Beyond "no crash, no out-of-bounds read", it checks what recovery relies
// on: the frames tile the valid bytes, and everything the first pass
// accepts, the replay pass reads back and decodes.
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "src/persist/journal.h"
#include "src/util/logging.h"

using incentag::persist::CompletionRecord;
using incentag::persist::FrameCursor;
using incentag::persist::JournalSummary;
using incentag::persist::RecordType;
using incentag::persist::SnapshotRecord;
using incentag::persist::SnapshotView;

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);

  // Framing: every frame starts where the previous one ended, and a walk
  // that ends without damage covers every byte.
  FrameCursor frames(bytes);
  int64_t end = 0;
  while (frames.Next()) {
    INCENTAG_CHECK(frames.offset() == end);
    end = frames.valid_bytes();
    INCENTAG_CHECK(end - frames.offset() ==
                   static_cast<int64_t>(8 + frames.body().size()));
  }
  INCENTAG_CHECK(frames.valid_bytes() == end);
  INCENTAG_CHECK(end <= static_cast<int64_t>(size));
  if (frames.status().ok() && frames.tail_status().ok()) {
    INCENTAG_CHECK(end == static_cast<int64_t>(size));
  }

  // Records: the first pass accepts or refuses the whole journal.
  FrameCursor scan(bytes);
  JournalSummary summary;
  if (!incentag::persist::ScanFrames(&scan, &summary).ok()) return 0;
  INCENTAG_CHECK(summary.valid_bytes == end);
  INCENTAG_CHECK(summary.has_snapshot == (summary.snapshot_offset >= 0));

  // The replay pass: from the latest good snapshot (or the start) to the
  // valid bytes, every completion decodes and continues the sequence.
  const int64_t from = summary.has_snapshot ? summary.snapshot_offset : 0;
  FrameCursor replay(bytes.substr(static_cast<size_t>(from),
                                  static_cast<size_t>(end - from)),
                     from);
  uint64_t next_seq = summary.first_seq;
  if (summary.has_snapshot) {
    INCENTAG_CHECK(replay.Next());
    SnapshotView view;
    INCENTAG_CHECK(
        incentag::persist::DecodeSnapshotView(replay.body(), &view).ok());
    SnapshotRecord record;
    INCENTAG_CHECK(
        incentag::persist::DecodeSnapshotRecord(replay.body(), &record).ok());
    INCENTAG_CHECK(record.pending.size() ==
                   view.next_assign_seq - view.num_completions);
    next_seq = view.num_completions;
  }
  while (replay.Next()) {
    if (replay.body()[0] != static_cast<char>(RecordType::kCompletion)) {
      continue;
    }
    CompletionRecord record;
    INCENTAG_CHECK(
        incentag::persist::DecodeCompletionRecord(replay.body(), &record)
            .ok());
    INCENTAG_CHECK(record.seq == next_seq);
    ++next_seq;
  }
  INCENTAG_CHECK(replay.status().ok() && replay.tail_status().ok());
  return 0;
}

// Seed journals and seeded mutations for the journal fuzz targets' gtest
// drivers (persist_journal_fuzz_test, service_recover_fuzz_test). The
// seeds are built with the record encoders in the shapes the journal
// tests use; the mutations are the damage a disk or a bad writer can do
// to them: truncation, bit flips, and counts inflated past what the body
// holds. A flip or an inflated count inside a frame is re-sealed with a
// fresh CRC too, so the decoders behind the CRC check see it.
#ifndef INCENTAG_TESTS_TESTING_JOURNAL_CORPUS_H_
#define INCENTAG_TESTS_TESTING_JOURNAL_CORPUS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/persist/journal.h"
#include "src/util/crc32.h"
#include "src/util/random.h"
#include "src/util/wire.h"

namespace incentag {
namespace testing {

inline std::string SubmitFrame(uint32_t format_version = 3) {
  persist::SubmitRecord record;
  record.format_version = format_version;
  record.name = "fuzz-seed";
  record.strategy_name = "FP";
  record.seed = 7;
  record.options.budget = 40;
  record.options.omega = 5;
  record.options.batch_size = 4;
  record.options.checkpoints = {10, 20, 40};
  return persist::FrameRecord(persist::EncodeSubmitRecord(record));
}

inline std::string CompletionFrame(uint64_t seq) {
  return persist::FrameRecord(persist::EncodeCompletionRecord(
      persist::CompletionRecord{seq, static_cast<core::ResourceId>(seq % 5)}));
}

inline std::string SnapshotFrame(uint64_t num_completions,
                                 uint32_t format_version = 3) {
  persist::SnapshotRecord record;
  record.format_version = format_version;
  record.num_completions = num_completions;
  record.pending = {1, 3};
  record.next_assign_seq = num_completions + record.pending.size();
  record.runtime_state = "opaque runtime state";
  return persist::FrameRecord(persist::EncodeSnapshotRecord(record));
}

inline std::string CancelFrame() {
  return persist::FrameRecord(std::string(
      1, static_cast<char>(persist::RecordType::kCancel)));
}

// Journal images of every layout the reader knows, valid and torn.
inline std::vector<std::string> SeedJournals() {
  std::string trace;
  for (uint64_t seq = 0; seq < 6; ++seq) trace += CompletionFrame(seq);
  std::string tail;
  for (uint64_t seq = 10; seq < 14; ++seq) tail += CompletionFrame(seq);
  std::string after_inline;
  for (uint64_t seq = 6; seq < 9; ++seq) after_inline += CompletionFrame(seq);
  return {
      "",
      SubmitFrame(),
      SubmitFrame() + trace,
      SubmitFrame(2) + trace,
      SubmitFrame() + trace + CancelFrame(),
      // Compacted: submit + snapshot + tail.
      SubmitFrame() + SnapshotFrame(10) + tail,
      // Uncompacted with an inline checkpoint.
      SubmitFrame() + trace + SnapshotFrame(6) + after_inline,
      // A snapshot of a newer format, which falls back to full replay.
      SubmitFrame() + SnapshotFrame(0, 99) + trace,
      // Torn tails: a partial frame, and unsynced garbage.
      SubmitFrame() + trace + CompletionFrame(6).substr(0, 11),
      SubmitFrame() + trace + std::string(9, '\x07'),
  };
}

// Start offset of every intact frame of a journal image.
inline std::vector<size_t> FrameStarts(std::string_view bytes) {
  std::vector<size_t> starts;
  persist::FrameCursor cursor(bytes);
  while (cursor.Next()) starts.push_back(static_cast<size_t>(cursor.offset()));
  return starts;
}

// Recomputes the CRC of the frame at `start` over its length word and
// payload, so damage inside it passes the frame check.
inline void ResealFrame(std::string* bytes, size_t start) {
  util::wire::Reader header(std::string_view(*bytes).substr(start, 4));
  uint32_t length = 0;
  header.GetU32(&length);
  uint32_t crc = util::Crc32(std::string_view(*bytes).substr(start, 4));
  crc = util::Crc32(std::string_view(*bytes).substr(start + 8, length), crc);
  std::string word;
  util::wire::PutU32(&word, crc);
  bytes->replace(start + 4, 4, word);
}

// `count` mutants of `seed`, drawn from `rng`.
inline std::vector<std::string> Mutants(const std::string& seed,
                                        util::Rng* rng, int count) {
  std::vector<std::string> out;
  const std::vector<size_t> starts = FrameStarts(seed);
  for (int i = 0; i < count; ++i) {
    std::string bytes = seed;
    const uint64_t kind = rng->NextBounded(5);
    if (bytes.empty() || kind == 0) {
      // Truncation (a torn write), or garbage appended to an empty file.
      if (bytes.empty()) {
        bytes.assign(1 + rng->NextBounded(12),
                     static_cast<char>(rng->NextBounded(256)));
      } else {
        bytes.resize(rng->NextBounded(bytes.size()));
      }
    } else if (kind == 1 || starts.empty()) {
      // A raw bit flip anywhere: the CRC check must catch it.
      const size_t at = rng->NextBounded(bytes.size());
      bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng->NextBounded(8)));
    } else {
      const size_t start = starts[rng->NextBounded(starts.size())];
      util::wire::Reader header(std::string_view(bytes).substr(start, 4));
      uint32_t length = 0;
      header.GetU32(&length);
      if (kind == 4) {
        // An inflated frame length (no reseal: the length word is under
        // the CRC, so this is torn or corrupt data to the cursor).
        std::string word;
        util::wire::PutU32(&word, length + 1 + static_cast<uint32_t>(
                                                   rng->NextBounded(1 << 20)));
        bytes.replace(start, 4, word);
      } else if (length > 0) {
        const size_t body = start + 8;
        if (kind == 2) {
          // A flipped bit inside the payload, resealed.
          const size_t at = body + rng->NextBounded(length);
          bytes[at] =
              static_cast<char>(bytes[at] ^ (1 << rng->NextBounded(8)));
        } else if (length >= 5) {
          // A u32 inside the payload inflated to a huge count, resealed:
          // the shape of a count that must not size an allocation.
          const size_t at = body + 1 + rng->NextBounded(length - 4);
          std::string word;
          util::wire::PutU32(&word, rng->NextBounded(2) == 0
                                        ? 0xFFFFFFFFu
                                        : 0x7FFFFFF0u);
          bytes.replace(at, 4, word);
        }
        ResealFrame(&bytes, start);
      }
    }
    out.push_back(std::move(bytes));
  }
  return out;
}

}  // namespace testing
}  // namespace incentag

#endif  // INCENTAG_TESTS_TESTING_JOURNAL_CORPUS_H_

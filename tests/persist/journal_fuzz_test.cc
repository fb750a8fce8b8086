// Drives the journal fuzz target (journal_fuzz_target.cc) without a
// fuzzing engine: the seed corpus from tests/testing/journal_corpus.h,
// then seeded mutations of every seed. A finding aborts the process with
// the failed check. Also runs the target on the journals a real writer
// leaves: one per shape, written through JournalWriter and compacted.
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/persist/journal.h"
#include "src/util/file_io.h"
#include "src/util/random.h"
#include "tests/testing/test_util.h"
#include "tests/testing/journal_corpus.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size);

namespace incentag {
namespace persist {
namespace {

namespace fs = std::filesystem;

void RunTarget(const std::string& bytes) {
  LLVMFuzzerTestOneInput(reinterpret_cast<const uint8_t*>(bytes.data()),
                         bytes.size());
}

TEST(JournalFuzzTest, SeedCorpusAndMutations) {
  util::Rng rng(0x10E1F022);
  int runs = 0;
  for (const std::string& seed : testing::SeedJournals()) {
    RunTarget(seed);
    for (const std::string& mutant : testing::Mutants(seed, &rng, 2000)) {
      RunTarget(mutant);
      ++runs;
    }
  }
  EXPECT_GT(runs, 0);
}

// The seeds accepted in full are exactly the undamaged ones.
TEST(JournalFuzzTest, SeedsScanAsTheirShapesSay) {
  const std::vector<std::string> seeds = testing::SeedJournals();
  ASSERT_EQ(seeds.size(), 10u);
  for (size_t i = 0; i < seeds.size(); ++i) {
    FrameCursor cursor(seeds[i]);
    JournalSummary summary;
    ASSERT_TRUE(ScanFrames(&cursor, &summary).ok()) << i;
    EXPECT_EQ(summary.tail_status.ok(), i < 8) << i;
    EXPECT_EQ(summary.has_snapshot, i == 5 || i == 6) << i;
    EXPECT_EQ(summary.snapshot_status.ok(), i != 7) << i;
  }
}

// Journals as JournalWriter writes them, plain and compacted, with their
// mutants.
TEST(JournalFuzzTest, WrittenJournalsAndMutations) {
  const fs::path dir = incentag::testing::TempPath("journal_fuzz_test");
  fs::remove_all(dir);
  ASSERT_TRUE(util::CreateDirectories(dir.string()).ok());
  const std::string path = (dir / "campaign-1.journal").string();
  auto writer = JournalWriter::Open(path, 0);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  SubmitRecord submit;
  submit.name = "written";
  submit.strategy_name = "RR";
  submit.options.budget = 64;
  submit.options.checkpoints = {32, 64};
  ASSERT_TRUE(writer.value()->AppendSubmit(submit).ok());
  std::vector<CompletionRecord> batch;
  for (uint64_t seq = 0; seq < 24; ++seq) {
    batch.push_back(CompletionRecord{seq, static_cast<core::ResourceId>(seq)});
  }
  ASSERT_TRUE(
      writer.value()->AppendCompletionBatch(batch.data(), batch.size()).ok());
  ASSERT_TRUE(writer.value()->Sync().ok());
  std::vector<std::string> journals;
  journals.push_back(util::ReadFileToString(path).value());

  SnapshotRecord snapshot;
  snapshot.num_completions = 20;
  snapshot.pending = {7};
  snapshot.next_assign_seq = 21;
  snapshot.runtime_state = std::string(300, 's');
  const int64_t tail_offset =
      static_cast<int64_t>(testing::FrameStarts(journals[0])[21]);
  ASSERT_TRUE(writer.value()->Compact(submit, snapshot, tail_offset).ok());
  journals.push_back(util::ReadFileToString(path).value());

  util::Rng rng(0xC0FFEE);
  for (const std::string& journal : journals) {
    RunTarget(journal);
    for (const std::string& mutant : testing::Mutants(journal, &rng, 2000)) {
      RunTarget(mutant);
    }
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace persist
}  // namespace incentag

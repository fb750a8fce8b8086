// Drives the recovery fuzz target (recover_fuzz_target.cc) without a
// fuzzing engine. The seeds are the encoder-built journals of
// tests/testing/journal_corpus.h plus journals a journaled manager wrote
// over the target's dataset: plain, compacted, and ending in a cancel
// record. Each seed and its seeded mutations go through the target; a
// finding aborts the process with the failed check.
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/persist/journal.h"
#include "src/service/campaign_manager.h"
#include "src/sim/strategy_factory.h"
#include "src/util/file_io.h"
#include "src/util/random.h"
#include "tests/testing/test_util.h"
#include "tests/testing/journal_corpus.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size);
incentag::util::Result<incentag::service::CampaignConfig> RecoverFuzzFactory(
    const incentag::persist::SubmitRecord& record);

namespace incentag {
namespace service {
namespace {

namespace fs = std::filesystem;

void RunTarget(const std::string& bytes) {
  LLVMFuzzerTestOneInput(reinterpret_cast<const uint8_t*>(bytes.data()),
                         bytes.size());
}

// Journals of finished campaigns, one per strategy, written by a
// deterministic manager (compacting every `compact_bytes` journal bytes;
// 0 = never) through the target's own factory.
std::vector<std::string> WrittenJournals(int64_t compact_bytes) {
  const fs::path dir = incentag::testing::TempPath(
      "recover_fuzz_test_" + std::to_string(compact_bytes));
  fs::remove_all(dir);
  std::vector<std::string> out;
  {
    ManagerOptions options;
    options.deterministic = true;
    options.journal_dir = dir.string();
    options.compact_journal_bytes = compact_bytes;
    CampaignManager manager(options);
    for (int kind = 0; kind < 5; ++kind) {
      persist::SubmitRecord record;
      record.name = "seed-" + std::to_string(kind);
      record.strategy_name = std::string(sim::StrategyNameForKind(kind));
      record.seed = 40 + static_cast<uint64_t>(kind);
      record.options.budget = 60 + 7 * kind;
      record.options.batch_size = kind % 2 == 0 ? 4 : 1;
      record.options.checkpoints = {30, record.options.budget};
      auto config = RecoverFuzzFactory(record);
      EXPECT_TRUE(config.ok()) << config.status().ToString();
      auto id = manager.Submit(std::move(config).value());
      EXPECT_TRUE(id.ok()) << id.status().ToString();
    }
    manager.Shutdown();
  }
  for (int i = 1; i <= 5; ++i) {
    auto bytes = util::ReadFileToString(
        (dir / ("campaign-" + std::to_string(i) + ".journal")).string());
    EXPECT_TRUE(bytes.ok());
    out.push_back(std::move(bytes).value());
  }
  fs::remove_all(dir);
  return out;
}

TEST(RecoverFuzzTest, SeedCorpusAndMutations) {
  std::vector<std::string> seeds = testing::SeedJournals();
  for (int64_t compact_bytes :
       {int64_t{0}, 25 * persist::kFramedCompletionBytes}) {
    for (std::string& journal : WrittenJournals(compact_bytes)) {
      seeds.push_back(journal + testing::CancelFrame());
      seeds.push_back(std::move(journal));
    }
  }
  util::Rng rng(0x4EC0FE4);
  for (const std::string& seed : seeds) {
    RunTarget(seed);
    for (const std::string& mutant : testing::Mutants(seed, &rng, 40)) {
      RunTarget(mutant);
    }
  }
}

}  // namespace
}  // namespace service
}  // namespace incentag

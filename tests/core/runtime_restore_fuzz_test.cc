// Drives the snapshot restore fuzz target (runtime_restore_fuzz_target.cc)
// without a fuzzing engine. The seeds are mid-run snapshots of every
// strategy the factory builds (RR, FP, MU, FP-MU, FC) over the target's
// dataset: at t=0, mid-batch with assignments outstanding, and at the end
// of the budget, each against both tables. Each seed and its seeded
// mutations (truncations, bit flips, counts inflated past what the blob
// holds) go through the target, and so do FC blobs whose draw count is
// inflated past the budget; a finding aborts the process with the failed
// check.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/campaign_runtime.h"
#include "src/core/initial_state.h"
#include "src/core/post_stream.h"
#include "src/util/random.h"
#include "src/util/wire.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size);
incentag::core::EngineOptions RuntimeFuzzOptions();
std::unique_ptr<incentag::core::Strategy> RuntimeFuzzStrategy(
    uint8_t selector, std::shared_ptr<void>* context);
std::unique_ptr<incentag::core::CampaignRuntime> RuntimeFuzzRuntime();
incentag::core::VectorPostStream RuntimeFuzzStream();
std::shared_ptr<const incentag::core::InitialState> RuntimeFuzzTable(
    uint8_t selector);

namespace incentag {
namespace core {
namespace {

// The target's input: the two selector bytes, then the blob.
std::string Input(uint8_t strategy, uint8_t table, const std::string& blob) {
  std::string bytes;
  bytes.push_back(static_cast<char>(strategy));
  bytes.push_back(static_cast<char>(table));
  return bytes + blob;
}

void RunTarget(const std::string& bytes) {
  LLVMFuzzerTestOneInput(reinterpret_cast<const uint8_t*>(bytes.data()),
                         bytes.size());
}

// Snapshots of one campaign of strategy `kind`: after Begin, after
// `batches` batches with the last one half applied, and after the whole
// budget.
std::vector<std::string> Snapshots(uint8_t kind, int batches) {
  std::shared_ptr<void> context;
  std::unique_ptr<Strategy> strategy = RuntimeFuzzStrategy(kind, &context);
  VectorPostStream stream = RuntimeFuzzStream();
  std::unique_ptr<CampaignRuntime> runtime = RuntimeFuzzRuntime();
  std::vector<std::string> out;
  EXPECT_TRUE(runtime->Begin(strategy.get(), &stream).ok());
  std::string blob;
  EXPECT_TRUE(runtime->SerializeResumableState(&blob).ok());
  out.push_back(blob);
  std::vector<ResourceId> batch;
  for (int b = 0; b < batches && !runtime->done(); ++b) {
    EXPECT_TRUE(runtime->DrawBatch(&batch).ok());
    if (batch.empty()) break;
    const size_t applied = b + 1 == batches ? batch.size() / 2 : batch.size();
    runtime->ApplyCompletionBatch(batch.data(), applied);
  }
  blob.clear();
  EXPECT_TRUE(runtime->SerializeResumableState(&blob).ok());
  out.push_back(blob);
  while (!runtime->done()) {
    EXPECT_TRUE(runtime->DrawBatch(&batch).ok());
    if (batch.empty()) break;
    runtime->ApplyCompletionBatch(batch.data(), batch.size());
  }
  blob.clear();
  EXPECT_TRUE(runtime->SerializeResumableState(&blob).ok());
  out.push_back(blob);
  return out;
}

// `count` mutants of `seed`, drawn from `rng`. The two selector bytes are
// left alone, so each mutant exercises the seed's strategy and table.
std::vector<std::string> Mutants(const std::string& seed, util::Rng* rng,
                                 int count) {
  std::vector<std::string> out;
  const size_t body = seed.size() - 2;
  for (int i = 0; i < count; ++i) {
    std::string bytes = seed;
    const uint64_t kind = rng->NextBounded(3);
    if (kind == 0) {
      // Truncation (a torn write).
      bytes.resize(2 + rng->NextBounded(body));
    } else if (kind == 1) {
      // A bit flip anywhere in the blob.
      const size_t at = 2 + rng->NextBounded(body);
      bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng->NextBounded(8)));
    } else if (body >= 4) {
      // A u32 inflated to a huge count: the shape of a count that must
      // not size an allocation or a loop.
      const size_t at = 2 + rng->NextBounded(body - 3);
      std::string word;
      util::wire::PutU32(&word, rng->NextBounded(2) == 0 ? 0xFFFFFFFFu
                                                         : 0x7FFFFFF0u);
      bytes.replace(at, 4, word);
    }
    out.push_back(std::move(bytes));
  }
  return out;
}

TEST(RuntimeRestoreFuzzTest, SeedCorpusAndMutations) {
  util::Rng rng(0x5EED23);
  for (uint8_t kind = 0; kind < 5; ++kind) {
    for (const std::string& blob : Snapshots(kind, 7 + kind)) {
      for (uint8_t table : {uint8_t{0}, uint8_t{1}}) {
        const std::string seed = Input(kind, table, blob);
        RunTarget(seed);
        for (const std::string& mutant : Mutants(seed, &rng, 150)) {
          RunTarget(mutant);
        }
      }
    }
  }
}

// FC restores its picker by redrawing the blob's draw count, so a count
// past what the campaign's budget allows is refused before any draw: a
// CRC-valid blob with 2^40 there would otherwise stall for hours, and one
// with 0xFFFFFFFF for ~35 s.
TEST(RuntimeRestoreFuzzTest, FcDrawCountPastTheBudgetIsRejected) {
  constexpr uint8_t kFc = 4;
  const size_t n = RuntimeFuzzRuntime()->num_resources();
  for (const std::string& blob : Snapshots(kFc, 3)) {
    // FC's state ends the blob: draws (u64), n (u64), n exhausted flags.
    const size_t draws_at = blob.size() - (8 + 8 + n);
    for (uint64_t draws : {uint64_t{1} << 40, uint64_t{0xFFFFFFFF}}) {
      std::string inflated = blob;
      std::string word;
      util::wire::PutU64(&word, draws);
      inflated.replace(draws_at, 8, word);
      for (uint8_t table : {uint8_t{0}, uint8_t{1}}) {
        RunTarget(Input(kFc, table, inflated));
        std::shared_ptr<void> context;
        std::unique_ptr<Strategy> strategy =
            RuntimeFuzzStrategy(kFc, &context);
        VectorPostStream stream = RuntimeFuzzStream();
        std::unique_ptr<CampaignRuntime> runtime = RuntimeFuzzRuntime();
        EXPECT_EQ(runtime
                      ->RestoreResumableState(inflated, strategy.get(),
                                              &stream, RuntimeFuzzTable(table))
                      .code(),
                  util::StatusCode::kCorruption)
            << draws << " table " << int{table};
      }
    }
  }
}

// The seeds themselves restore: a target that refused every seed would
// check nothing.
TEST(RuntimeRestoreFuzzTest, SeedsRestore) {
  for (uint8_t kind = 0; kind < 5; ++kind) {
    for (const std::string& blob : Snapshots(kind, 3)) {
      for (uint8_t table : {uint8_t{0}, uint8_t{1}}) {
        std::shared_ptr<void> context;
        std::unique_ptr<Strategy> strategy =
            RuntimeFuzzStrategy(kind, &context);
        VectorPostStream stream = RuntimeFuzzStream();
        std::unique_ptr<CampaignRuntime> runtime = RuntimeFuzzRuntime();
        EXPECT_TRUE(runtime
                        ->RestoreResumableState(blob, strategy.get(), &stream,
                                                RuntimeFuzzTable(table))
                        .ok())
            << "kind " << int{kind} << " table " << int{table};
      }
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace incentag

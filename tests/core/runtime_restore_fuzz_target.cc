// Fuzz target for campaign snapshot restore. The input is one strategy
// selector byte, one table selector byte and a runtime state blob, as
// CampaignRuntime::SerializeResumableState writes it. A fresh runtime
// over a small dataset restores the blob; that reaches every per-resource
// decoder (ResourceState, TagCounts, MaTracker, QualityTracker), the
// evaluation and the selected strategy's RestoreState. The table byte
// picks a trajectory table built from January (the blob's resource bytes
// are compared to its rows) or a fresh one (the blob's states seed it).
// A blob the restore accepts must serialize back to itself byte for
// byte, and the restored campaign must run to its end. Built into
// core_runtime_restore_fuzz_test (a gtest driver with a seed corpus) and,
// with clang's -fsanitize=fuzzer, alone.
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/campaign_runtime.h"
#include "src/core/initial_state.h"
#include "src/core/post_stream.h"
#include "src/sim/dataset_prep.h"
#include "src/sim/generator.h"
#include "src/sim/strategy_factory.h"
#include "src/util/logging.h"

using incentag::core::CampaignRuntime;
using incentag::core::EngineOptions;
using incentag::core::InitialState;
using incentag::core::ResourceId;

EngineOptions RuntimeFuzzOptions();

namespace {

// A small dataset, built once per process.
const incentag::sim::PreparedDataset& Dataset() {
  static const incentag::sim::PreparedDataset* dataset = [] {
    incentag::sim::CorpusConfig config;
    config.num_resources = 24;
    config.seed = 20261018;
    auto corpus = incentag::sim::Corpus::Generate(config);
    INCENTAG_CHECK(corpus.ok());
    auto prep = incentag::sim::PrepareFromCorpus(corpus.value(),
                                                 incentag::sim::PrepConfig{});
    INCENTAG_CHECK(prep.ok());
    return new incentag::sim::PreparedDataset(std::move(prep).value());
  }();
  return *dataset;
}

// The dataset's table, built from January once; restores only read it.
std::shared_ptr<const InitialState> BuiltTable() {
  static const std::shared_ptr<const InitialState> table = [] {
    const incentag::sim::PreparedDataset& dataset = Dataset();
    auto built = std::make_shared<const InitialState>(
        &dataset.initial_posts, &dataset.future_posts, &dataset.references,
        RuntimeFuzzOptions().omega);
    INCENTAG_CHECK(built->BuildFromJanuary().ok());
    return built;
  }();
  return table;
}

}  // namespace

// The options every fuzzed campaign runs with (the seeds' too).
EngineOptions RuntimeFuzzOptions() {
  EngineOptions options;
  options.budget = 240;
  options.omega = 5;
  options.batch_size = 4;
  options.checkpoints = {60, 120, 240};
  return options;
}

// The strategy the selector byte names, over the target's dataset.
std::unique_ptr<incentag::core::Strategy> RuntimeFuzzStrategy(
    uint8_t selector, std::shared_ptr<void>* context) {
  const incentag::sim::PreparedDataset& dataset = Dataset();
  return incentag::sim::MakeStrategyByName(
      incentag::sim::StrategyNameForKind(selector % 5), dataset.popularity,
      /*seed=*/77, context);
}

// A fresh runtime over the target's dataset.
std::unique_ptr<CampaignRuntime> RuntimeFuzzRuntime() {
  const incentag::sim::PreparedDataset& dataset = Dataset();
  return std::make_unique<CampaignRuntime>(
      RuntimeFuzzOptions(), &dataset.initial_posts, &dataset.references);
}

// A stream over the target's dataset: it borrows the static dataset's
// future posts.
incentag::core::VectorPostStream RuntimeFuzzStream() {
  return Dataset().MakeStream();
}

// The table the selector byte names: odd is the shared one built from
// January, even a fresh one that the blob seeds.
std::shared_ptr<const InitialState> RuntimeFuzzTable(uint8_t selector) {
  return selector % 2 == 1 ? BuiltTable() : nullptr;
}

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size < 2) return 0;
  const std::string_view blob(reinterpret_cast<const char*>(data) + 2,
                              size - 2);
  std::shared_ptr<void> context;
  std::unique_ptr<incentag::core::Strategy> strategy =
      RuntimeFuzzStrategy(data[0], &context);
  INCENTAG_CHECK(strategy != nullptr);
  incentag::core::VectorPostStream stream = RuntimeFuzzStream();
  std::unique_ptr<CampaignRuntime> runtime = RuntimeFuzzRuntime();
  if (!runtime
           ->RestoreResumableState(blob, strategy.get(), &stream,
                                   RuntimeFuzzTable(data[1]))
           .ok()) {
    return 0;
  }
  std::string again;
  INCENTAG_CHECK(runtime->SerializeResumableState(&again).ok());
  INCENTAG_CHECK(again == blob);
  // A restored campaign runs to its end. The snapshot's outstanding
  // assignments live outside the blob, so the run draws afresh; a strategy
  // that then misbehaves stops the loop with an error, never a crash.
  std::vector<ResourceId> batch;
  while (!runtime->done()) {
    if (!runtime->DrawBatch(&batch).ok() || batch.empty()) break;
    runtime->ApplyCompletionBatch(batch.data(), batch.size());
  }
  runtime->Finish();
  return 0;
}

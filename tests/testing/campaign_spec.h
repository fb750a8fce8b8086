// A campaign's deterministic inputs and how the tests build campaigns from
// them: a prepared dataset per (corpus size, seed), Spec, the config
// builder Submit, Recover and the /v1 edge share, the spec lists of the
// cross-path table and the test completion sources. Free of gtest, so a
// fuzz target linked alone can use it too.
#ifndef INCENTAG_TESTS_TESTING_CAMPAIGN_SPEC_H_
#define INCENTAG_TESTS_TESTING_CAMPAIGN_SPEC_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/core/allocation.h"
#include "src/core/post_stream.h"
#include "src/persist/journal.h"
#include "src/service/api/dto.h"
#include "src/service/campaign_manager.h"
#include "src/sim/dataset_prep.h"
#include "src/sim/generator.h"
#include "src/sim/strategy_factory.h"
#include "src/util/logging.h"

namespace incentag {
namespace testing {

// The prepared dataset of the generated corpus with `num_resources`
// resources and `seed`. Built on first use and kept to the end of the
// process, so it outlives every manager that reads it.
inline const sim::PreparedDataset& Dataset(int64_t num_resources,
                                           uint64_t seed) {
  static std::mutex mu;
  static std::map<std::pair<int64_t, uint64_t>,
                  std::unique_ptr<sim::PreparedDataset>>
      cache;
  std::lock_guard<std::mutex> lock(mu);
  std::unique_ptr<sim::PreparedDataset>& slot = cache[{num_resources, seed}];
  if (slot == nullptr) {
    sim::CorpusConfig config;
    config.num_resources = num_resources;
    config.seed = seed;
    auto corpus = sim::Corpus::Generate(config);
    INCENTAG_CHECK(corpus.ok());
    auto prep = sim::PrepareFromCorpus(corpus.value(), sim::PrepConfig{});
    INCENTAG_CHECK(prep.ok());
    slot = std::make_unique<sim::PreparedDataset>(std::move(prep).value());
  }
  return *slot;
}

// One campaign's deterministic inputs.
struct Spec {
  std::string name;
  std::string strategy;
  core::EngineOptions options;
  uint64_t seed = 0;  // the strategy's seed (FC's crowd), journaled
};

// Checkpoints at 0, a quarter, a half and all of `budget`: what the /v1
// builder derives, since a submit body carries no checkpoints.
inline std::vector<int64_t> BudgetCheckpoints(int64_t budget) {
  return {0, budget / 4, budget / 2, budget};
}

inline Spec SpecOf(const persist::SubmitRecord& record) {
  return {record.name, record.strategy_name, record.options, record.seed};
}

inline Spec SpecOf(const service::api::SubmitCampaignRequest& request) {
  Spec spec{request.name, request.strategy, {}, request.seed};
  spec.options.budget = request.budget;
  spec.options.omega = request.omega;
  spec.options.under_tagged_threshold = request.under_tagged_threshold;
  spec.options.batch_size = request.batch_size;
  spec.options.priority = request.priority;
  spec.options.deadline_seconds = request.deadline_seconds;
  spec.options.checkpoints = BudgetCheckpoints(request.budget);
  return spec;
}

// The campaign `spec` describes over `dataset`, its stream reading the
// dataset's shared future posts. The builder of Submit, of the Recover
// factory and of the /v1 edge alike.
inline util::Result<service::CampaignConfig> BuildConfig(
    const sim::PreparedDataset& dataset, const Spec& spec) {
  service::CampaignConfig config;
  config.name = spec.name;
  config.options = spec.options;
  config.initial_posts = &dataset.initial_posts;
  config.references = &dataset.references;
  config.seed = spec.seed;
  config.strategy = sim::MakeStrategyByName(spec.strategy, dataset.popularity,
                                            spec.seed, &config.context);
  if (config.strategy == nullptr) {
    return util::Status::InvalidArgument("unknown strategy " + spec.strategy);
  }
  config.stream =
      std::make_unique<core::VectorPostStream>(dataset.MakeStream());
  return config;
}

// The campaign most service tests run: strategy
// sim::StrategyNameForKind(kind), omega 5, checkpoints at a quarter, a half
// and all of the budget, batches of 16 when kind % 3 == 0.
inline Spec KindSpec(int kind, int64_t budget, uint64_t seed) {
  Spec spec{"campaign-" + std::to_string(kind),
            std::string(sim::StrategyNameForKind(kind)), {}, seed};
  spec.options.budget = budget;
  spec.options.omega = 5;
  spec.options.checkpoints = {budget / 4, budget / 2, budget};
  spec.options.batch_size = (kind % 3 == 0) ? 16 : 1;
  return spec;
}

// One spec per strategy (RR, FP, MU, FP-MU, FC), batch sizes 16 and 1
// alternating, omega 5.
inline std::vector<Spec> StrategySpecs() {
  std::vector<Spec> specs;
  for (int kind = 0; kind < 5; ++kind) {
    Spec spec;
    spec.strategy = std::string(sim::StrategyNameForKind(kind));
    spec.name = "strategy-" + spec.strategy;
    spec.seed = 301 + static_cast<uint64_t>(kind);
    spec.options.budget = 250 + 20 * kind;
    spec.options.omega = 5;
    spec.options.batch_size = kind % 2 == 0 ? 16 : 1;
    spec.options.priority = 1 + 4 * (kind % 3);
    spec.options.deadline_seconds = kind % 2 == 0 ? 0.5 : 0.0;
    spec.options.checkpoints = BudgetCheckpoints(spec.options.budget);
    specs.push_back(std::move(spec));
  }
  return specs;
}

// A fleet over two omegas on one dataset: four strategies x two budgets x
// omegas 3 and 5, under-tagged thresholds 10 and 4 alternating. RR and FP
// ignore omega, so fleet-i and fleet-(i + 8) of theirs walk the same posts
// side by side.
inline std::vector<Spec> MixedFleet() {
  std::vector<Spec> specs;
  for (int i = 0; i < 16; ++i) {
    Spec spec;
    spec.name = "fleet-" + std::to_string(i);
    spec.strategy = std::string(sim::StrategyNameForKind(i % 4));
    spec.options.budget = (i / 4) % 2 == 0 ? 150 : 600;
    spec.options.omega = i < 8 ? 3 : 5;
    spec.options.under_tagged_threshold = i % 2 == 0 ? 10 : 4;
    spec.options.batch_size = 16;
    spec.options.priority = 1 + 4 * (i % 3);
    spec.options.deadline_seconds = (i / 2) % 2 == 0 ? 0.5 : 0.0;
    spec.options.checkpoints = BudgetCheckpoints(spec.options.budget);
    specs.push_back(std::move(spec));
  }
  return specs;
}

// The cross-path table's spec list: both of the above. Every option in it
// is expressible in a /v1 submit body.
inline std::vector<Spec> CrossPathSpecs() {
  std::vector<Spec> specs = StrategySpecs();
  for (Spec& spec : MixedFleet()) specs.push_back(std::move(spec));
  return specs;
}

// Completes the first `limit` tasks inline and drops the rest, so a
// campaign wedges mid-run at a known point. Never reports itself closed.
class LimitedCompletionSource : public service::CompletionSource {
 public:
  explicit LimitedCompletionSource(int64_t limit) : remaining_(limit) {}

  bool SubmitTasks(const std::vector<service::TaskHandle>& tasks,
                   const CompletionFn& done) override {
    for (const service::TaskHandle& task : tasks) {
      if (remaining_ > 0) {
        --remaining_;
        done(std::span<const service::TaskHandle>(&task, 1));
      }
    }
    return true;
  }

 private:
  int64_t remaining_;
};

// Completes only the tasks whose seq is below a per-campaign cutoff and
// drops the rest, so each campaign wedges at its own point mid-run.
// Stateless, hence safe to call from every pool worker at once.
class CutoffCompletionSource : public service::CompletionSource {
 public:
  static uint64_t Cutoff(service::CampaignId campaign) {
    return 30 + 7 * (campaign % 16);
  }

  bool SubmitTasks(const std::vector<service::TaskHandle>& tasks,
                   const CompletionFn& done) override {
    std::vector<service::TaskHandle> kept;
    for (const service::TaskHandle& task : tasks) {
      if (task.seq < Cutoff(task.campaign)) kept.push_back(task);
    }
    if (!kept.empty()) done(std::span<const service::TaskHandle>(kept));
    return true;
  }
};

}  // namespace testing
}  // namespace incentag

#endif  // INCENTAG_TESTS_TESTING_CAMPAIGN_SPEC_H_

#include "bench/e2e/fleet.h"

#include <bit>
#include <chrono>

#include "bench/e2e/measure.h"
#include "src/core/campaign_runtime.h"
#include "src/core/post_stream.h"
#include "src/sim/strategy_factory.h"
#include "src/util/random.h"

namespace incentag {
namespace e2e {
namespace {

// Sizes are tuned so a 20 s run holds several rounds, set-up included,
// on a 4-core machine (see README.md); --smoke shrinks every workload to
// a few milliseconds so the whole suite checks its plumbing quickly.
WorkloadSpec FleetInline() {
  WorkloadSpec s;
  s.name = "fleet_inline";
  s.drive = Drive::kInline;
  s.resources = 2000;
  s.campaigns = 256;
  s.small_budget = 3000;
  return s;
}

WorkloadSpec FleetDurable() {
  WorkloadSpec s = FleetInline();
  s.name = "fleet_durable";
  s.journaled = true;
  s.recover = true;
  s.compact_journal_bytes = 256 << 10;
  return s;
}

WorkloadSpec HttpIngest() {
  WorkloadSpec s;
  s.name = "http_ingest";
  s.drive = Drive::kIngest;
  s.resources = 500;
  s.campaigns = 48;
  s.small_budget = 2000;
  s.journaled = true;
  s.writers = 3;
  return s;
}

WorkloadSpec HttpMixed() {
  WorkloadSpec s;
  s.name = "http_mixed";
  s.drive = Drive::kMixed;
  s.resources = 500;
  s.campaigns = 256;
  s.small_budget = 400;
  s.journaled = true;
  s.writers = 2;
  return s;
}

WorkloadSpec Smoke(WorkloadSpec s) {
  s.resources = 200;
  s.campaigns = s.drive == Drive::kIngest ? 4 : 8;
  s.small_budget = 100;
  if (s.compact_journal_bytes > 0) s.compact_journal_bytes = 4 << 10;
  return s;
}

const std::vector<WorkloadSpec>& Workloads(bool smoke) {
  static const std::vector<WorkloadSpec> full = {FleetInline(), FleetDurable(),
                                                 HttpIngest(), HttpMixed()};
  static const std::vector<WorkloadSpec> tiny = [] {
    std::vector<WorkloadSpec> out;
    for (const WorkloadSpec& s : full) out.push_back(Smoke(s));
    return out;
  }();
  return smoke ? tiny : full;
}

}  // namespace

const WorkloadSpec* FindWorkload(std::string_view name, bool smoke) {
  for (const WorkloadSpec& s : Workloads(smoke)) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

util::Result<std::unique_ptr<Dataset>> PrepareDataset(int64_t resources,
                                                      uint64_t seed) {
  sim::CorpusConfig corpus_config;
  corpus_config.num_resources = resources;
  corpus_config.seed = seed;
  // Year lengths follow the popularity rank alone, so every seed yields
  // about the same volume of posts; each campaign copies the future posts
  // into its stream, and that copy sets much of rss_peak_mb.
  corpus_config.year_jitter_sigma = 0.0;
  auto corpus = sim::Corpus::Generate(corpus_config);
  if (!corpus.ok()) return corpus.status();
  auto out = std::make_unique<Dataset>();
  out->corpus = std::make_unique<sim::Corpus>(std::move(corpus).value());
  sim::PrepConfig prep_config;
  prep_config.seed = seed;
  auto prepared = sim::PrepareFromCorpus(*out->corpus, prep_config);
  if (!prepared.ok()) return prepared.status();
  out->prepared = std::move(prepared).value();
  return out;
}

bool SameDataset(const sim::PreparedDataset& a,
                 const sim::PreparedDataset& b) {
  if (a.initial_posts != b.initial_posts || a.future_posts != b.future_posts ||
      a.references.size() != b.references.size()) {
    return false;
  }
  for (size_t i = 0; i < a.references.size(); ++i) {
    if (a.references[i].stable_point != b.references[i].stable_point) {
      return false;
    }
  }
  return true;
}

std::vector<CampaignSpec> MakeFleet(const WorkloadSpec& spec, uint64_t seed) {
  const size_t n = static_cast<size_t>(spec.campaigns);
  const size_t clients = spec.writers > 0 ? static_cast<size_t>(spec.writers)
                                          : 1;
  std::vector<CampaignSpec> fleet(n);
  // Fleet indices per (client, budget class).
  std::vector<std::vector<size_t>> groups(clients * 2);
  for (size_t i = 0; i < n; ++i) {
    fleet[i].client = static_cast<int>(i % clients);
    fleet[i].large = (i / clients) % kLargeEvery == 0;
    groups[(i % clients) * 2 + (fleet[i].large ? 1 : 0)].push_back(i);
  }
  // Every group gets each strategy equally often, in a seeded order.
  util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0xE2E);
  for (const std::vector<size_t>& group : groups) {
    std::vector<int> strategies(group.size());
    for (size_t k = 0; k < group.size(); ++k) {
      strategies[k] = static_cast<int>(k % kNumStrategies);
    }
    util::Shuffle(&strategies, &rng);
    for (size_t k = 0; k < group.size(); ++k) {
      fleet[group[k]].strategy = strategies[k];
    }
  }
  return fleet;
}

core::EngineOptions OptionsFor(const WorkloadSpec& spec, bool large) {
  core::EngineOptions options;
  options.budget = spec.small_budget * (large ? kLargeFactor : 1);
  options.omega = 5;
  options.batch_size = kBatchSize;
  options.checkpoints = {options.budget / 4, options.budget / 2,
                         3 * options.budget / 4};
  // Large campaigns are the critical scheduling class. The round-robin
  // scheduler ignores the weight; it only labels queue-wait samples.
  options.priority = large ? 2 : 1;
  return options;
}

namespace {

service::CampaignConfig BaseConfig(const Dataset& dataset,
                                   std::string_view strategy) {
  const sim::PreparedDataset& ds = dataset.prepared;
  service::CampaignConfig config;
  config.initial_posts = &ds.initial_posts;
  config.references = &ds.references;
  config.strategy =
      sim::MakeStrategyByName(strategy, ds.popularity, 0, &config.context);
  config.stream = std::make_unique<core::VectorPostStream>(ds.MakeStream());
  return config;
}

}  // namespace

service::CampaignConfig MakeConfig(const Dataset& dataset,
                                   const WorkloadSpec& spec,
                                   const CampaignSpec& campaign,
                                   size_t index) {
  service::CampaignConfig config =
      BaseConfig(dataset, kStrategies[campaign.strategy]);
  config.name = spec.name + "-" + std::to_string(index);
  config.options = OptionsFor(spec, campaign.large);
  return config;
}

service::CampaignManager::CampaignFactory RecoveryFactory(
    const Dataset& dataset) {
  return [&dataset](const persist::SubmitRecord& record)
             -> util::Result<service::CampaignConfig> {
    service::CampaignConfig config =
        BaseConfig(dataset, record.strategy_name);
    if (config.strategy == nullptr) {
      return util::Status::InvalidArgument("unknown strategy " +
                                           record.strategy_name);
    }
    config.name = record.name;
    config.options = record.options;
    config.seed = record.seed;
    return config;
  };
}

util::Result<References> RunReferences(const Dataset& dataset,
                                       const WorkloadSpec& spec) {
  using Clock = std::chrono::steady_clock;
  const sim::PreparedDataset& ds = dataset.prepared;
  References refs;
  for (int s = 0; s < kNumStrategies; ++s) {
    for (int large = 0; large < 2; ++large) {
      std::shared_ptr<void> context;
      std::unique_ptr<core::Strategy> strategy = sim::MakeStrategyByName(
          kStrategies[s], ds.popularity, 0, &context);
      core::VectorPostStream stream = ds.MakeStream();
      core::CampaignRuntime runtime(OptionsFor(spec, large == 1),
                                    &ds.initial_posts, &ds.references);
      INCENTAG_RETURN_IF_ERROR(runtime.Begin(strategy.get(), &stream));
      std::vector<core::ResourceId> batch;
      CoreTiming& timing = refs.timing[s];
      while (!runtime.done()) {
        const Clock::time_point t0 = Clock::now();
        {
          Span span("draw_batch", "core");
          INCENTAG_RETURN_IF_ERROR(runtime.DrawBatch(&batch));
        }
        const Clock::time_point t1 = Clock::now();
        if (batch.empty()) break;
        {
          Span span("apply_batch", "core");
          runtime.ApplyCompletionBatch(batch.data(), batch.size());
        }
        const Clock::time_point t2 = Clock::now();
        timing.draw_ns +=
            std::chrono::duration<double, std::nano>(t1 - t0).count();
        timing.apply_ns +=
            std::chrono::duration<double, std::nano>(t2 - t1).count();
        timing.tasks += static_cast<int64_t>(batch.size());
      }
      refs.report[s][large] = runtime.Finish();
    }
  }
  return refs;
}

namespace {

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SameMetrics(const core::AllocationMetrics& a,
                 const core::AllocationMetrics& b) {
  return a.budget_used == b.budget_used &&
         SameBits(a.avg_quality, b.avg_quality) &&
         a.over_tagged == b.over_tagged && a.wasted_posts == b.wasted_posts &&
         a.under_tagged == b.under_tagged;
}

}  // namespace

std::string DiffReports(const core::RunReport& want,
                        const core::RunReport& got) {
  if (want.strategy_name != got.strategy_name) return "strategy name";
  if (want.allocation != got.allocation) return "allocation";
  if (want.checkpoints.size() != got.checkpoints.size()) {
    return "checkpoint count";
  }
  for (size_t i = 0; i < want.checkpoints.size(); ++i) {
    if (!SameMetrics(want.checkpoints[i], got.checkpoints[i])) {
      return "checkpoint " + std::to_string(i);
    }
  }
  if (!SameMetrics(want.final_metrics, got.final_metrics)) {
    return "final metrics";
  }
  if (want.budget_spent != got.budget_spent) return "budget_spent";
  if (want.stopped_early != got.stopped_early) return "stopped_early";
  return "";
}

}  // namespace e2e
}  // namespace incentag

// Fleet isolation over one dataset's shared state: every campaign's stream
// comes from one dataset's MakeStream(), so the whole fleet reads a single
// copy of the future posts at once, each campaign through its own
// cursors. The manager also hands every campaign the dataset's trajectory
// table for its omega (initial_state.h), from which the campaign reads
// every resource's state; the fleet mixes two omegas, so the manager
// holds two tables for one dataset, and two under-tagged thresholds,
// which each campaign recounts. Every report must be byte-identical to a
// CampaignRuntime run over the campaign's own owning copy of the posts
// and its own table build, both on the threaded
// manager and after a journaled kill + Recover. The sanitizer builds run
// this test too, which puts the shared reads under TSan and ASan.
#include <bit>
#include <chrono>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/campaign_runtime.h"
#include "src/core/post_stream.h"
#include "src/service/campaign_manager.h"
#include "src/sim/dataset_prep.h"
#include "src/sim/generator.h"
#include "src/sim/strategy_factory.h"
#include "src/util/file_io.h"
#include "tests/testing/test_util.h"

namespace incentag {
namespace service {
namespace {

namespace fs = std::filesystem;
using std::chrono::milliseconds;

constexpr std::string_view kStrategies[] = {"RR", "FP", "MU", "FP-MU"};
constexpr int64_t kBudgets[] = {150, 600};
// Every strategy x budget pair once per omega; the under-tagged threshold
// alternates across neighbours, so each omega's campaigns use both. RR
// and FP ignore omega, so campaigns i and i + 8 of theirs still walk the
// same posts side by side.
constexpr int kCampaigns = 16;

std::string_view StrategyOf(int index) { return kStrategies[index % 4]; }
int64_t BudgetOf(int index) { return kBudgets[(index / 4) % 2]; }
int OmegaOf(int index) { return index < 8 ? 3 : 5; }
int64_t UnderTaggedThresholdOf(int index) { return index % 2 == 0 ? 10 : 4; }

// Completes only the tasks whose seq is below a per-campaign cutoff and
// drops the rest, so each campaign wedges at its own point mid-run.
// Stateless, hence safe to call from every pool worker at once.
class CutoffCompletionSource : public CompletionSource {
 public:
  static uint64_t Cutoff(CampaignId campaign) {
    return 30 + 7 * (campaign % 16);
  }

  bool SubmitTasks(const std::vector<TaskHandle>& tasks,
                   const CompletionFn& done) override {
    std::vector<TaskHandle> kept;
    for (const TaskHandle& task : tasks) {
      if (task.seq < Cutoff(task.campaign)) kept.push_back(task);
    }
    if (!kept.empty()) done(std::span<const TaskHandle>(kept));
    return true;
  }
};

class FleetIsolationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::CorpusConfig config;
    config.num_resources = 60;
    config.seed = 20261017;
    auto corpus = sim::Corpus::Generate(config);
    ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
    auto prep = sim::PrepareFromCorpus(corpus.value(), sim::PrepConfig{});
    ASSERT_TRUE(prep.ok()) << prep.status().ToString();
    dataset_ = new sim::PreparedDataset(std::move(prep).value());
  }

  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  void SetUp() override {
    dir_ = incentag::testing::TempPath("fleet_isolation_test");
    fs::remove_all(dir_);
    ASSERT_TRUE(util::CreateDirectories(dir_.string()).ok());
  }

  void TearDown() override { fs::remove_all(dir_); }

  static core::EngineOptions MakeOptions(int index) {
    const int64_t budget = BudgetOf(index);
    core::EngineOptions options;
    options.budget = budget;
    options.omega = OmegaOf(index);
    options.under_tagged_threshold = UnderTaggedThresholdOf(index);
    options.batch_size = 16;
    options.checkpoints = {0, budget / 4, budget / 2, budget};
    return options;
  }

  // Strategy and options from `name`/`options`, stream from the shared
  // dataset: the same builder serves Submit and the Recover factory.
  static util::Result<CampaignConfig> BuildConfig(
      std::string name, std::string_view strategy,
      const core::EngineOptions& options) {
    CampaignConfig config;
    config.name = std::move(name);
    config.options = options;
    config.initial_posts = &dataset_->initial_posts;
    config.references = &dataset_->references;
    config.strategy = sim::MakeStrategyByName(strategy, dataset_->popularity,
                                              0, &config.context);
    if (config.strategy == nullptr) {
      return util::Status::InvalidArgument("unknown strategy " +
                                           std::string(strategy));
    }
    config.stream =
        std::make_unique<core::VectorPostStream>(dataset_->MakeStream());
    return config;
  }

  static CampaignConfig MakeConfig(int index) {
    auto config = BuildConfig("fleet-" + std::to_string(index),
                              StrategyOf(index), MakeOptions(index));
    EXPECT_TRUE(config.ok()) << config.status().ToString();
    return std::move(config).value();
  }

  static util::Result<CampaignConfig> Factory(
      const persist::SubmitRecord& record) {
    return BuildConfig(record.name, record.strategy_name, record.options);
  }

  // The reference: one CampaignRuntime over its own copy of the posts,
  // building its own trajectory table.
  static core::RunReport RunReference(int index) {
    std::shared_ptr<void> context;
    auto strategy = sim::MakeStrategyByName(
        StrategyOf(index), dataset_->popularity, 0, &context);
    const core::PostStore posts = dataset_->future_posts;
    core::VectorPostStream stream(&posts);
    core::CampaignRuntime runtime(MakeOptions(index),
                                  &dataset_->initial_posts,
                                  &dataset_->references);
    EXPECT_TRUE(runtime.Begin(strategy.get(), &stream).ok());
    std::vector<core::ResourceId> batch;
    while (!runtime.done()) {
      EXPECT_TRUE(runtime.DrawBatch(&batch).ok());
      if (batch.empty()) break;
      runtime.ApplyCompletionBatch(batch.data(), batch.size());
    }
    return runtime.Finish();
  }

  static void ExpectSameMetrics(const core::AllocationMetrics& want,
                                const core::AllocationMetrics& got,
                                const std::string& label) {
    EXPECT_EQ(want.budget_used, got.budget_used) << label;
    EXPECT_EQ(std::bit_cast<uint64_t>(want.avg_quality),
              std::bit_cast<uint64_t>(got.avg_quality))
        << label;
    EXPECT_EQ(want.over_tagged, got.over_tagged) << label;
    EXPECT_EQ(want.wasted_posts, got.wasted_posts) << label;
    EXPECT_EQ(want.under_tagged, got.under_tagged) << label;
  }

  static void ExpectSameReport(const core::RunReport& want,
                               const core::RunReport& got,
                               const std::string& label) {
    EXPECT_EQ(want.strategy_name, got.strategy_name) << label;
    EXPECT_EQ(want.allocation, got.allocation) << label;
    EXPECT_EQ(want.budget_spent, got.budget_spent) << label;
    EXPECT_EQ(want.stopped_early, got.stopped_early) << label;
    ASSERT_EQ(want.checkpoints.size(), got.checkpoints.size()) << label;
    for (size_t i = 0; i < want.checkpoints.size(); ++i) {
      ExpectSameMetrics(want.checkpoints[i], got.checkpoints[i],
                        label + " checkpoint " + std::to_string(i));
    }
    ExpectSameMetrics(want.final_metrics, got.final_metrics, label + " final");
  }

  // Waits for every campaign in `manager` to finish and checks each
  // report against its reference, matching campaigns by name.
  static void ExpectFleetMatchesReferences(
      CampaignManager& manager, const std::vector<CampaignId>& ids,
      const std::vector<core::RunReport>& references,
      const std::string& label) {
    ASSERT_EQ(ids.size(), static_cast<size_t>(kCampaigns)) << label;
    std::vector<bool> seen(kCampaigns, false);
    for (CampaignId id : ids) {
      auto result = manager.WaitFor(id, milliseconds(60000));
      ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
      ASSERT_EQ(result.value().state, CampaignState::kDone) << label;
      auto status = manager.Status(id);
      ASSERT_TRUE(status.ok()) << label;
      const int index = std::stoi(status.value().name.substr(6));
      ASSERT_GE(index, 0);
      ASSERT_LT(index, kCampaigns);
      EXPECT_FALSE(seen[index]) << label << " " << status.value().name;
      seen[index] = true;
      ExpectSameReport(references[index], result.value().report,
                       label + " " + status.value().name);
    }
  }

  static sim::PreparedDataset* dataset_;
  fs::path dir_;
};

sim::PreparedDataset* FleetIsolationTest::dataset_ = nullptr;

TEST_F(FleetIsolationTest, SharedPostsGiveEachCampaignItsOwnReport) {
  std::vector<core::RunReport> references;
  for (int i = 0; i < kCampaigns; ++i) references.push_back(RunReference(i));

  // Live: the threaded manager steps the whole fleet concurrently.
  {
    ManagerOptions options;
    options.num_threads = 4;
    options.tasks_per_step = 8;
    CampaignManager manager(options);
    std::vector<CampaignId> ids;
    for (int i = 0; i < kCampaigns; ++i) {
      auto id = manager.Submit(MakeConfig(i));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ids.push_back(id.value());
    }
    ExpectFleetMatchesReferences(manager, ids, references, "live");
  }

  // Journaled kill: each campaign wedges at its own cutoff, then the
  // manager is torn down mid-run.
  {
    CutoffCompletionSource source;
    ManagerOptions options;
    options.num_threads = 4;
    options.tasks_per_step = 8;
    options.completions = &source;
    options.journal_dir = dir_.string();
    CampaignManager manager(options);
    std::vector<CampaignId> ids;
    for (int i = 0; i < kCampaigns; ++i) {
      auto id = manager.Submit(MakeConfig(i));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ids.push_back(id.value());
    }
    const auto deadline =
        std::chrono::steady_clock::now() + milliseconds(30000);
    for (CampaignId id : ids) {
      const auto cutoff =
          static_cast<int64_t>(CutoffCompletionSource::Cutoff(id));
      for (;;) {
        auto status = manager.Status(id);
        ASSERT_TRUE(status.ok());
        ASSERT_EQ(status.value().state, CampaignState::kRunning);
        if (status.value().tasks_completed == cutoff) break;
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "campaign " << id << " stuck at "
            << status.value().tasks_completed << " of " << cutoff;
        std::this_thread::sleep_for(milliseconds(1));
      }
    }
    EXPECT_EQ(manager.num_initial_states(), 2u);  // one per omega
    manager.Shutdown();
  }

  // Recover resumes every campaign, again over the shared posts, and
  // finishes it on the threaded manager with inline completions.
  ManagerOptions options;
  options.num_threads = 4;
  options.tasks_per_step = 8;
  CampaignManager recovered(options);
  auto ids = recovered.Recover(dir_.string(), Factory);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  for (CampaignId id : ids.value()) {
    auto status = recovered.Status(id);
    ASSERT_TRUE(status.ok());
    EXPECT_GT(status.value().records_replayed, 0) << status.value().name;
  }
  ExpectFleetMatchesReferences(recovered, ids.value(), references,
                               "recovered");
}

}  // namespace
}  // namespace service
}  // namespace incentag

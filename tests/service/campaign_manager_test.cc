#include "src/service/campaign_manager.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/allocation.h"
#include "src/core/post_stream.h"
#include "src/core/strategy_fc.h"
#include "src/core/strategy_fp.h"
#include "src/core/strategy_fpmu.h"
#include "src/core/strategy_mu.h"
#include "src/core/strategy_rr.h"
#include "src/sim/crowd.h"
#include "src/sim/dataset_prep.h"
#include "src/sim/generator.h"
#include "src/service/fleet_health.h"
#include "src/sim/load_generator.h"
#include "src/util/random.h"
#include "tests/testing/report_bytes.h"

namespace incentag {
namespace service {
namespace {

// One shared prepared dataset for every test (read-only).
class CampaignManagerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::CorpusConfig config;
    config.num_resources = 80;
    config.seed = 20260728;
    auto corpus = sim::Corpus::Generate(config);
    ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
    corpus_ = new sim::Corpus(std::move(corpus).value());
    auto prep = sim::PrepareFromCorpus(*corpus_, sim::PrepConfig{});
    ASSERT_TRUE(prep.ok()) << prep.status().ToString();
    dataset_ = new sim::PreparedDataset(std::move(prep).value());
  }

  static void TearDownTestSuite() {
    delete dataset_;
    delete corpus_;
    dataset_ = nullptr;
    corpus_ = nullptr;
  }

  // A fresh strategy of the i-th kind, with FC crowds seeded per campaign
  // so sequential and service runs see identical tagger choices.
  static std::unique_ptr<core::Strategy> MakeStrategy(
      int kind, uint64_t fc_seed, std::shared_ptr<void>* context) {
    switch (kind % 5) {
      case 0:
        return std::make_unique<core::RoundRobinStrategy>();
      case 1:
        return std::make_unique<core::FewestPostsStrategy>();
      case 2:
        return std::make_unique<core::MostUnstableStrategy>();
      case 3:
        return std::make_unique<core::HybridFpMuStrategy>();
      default: {
        auto crowd = std::make_shared<sim::CrowdModel>(
            dataset_->popularity, /*alpha=*/1.0, fc_seed);
        *context = crowd;
        return std::make_unique<core::FreeChoiceStrategy>(
            crowd->MakePicker());
      }
    }
  }

  static core::EngineOptions MakeOptions(int kind, int64_t budget) {
    core::EngineOptions options;
    options.budget = budget;
    options.omega = 5;
    options.checkpoints = {budget / 4, budget / 2, budget};
    // Mix batched and unbatched campaigns.
    options.batch_size = (kind % 3 == 0) ? 16 : 1;
    return options;
  }

  static CampaignConfig MakeConfig(int kind, int64_t budget,
                                   uint64_t fc_seed) {
    CampaignConfig config;
    config.name = "campaign-" + std::to_string(kind);
    config.options = MakeOptions(kind, budget);
    config.initial_posts = &dataset_->initial_posts;
    config.references = &dataset_->references;
    config.strategy = MakeStrategy(kind, fc_seed, &config.context);
    config.stream =
        std::make_unique<core::VectorPostStream>(dataset_->MakeStream());
    return config;
  }

  // The sequential ground truth for the same campaign parameters.
  static core::RunReport RunSequential(int kind, int64_t budget,
                                       uint64_t fc_seed) {
    std::shared_ptr<void> context;
    auto strategy = MakeStrategy(kind, fc_seed, &context);
    core::AllocationEngine engine(MakeOptions(kind, budget),
                                  &dataset_->initial_posts,
                                  &dataset_->references);
    core::VectorPostStream stream = dataset_->MakeStream();
    auto report = engine.Run(strategy.get(), &stream);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return std::move(report).value();
  }

  static void ExpectReportsEqual(const core::RunReport& want,
                                 const core::RunReport& got,
                                 const std::string& label) {
    EXPECT_EQ(want.strategy_name, got.strategy_name) << label;
    EXPECT_EQ(want.allocation, got.allocation) << label;
    EXPECT_EQ(want.budget_spent, got.budget_spent) << label;
    EXPECT_EQ(want.stopped_early, got.stopped_early) << label;
    ASSERT_EQ(want.checkpoints.size(), got.checkpoints.size()) << label;
    for (size_t i = 0; i < want.checkpoints.size(); ++i) {
      ExpectMetricsEqual(want.checkpoints[i], got.checkpoints[i],
                         label + " checkpoint " + std::to_string(i));
    }
    ExpectMetricsEqual(want.final_metrics, got.final_metrics,
                       label + " final");
  }

  static void ExpectMetricsEqual(const core::AllocationMetrics& want,
                                 const core::AllocationMetrics& got,
                                 const std::string& label) {
    EXPECT_EQ(want.budget_used, got.budget_used) << label;
    // Same code path, same application order: bitwise-identical doubles.
    EXPECT_EQ(want.avg_quality, got.avg_quality) << label;
    EXPECT_EQ(want.over_tagged, got.over_tagged) << label;
    EXPECT_EQ(want.wasted_posts, got.wasted_posts) << label;
    EXPECT_EQ(want.under_tagged, got.under_tagged) << label;
  }

  static sim::Corpus* corpus_;
  static sim::PreparedDataset* dataset_;
};

sim::Corpus* CampaignManagerTest::corpus_ = nullptr;
sim::PreparedDataset* CampaignManagerTest::dataset_ = nullptr;

TEST_F(CampaignManagerTest, RejectsInvalidConfigs) {
  CampaignManager manager(ManagerOptions{});
  CampaignConfig config;  // everything null
  auto result = manager.Submit(std::move(config));
  EXPECT_FALSE(result.ok());

  auto ok = MakeConfig(0, 50, 1);
  ok.stream = nullptr;
  result = manager.Submit(std::move(ok));
  EXPECT_FALSE(result.ok());

  // MaTracker needs omega >= 2, and core::kMaxOmega caps its ring.
  for (int omega : {0, 1, core::kMaxOmega + 1}) {
    auto bad = MakeConfig(0, 50, 1);
    bad.options.omega = omega;
    result = manager.Submit(std::move(bad));
    EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument)
        << omega;
  }

  EXPECT_FALSE(manager.Wait(999).ok());
  EXPECT_FALSE(manager.Status(999).ok());
  EXPECT_FALSE(manager.Cancel(999).ok());
}

// Small quanta make deterministic mode yield through the ready queue
// mid-batch; the default quantum covers whole batches.
TEST_F(CampaignManagerTest, DeterministicModeMatchesEngineExactly) {
  for (int64_t tasks_per_step : {int64_t{1}, int64_t{7}, int64_t{256}}) {
    ManagerOptions options;
    options.deterministic = true;
    options.tasks_per_step = tasks_per_step;
    CampaignManager manager(options);
    for (int kind = 0; kind < 5; ++kind) {
      const int64_t budget = 200 + 40 * kind;
      const uint64_t fc_seed = 99 + static_cast<uint64_t>(kind);
      auto id = manager.Submit(MakeConfig(kind, budget, fc_seed));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      auto got = manager.Wait(id.value());
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectReportsEqual(RunSequential(kind, budget, fc_seed), got.value(),
                         "quantum " + std::to_string(tasks_per_step) +
                             ", kind " + std::to_string(kind));
    }
  }
}

TEST_F(CampaignManagerTest, ConcurrentInlineMatchesEngine) {
  ManagerOptions options;
  options.num_threads = 4;
  options.tasks_per_step = 32;  // force many scheduling quanta
  CampaignManager manager(options);
  std::vector<CampaignId> ids;
  const int kCampaigns = 10;
  for (int i = 0; i < kCampaigns; ++i) {
    auto id = manager.Submit(
        MakeConfig(i, 150 + 10 * i, 7 + static_cast<uint64_t>(i)));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(id.value());
  }
  for (int i = 0; i < kCampaigns; ++i) {
    auto got = manager.Wait(ids[static_cast<size_t>(i)]);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectReportsEqual(
        RunSequential(i, 150 + 10 * i, 7 + static_cast<uint64_t>(i)),
        got.value(), "campaign " + std::to_string(i));
  }
}

// The headline stress test: many mixed-strategy campaigns completed by a
// crowd of latency-jittered tagger threads, so completions arrive out of
// assignment order and campaign steps interleave arbitrarily. Every
// campaign must still reproduce its sequential RunReport exactly.
TEST_F(CampaignManagerTest, StressRandomInterleavingsMatchSequential) {
  sim::LoadGeneratorOptions load_options;
  load_options.num_taggers = 6;
  load_options.mean_latency_us = 30.0;  // enough to shuffle completions
  load_options.tagger_speed_sigma = 1.0;
  load_options.seed = 4242;
  load_options.queue_capacity = 64;  // exercise backpressure
  sim::CrowdLoadGenerator crowd(load_options);

  ManagerOptions options;
  options.num_threads = 4;
  options.tasks_per_step = 17;  // odd quantum to shear step boundaries
  options.completions = &crowd;
  CampaignManager manager(options);

  util::Rng rng(555);
  const int kCampaigns = 24;
  std::vector<CampaignId> ids;
  std::vector<int64_t> budgets;
  std::vector<uint64_t> fc_seeds;
  for (int i = 0; i < kCampaigns; ++i) {
    budgets.push_back(60 + static_cast<int64_t>(rng.NextBounded(200)));
    fc_seeds.push_back(rng.NextUint64());
    auto id = manager.Submit(MakeConfig(i, budgets.back(), fc_seeds.back()));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(id.value());
  }
  manager.WaitAll();
  for (int i = 0; i < kCampaigns; ++i) {
    auto got = manager.Wait(ids[static_cast<size_t>(i)]);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const auto& status = manager.Status(ids[static_cast<size_t>(i)]);
    ASSERT_TRUE(status.ok());
    EXPECT_EQ(status.value().state, CampaignState::kDone);
    EXPECT_EQ(status.value().tasks_in_flight, 0);
    ExpectReportsEqual(
        RunSequential(i, budgets[static_cast<size_t>(i)],
                      fc_seeds[static_cast<size_t>(i)]),
        got.value(), "campaign " + std::to_string(i));
  }
  crowd.Stop();
  manager.Shutdown();
}

TEST_F(CampaignManagerTest, StatusIsPollableWhileRunning) {
  ManagerOptions options;
  options.num_threads = 2;
  options.tasks_per_step = 8;
  CampaignManager manager(options);
  auto id = manager.Submit(MakeConfig(1, 400, 3));
  ASSERT_TRUE(id.ok());
  // Poll until terminal; every intermediate snapshot must be coherent.
  for (;;) {
    auto status = manager.Status(id.value());
    ASSERT_TRUE(status.ok());
    EXPECT_LE(status.value().budget_spent, 400);
    EXPECT_GE(status.value().tasks_completed, 0);
    EXPECT_EQ(status.value().strategy, "FP");
    if (IsTerminal(status.value().state)) break;
  }
  auto report = manager.Wait(id.value());
  ASSERT_TRUE(report.ok());
  auto final_status = manager.Status(id.value());
  ASSERT_TRUE(final_status.ok());
  EXPECT_EQ(final_status.value().state, CampaignState::kDone);
  EXPECT_EQ(final_status.value().budget_spent,
            report.value().budget_spent);
  EXPECT_GT(final_status.value().tasks_per_second, 0.0);
}

TEST_F(CampaignManagerTest, CancelStopsACampaignEarly) {
  // A tagger crowd slow enough that cancellation lands mid-run.
  sim::LoadGeneratorOptions load_options;
  load_options.num_taggers = 1;
  load_options.mean_latency_us = 500.0;
  load_options.seed = 9;
  sim::CrowdLoadGenerator crowd(load_options);

  ManagerOptions options;
  options.num_threads = 2;
  options.completions = &crowd;
  CampaignManager manager(options);
  auto id = manager.Submit(MakeConfig(0, 1000000, 3));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(manager.Cancel(id.value()).ok());
  auto report = manager.Wait(id.value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_LT(report.value().budget_spent, 1000000);
  EXPECT_TRUE(report.value().stopped_early);
  auto status = manager.Status(id.value());
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().state, CampaignState::kCancelled);
  crowd.Stop();
  manager.Shutdown();
}

TEST_F(CampaignManagerTest, ShutdownCancelsEverythingAndIsIdempotent) {
  sim::LoadGeneratorOptions load_options;
  load_options.num_taggers = 2;
  load_options.mean_latency_us = 200.0;
  load_options.seed = 77;
  sim::CrowdLoadGenerator crowd(load_options);

  ManagerOptions options;
  options.num_threads = 3;
  options.completions = &crowd;
  auto manager = std::make_unique<CampaignManager>(options);
  std::vector<CampaignId> ids;
  for (int i = 0; i < 8; ++i) {
    auto id = manager->Submit(MakeConfig(i, 500000, 11));
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  manager->Shutdown();
  manager->Shutdown();  // idempotent
  for (CampaignId id : ids) {
    auto status = manager->Status(id);
    ASSERT_TRUE(status.ok());
    EXPECT_TRUE(IsTerminal(status.value().state));
  }
  EXPECT_FALSE(manager->Submit(MakeConfig(0, 10, 1)).ok());
  crowd.Stop();
  manager.reset();  // destructor after the source is quiesced
}

// Takes every task and completes none, so campaigns stay mid-run.
class SilentCompletionSource : public CompletionSource {
 public:
  bool SubmitTasks(const std::vector<TaskHandle>& /*tasks*/,
                   const CompletionFn& /*done*/) override {
    return true;
  }
};

TEST_F(CampaignManagerTest, CampaignsOverOneStoreShareOneTrajectoryTable) {
  // A second store with the same posts; like every store, it outlives
  // the manager.
  const core::PostStore copy = dataset_->future_posts;
  SilentCompletionSource silent;
  ManagerOptions options;
  options.num_threads = 2;
  options.completions = &silent;
  CampaignManager manager(options);
  std::vector<CampaignId> ids;
  auto submit = [&](CampaignConfig config) {
    auto id = manager.Submit(std::move(config));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(id.value());
  };
  // Two campaigns over MakeStream() share the dataset's store.
  submit(MakeConfig(0, 1000, 1));
  submit(MakeConfig(1, 1000, 2));
  // One over the copy, and one with another omega.
  CampaignConfig own = MakeConfig(2, 1000, 3);
  own.stream = std::make_unique<core::VectorPostStream>(&copy);
  submit(std::move(own));
  CampaignConfig other_omega = MakeConfig(3, 1000, 4);
  other_omega.options.omega = 3;
  submit(std::move(other_omega));

  // Every campaign has begun once it has tasks in flight.
  for (CampaignId id : ids) {
    for (;;) {
      auto status = manager.Status(id);
      ASSERT_TRUE(status.ok());
      ASSERT_EQ(status.value().state, CampaignState::kRunning);
      if (status.value().tasks_in_flight > 0) break;
      std::this_thread::yield();
    }
  }
  EXPECT_EQ(manager.num_initial_states(), 3u);
  manager.Shutdown();
  EXPECT_EQ(manager.num_initial_states(), 0u);
}

TEST_F(CampaignManagerTest, ManyMoreCampaignsThanThreads) {
  ManagerOptions options;
  options.num_threads = 2;
  options.tasks_per_step = 16;
  CampaignManager manager(options);
  const int kCampaigns = 40;
  std::vector<CampaignId> ids;
  for (int i = 0; i < kCampaigns; ++i) {
    auto id = manager.Submit(MakeConfig(i, 80, 1 + static_cast<uint64_t>(i)));
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  manager.WaitAll();
  EXPECT_EQ(manager.num_campaigns(), static_cast<size_t>(kCampaigns));
  int64_t total = 0;
  ListQuery all;
  all.limit = ListQuery::kMaxLimit;
  for (const CampaignStatus& status : manager.List(all).statuses) {
    EXPECT_EQ(status.state, CampaignState::kDone);
    total += status.tasks_completed;
  }
  EXPECT_GT(total, 0);
}


// Degraded storage parks background campaigns (priority <= 1) at their
// step boundary. A parked campaign does no work while a priority-2
// campaign runs, times out a bounded wait, stays cancellable, and runs
// to the engine's report once storage recovers.
TEST_F(CampaignManagerTest, ParkedCampaignLifecycle) {
  FleetHealth health;  // degraded after 3 failures, healthy after 2 syncs
  const util::Status enospc = util::Status::IoError("no space", ENOSPC);
  for (int i = 0; i < 3; ++i) health.ReportStorageError(enospc);
  ASSERT_TRUE(health.degraded());

  ManagerOptions options;
  options.num_threads = 2;
  options.health = &health;
  CampaignManager manager(options);
  // Parked is a state: Status and List show it.
  auto wait_parked = [&manager](CampaignId id) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (manager.Status(id).value().state != CampaignState::kParked) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "campaign " << id << " never parked";
      std::this_thread::yield();
    }
    ListQuery query;
    query.state = CampaignState::kParked;
    const CampaignPage page = manager.List(query);
    ASSERT_EQ(page.total, 1u);
    EXPECT_EQ(page.statuses[0].id, id);
  };

  CampaignConfig parked_config = MakeConfig(1, 200, 1);
  parked_config.options.deadline_seconds = 1000.0;
  auto parked = manager.Submit(std::move(parked_config));
  ASSERT_TRUE(parked.ok()) << parked.status().ToString();
  wait_parked(parked.value());
  const double slack = manager.Status(parked.value()).value()
                           .deadline_slack_seconds;
  CampaignConfig critical_config = MakeConfig(2, 200, 2);
  critical_config.options.priority = 2;
  auto critical = manager.Submit(std::move(critical_config));
  ASSERT_TRUE(critical.ok()) << critical.status().ToString();
  auto critical_report = manager.Wait(critical.value());
  ASSERT_TRUE(critical_report.ok()) << critical_report.status().ToString();
  EXPECT_EQ(manager.Status(parked.value()).value().tasks_completed, 0);
  EXPECT_EQ(manager.WaitFor(parked.value(), std::chrono::milliseconds(50))
                .status()
                .code(),
            util::StatusCode::kDeadlineExceeded);
  // The deadline clock keeps running while the campaign is parked.
  EXPECT_LT(manager.Status(parked.value()).value().deadline_slack_seconds,
            slack);

  ASSERT_TRUE(manager.Cancel(parked.value()).ok());
  auto cancelled =
      manager.WaitFor(parked.value(), std::chrono::milliseconds::max());
  ASSERT_TRUE(cancelled.ok()) << cancelled.status().ToString();
  EXPECT_EQ(cancelled.value().state, CampaignState::kCancelled);

  auto resumed = manager.Submit(MakeConfig(3, 200, 3));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  wait_parked(resumed.value());
  EXPECT_EQ(manager.WaitFor(resumed.value(), std::chrono::milliseconds(50))
                .status()
                .code(),
            util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(manager.Status(resumed.value()).value().tasks_completed, 0);
  health.ReportStorageOk();
  health.ReportStorageOk();
  ASSERT_FALSE(health.degraded());
  auto report = manager.Wait(resumed.value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(manager.Status(resumed.value()).value().state,
            CampaignState::kDone);
  EXPECT_EQ(testing::ReportBytes(report.value()),
            testing::ReportBytes(RunSequential(3, 200, 3)));
}

// Every (from, to) pair of the lifecycle table: the two park edges, live
// to terminal, and nothing else.
TEST(CampaignLifecycleTest, TableHoldsExactlyTheLifecycleEdges) {
  const CampaignState kAll[] = {
      CampaignState::kRunning, CampaignState::kParked,
      CampaignState::kDone,    CampaignState::kCancelled,
      CampaignState::kFailed,  CampaignState::kQuarantined};
  auto live = [](CampaignState s) {
    return s == CampaignState::kRunning || s == CampaignState::kParked;
  };
  int pairs = 0;
  int legal = 0;
  for (CampaignState from : kAll) {
    EXPECT_EQ(IsTerminal(from), !live(from)) << static_cast<int>(from);
    for (CampaignState to : kAll) {
      const bool want = live(from) && from != to;
      EXPECT_EQ(IsLegalTransition(from, to), want)
          << static_cast<int>(from) << " -> " << static_cast<int>(to);
      ++pairs;
      legal += want ? 1 : 0;
    }
  }
  EXPECT_EQ(pairs, 36);
  EXPECT_EQ(legal, 10);
}

}  // namespace
}  // namespace service
}  // namespace incentag

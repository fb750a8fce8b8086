#include "src/service/campaign_manager.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/service/fleet_health.h"
#include "src/sim/load_generator.h"
#include "tests/testing/campaign_fixture.h"

namespace incentag {
namespace service {
namespace {

// Campaigns are testing::KindSpec's; their seed seeds FC's crowd.
using CampaignManagerTest = testing::CampaignTest<80, 20260728>;

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
  const core::PostStore copy = dataset().future_posts;
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
  EXPECT_TRUE(testing::SameReport(Uninterrupted(3, 200, 3),
                                  report.value()));
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

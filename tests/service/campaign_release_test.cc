// A campaign that ends kDone, kCancelled or kFailed keeps only its status
// fields and report. Its strategy, stream, strategy context and step
// scratch are freed at Finalize, and its journal is closed once synced,
// whether the campaign ran live or was replayed by Recover. What callers
// read (Status, Wait, WaitFor, List) stays exactly as it was. The strategy
// here counts its live instances, the context carries a live counter too,
// and the journals are counted as open descriptors in /proc/self/fd.
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/strategy.h"
#include "src/persist/journal.h"
#include "src/service/campaign_manager.h"
#include "src/sim/load_generator.h"
#include "tests/testing/campaign_fixture.h"

namespace incentag {
namespace service {
namespace {

namespace fs = std::filesystem;
using testing::SameReport;
using std::chrono::milliseconds;

std::atomic<int> g_live_strategies{0};
std::atomic<int> g_live_contexts{0};

// Forwards to a real strategy and counts the instances alive.
class CountingStrategy : public core::Strategy {
 public:
  explicit CountingStrategy(std::unique_ptr<core::Strategy> inner)
      : inner_(std::move(inner)) {
    ++g_live_strategies;
  }
  ~CountingStrategy() override { --g_live_strategies; }

  std::string_view name() const override { return inner_->name(); }
  void Init(const core::StrategyContext& ctx) override { inner_->Init(ctx); }
  core::ResourceId Choose() override { return inner_->Choose(); }
  void OnAssigned(core::ResourceId chosen) override {
    inner_->OnAssigned(chosen);
  }
  void Update(core::ResourceId chosen) override { inner_->Update(chosen); }
  void OnExhausted(core::ResourceId i) override { inner_->OnExhausted(i); }
  void SerializeState(std::string* out) const override {
    inner_->SerializeState(out);
  }
  util::Status RestoreState(const core::StrategyContext& ctx,
                            std::string_view state) override {
    return inner_->RestoreState(ctx, state);
  }

 private:
  std::unique_ptr<core::Strategy> inner_;
};

// The campaign's context: the strategy's own keep-alive plus a counter.
struct CountedContext {
  explicit CountedContext(std::shared_ptr<void> inner_in)
      : inner(std::move(inner_in)) {
    ++g_live_contexts;
  }
  ~CountedContext() { --g_live_contexts; }
  std::shared_ptr<void> inner;
};

// Open descriptors of this process.
int OpenFds() {
  int count = 0;
  for ([[maybe_unused]] const auto& entry :
       fs::directory_iterator("/proc/self/fd")) {
    ++count;
  }
  return count;
}

// Completes every task inline, except that it reports itself closed to
// the campaigns named in `refuse`, which therefore fail.
class RefusingSource : public CompletionSource {
 public:
  explicit RefusingSource(std::set<CampaignId> refuse)
      : refuse_(std::move(refuse)) {}

  bool SubmitTasks(const std::vector<TaskHandle>& tasks,
                   const CompletionFn& done) override {
    if (tasks.empty()) return true;
    if (refuse_.count(tasks.front().campaign) > 0) return false;
    done(std::span<const TaskHandle>(tasks));
    return true;
  }

 private:
  const std::set<CampaignId> refuse_;
};

class CampaignReleaseTest : public testing::CampaignTest<60, 20261019> {
 protected:
  void TearDown() override {
    CampaignTest::TearDown();
    EXPECT_EQ(g_live_strategies.load(), 0);
    EXPECT_EQ(g_live_contexts.load(), 0);
  }

  static testing::Spec KindSpec(int kind, int64_t budget) {
    testing::Spec spec{
        "release-" + std::to_string(kind) + "-" + std::to_string(budget),
        std::string(sim::StrategyNameForKind(kind)),
        {},
        500 + static_cast<uint64_t>(kind)};
    spec.options.budget = budget;
    spec.options.omega = 5;
    spec.options.batch_size = kind % 2 == 0 ? 8 : 1;
    spec.options.checkpoints = {budget / 2, budget};
    return spec;
  }

  // The fixture's config with its strategy and context counted.
  static util::Result<CampaignConfig> Counted(
      util::Result<CampaignConfig> config) {
    if (config.ok()) {
      config.value().strategy = std::make_unique<CountingStrategy>(
          std::move(config.value().strategy));
      config.value().context =
          std::make_shared<CountedContext>(std::move(config.value().context));
    }
    return config;
  }

  static CampaignConfig MakeConfig(int kind, int64_t budget) {
    auto config =
        Counted(testing::BuildConfig(dataset(), KindSpec(kind, budget)));
    EXPECT_TRUE(config.ok()) << config.status().ToString();
    return std::move(config).value();
  }

  static util::Result<CampaignConfig> Factory(
      const persist::SubmitRecord& record) {
    return Counted(CampaignTest::Factory(record));
  }

  static void ExpectSameStatus(const CampaignStatus& a,
                               const CampaignStatus& b) {
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.strategy, b.strategy);
    EXPECT_EQ(a.state, b.state);
    EXPECT_EQ(a.budget, b.budget);
    EXPECT_EQ(a.budget_spent, b.budget_spent);
    EXPECT_EQ(a.tasks_completed, b.tasks_completed);
    EXPECT_EQ(a.tasks_in_flight, b.tasks_in_flight);
    EXPECT_EQ(a.checkpoints_recorded, b.checkpoints_recorded);
    EXPECT_EQ(a.records_replayed, b.records_replayed);
    EXPECT_EQ(a.metrics.budget_used, b.metrics.budget_used);
    EXPECT_EQ(a.metrics.avg_quality, b.metrics.avg_quality);
    EXPECT_EQ(a.elapsed_seconds, b.elapsed_seconds);
    EXPECT_EQ(a.error, b.error);
  }

  // Every read surface of a terminal campaign agrees with its report, and
  // a second read returns the same.
  static void ExpectTerminalReadsAgree(CampaignManager& manager,
                                       CampaignId id) {
    auto status = manager.Status(id);
    ASSERT_TRUE(status.ok());
    const CampaignStatus& s = status.value();
    ASSERT_TRUE(IsTerminal(s.state));
    auto again = manager.Status(id);
    ASSERT_TRUE(again.ok());
    ExpectSameStatus(s, again.value());
    ListQuery query;
    query.limit = ListQuery::kMaxLimit;
    bool listed = false;
    for (const CampaignStatus& entry : manager.List(query).statuses) {
      if (entry.id != id) continue;
      listed = true;
      ExpectSameStatus(s, entry);
    }
    EXPECT_TRUE(listed) << id;
    auto result = manager.WaitFor(id, milliseconds(1));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().state, s.state);
    auto report = manager.Wait(id);
    if (s.state == CampaignState::kFailed) {
      ASSERT_FALSE(report.ok());
      EXPECT_NE(report.status().ToString().find(s.error), std::string::npos);
      EXPECT_EQ(result.value().error, s.error);
      return;
    }
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(SameReport(report.value(), result.value().report));
    EXPECT_EQ(s.budget_spent, report.value().budget_spent);
    EXPECT_EQ(s.metrics.avg_quality,
              report.value().final_metrics.avg_quality);
    EXPECT_EQ(s.checkpoints_recorded, report.value().checkpoints.size());
  }

};

// A journaled fleet that ends in every terminal state frees every
// strategy and context and closes every journal, live and after Recover.
TEST_F(CampaignReleaseTest, TerminalCampaignsKeepOnlyTheirReports) {
  constexpr int kCampaigns = 20;
  // Campaigns 3, 8, 13 and 18 fail: their source reports itself closed.
  RefusingSource source({3, 8, 13, 18});
  const int fds_before = OpenFds();
  std::vector<std::optional<core::RunReport>> done_reports(kCampaigns + 1);
  {
    ManagerOptions options;
    options.num_threads = 3;
    options.tasks_per_step = 16;
    options.completions = &source;
    options.journal_dir = dir_.string();
    options.compact_journal_bytes = 25 * persist::kFramedCompletionBytes;
    CampaignManager manager(options);
    std::vector<CampaignId> ids;
    for (int i = 0; i < kCampaigns; ++i) {
      auto id = manager.Submit(MakeConfig(i % 5, 120 + 10 * i));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ids.push_back(id.value());
      // Every fifth campaign is cancelled at once: before its first step,
      // after some of it, or (when it wins the race) after it finished.
      if (i % 5 == 4) {
        ASSERT_TRUE(manager.Cancel(id.value()).ok());
      }
    }
    manager.WaitAll();
    EXPECT_EQ(g_live_strategies.load(), 0);
    EXPECT_EQ(g_live_contexts.load(), 0);
    for (int i = 0; i < kCampaigns; ++i) {
      const CampaignId id = ids[static_cast<size_t>(i)];
      ExpectTerminalReadsAgree(manager, id);
      auto status = manager.Status(id).value();
      if (id % 5 == 3) {
        EXPECT_EQ(status.state, CampaignState::kFailed) << id;
      } else if (i % 5 == 4 && status.state != CampaignState::kDone) {
        EXPECT_EQ(status.state, CampaignState::kCancelled) << id;
      } else {
        ASSERT_EQ(status.state, CampaignState::kDone) << id;
        done_reports[id] = manager.Wait(id).value();
        EXPECT_TRUE(SameReport(Uninterrupted(KindSpec(i % 5, 120 + 10 * i)),
                               *done_reports[id]))
            << id;
      }
    }
    // A compaction still running on a finished journal releases its
    // rewrite's descriptor when it stops.
    const auto deadline = std::chrono::steady_clock::now() + milliseconds(5000);
    while (OpenFds() != fds_before &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(milliseconds(1));
    }
    EXPECT_EQ(OpenFds(), fds_before) << "journals left open";
    manager.Shutdown();
  }

  // Recover replays every journal: finished ones end where they ended,
  // the failed ones resume and finish.
  ManagerOptions options;
  options.deterministic = true;
  CampaignManager recovered(options);
  auto ids = recovered.Recover(dir_.string(), Factory);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  ASSERT_EQ(ids.value().size(), static_cast<size_t>(kCampaigns));
  EXPECT_EQ(g_live_strategies.load(), 0);
  EXPECT_EQ(g_live_contexts.load(), 0);
  EXPECT_EQ(OpenFds(), fds_before) << "recovered journals left open";
  for (CampaignId id : ids.value()) {
    ExpectTerminalReadsAgree(recovered, id);
    if (done_reports[id]) {
      EXPECT_TRUE(SameReport(*done_reports[id], recovered.Wait(id).value()))
          << id;
    }
  }
}

// Cancel lands while the crowd delivers a campaign's last completions.
// Whichever wins, the campaign ends once, in a consistent state, and
// frees what it ran on. Under TSan this races Finalize's release against
// late completions and status readers.
TEST_F(CampaignReleaseTest, CancelRacingTheLastCompletion) {
  sim::LoadGeneratorOptions crowd_options;
  crowd_options.num_taggers = 4;
  crowd_options.completion_batch = 1;
  sim::CrowdLoadGenerator crowd(crowd_options);
  ManagerOptions options;
  options.num_threads = 3;
  options.tasks_per_step = 4;
  options.completions = &crowd;
  CampaignManager manager(options);
  int done = 0;
  int cancelled = 0;
  for (int round = 0; round < 24; ++round) {
    const int kind = round % 5;
    const int64_t budget = 40 + round;
    auto id = manager.Submit(MakeConfig(kind, budget));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    std::thread poller([&] {
      for (int i = 0; i < 200; ++i) {
        manager.Status(id.value());
        manager.List(ListQuery{});
      }
    });
    const auto deadline =
        std::chrono::steady_clock::now() + milliseconds(10000);
    while (manager.Status(id.value()).value().tasks_completed <
               budget - 1 - round % 3 &&
           !IsTerminal(manager.Status(id.value()).value().state) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    ASSERT_TRUE(manager.Cancel(id.value()).ok());
    auto result = manager.WaitFor(id.value(), milliseconds(10000));
    poller.join();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectTerminalReadsAgree(manager, id.value());
    if (result.value().state == CampaignState::kDone) {
      ++done;
      EXPECT_TRUE(SameReport(Uninterrupted(KindSpec(kind, budget)),
                             result.value().report));
    } else {
      ASSERT_EQ(result.value().state, CampaignState::kCancelled);
      ++cancelled;
      EXPECT_LE(result.value().report.budget_spent, budget);
    }
    EXPECT_EQ(g_live_strategies.load(), 0) << "round " << round;
    EXPECT_EQ(g_live_contexts.load(), 0) << "round " << round;
  }
  EXPECT_EQ(done + cancelled, 24);
  crowd.Stop();
  manager.Shutdown();
}

}  // namespace
}  // namespace service
}  // namespace incentag

// The pluggable campaign scheduler (src/service/scheduler/): policy
// unit tests (dispatch order, weighted quanta, aging, the hard
// starvation bound, the single ready queue) plus the
// service-level properties the subsystem must preserve — campaign
// results are byte-identical to the sequential engine under every
// policy (scheduling reorders work, never outcomes), deterministic mode
// is untouched, a low-priority campaign under sustained high-priority
// load still finishes, and a campaign's scheduling class survives
// kill-and-recover (journal format v3, with v2 journals defaulting to
// the baseline class).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/allocation.h"
#include "src/core/post_stream.h"
#include "src/persist/journal.h"
#include "src/service/campaign_manager.h"
#include "src/service/scheduler/deadline_scheduler.h"
#include "src/service/scheduler/priority_scheduler.h"
#include "src/service/scheduler/round_robin_scheduler.h"
#include "src/service/scheduler/scheduler.h"
#include "src/sim/dataset_prep.h"
#include "src/sim/generator.h"
#include "src/sim/strategy_factory.h"
#include "src/util/file_io.h"
#include "src/util/wire.h"

namespace incentag {
namespace service {
namespace {

namespace fs = std::filesystem;
using std::chrono::milliseconds;

// ---- policy unit tests -------------------------------------------------

TEST(RoundRobinSchedulerTest, PopsFifoAndUsesBaseQuantum) {
  SchedulerOptions options;
  options.base_quantum = 32;
  RoundRobinScheduler scheduler(options);
  scheduler.Register(1, ScheduleParams{5, 0.0});
  scheduler.Register(2, ScheduleParams{1, 1.0});
  scheduler.Enqueue(2);
  scheduler.Enqueue(1);
  scheduler.Enqueue(3);
  EXPECT_EQ(scheduler.PopNext(), 2u);
  EXPECT_EQ(scheduler.PopNext(), 1u);
  EXPECT_EQ(scheduler.PopNext(), 3u);
  EXPECT_EQ(scheduler.PopNext(), 0u);  // empty
  // Priority is ignored: everyone gets the base quantum.
  EXPECT_EQ(scheduler.Quantum(1), 32);
  EXPECT_EQ(scheduler.Quantum(2), 32);
}

TEST(PrioritySchedulerTest, PopsHighestPriorityFirstAndScalesQuanta) {
  SchedulerOptions options;
  options.base_quantum = 10;
  options.max_quantum_weight = 4;
  PriorityScheduler scheduler(options);
  scheduler.Register(1, ScheduleParams{1, 0.0});
  scheduler.Register(2, ScheduleParams{8, 0.0});
  scheduler.Register(3, ScheduleParams{3, 0.0});
  scheduler.Enqueue(1);
  scheduler.Enqueue(2);
  scheduler.Enqueue(3);
  EXPECT_EQ(scheduler.PopNext(), 2u);
  EXPECT_EQ(scheduler.PopNext(), 3u);
  EXPECT_EQ(scheduler.PopNext(), 1u);
  // Weighted quanta, capped at max_quantum_weight.
  EXPECT_EQ(scheduler.Quantum(1), 10);
  EXPECT_EQ(scheduler.Quantum(3), 30);
  EXPECT_EQ(scheduler.Quantum(2), 40);  // 8 capped to 4
  // Unregistered campaigns fall back to the baseline class.
  EXPECT_EQ(scheduler.Quantum(99), 10);
}

TEST(PrioritySchedulerTest, AgingLiftsAPassedOverEntry) {
  SchedulerOptions options;
  options.priority_aging_per_skip = 1.0;
  options.starvation_limit = 0;  // isolate aging from the hard bound
  PriorityScheduler scheduler(options);
  scheduler.Register(1, ScheduleParams{1, 0.0});
  scheduler.Register(2, ScheduleParams{5, 0.0});
  scheduler.Enqueue(1);
  // A continuous stream of high-priority work: entry 1 gains one
  // effective priority point per skip and must win within 5 pops.
  int pops_until_low = 0;
  for (int i = 0; i < 20; ++i) {
    scheduler.Enqueue(2);
    const CampaignId popped = scheduler.PopNext();
    ++pops_until_low;
    if (popped == 1) break;
    EXPECT_EQ(popped, 2u);
  }
  EXPECT_LE(pops_until_low, 5);
}

TEST(PrioritySchedulerTest, StarvationLimitHardPops) {
  SchedulerOptions options;
  options.priority_aging_per_skip = 0.0;  // aging off: only the bound
  options.starvation_limit = 3;
  PriorityScheduler scheduler(options);
  scheduler.Register(1, ScheduleParams{1, 0.0});
  scheduler.Register(2, ScheduleParams{100, 0.0});
  scheduler.Enqueue(1);
  std::vector<CampaignId> order;
  for (int i = 0; i < 5; ++i) {
    scheduler.Enqueue(2);
    order.push_back(scheduler.PopNext());
  }
  // Three skips, then the starving entry pops regardless of priority.
  const std::vector<CampaignId> want = {2, 2, 2, 1, 2};
  EXPECT_EQ(order, want);
}

TEST(DeadlineSchedulerTest, PopsEarliestDeadlineFirst) {
  SchedulerOptions options;
  DeadlineScheduler scheduler(options);
  scheduler.Register(1, ScheduleParams{1, 0.0});    // no deadline
  scheduler.Register(2, ScheduleParams{1, 500.0});
  scheduler.Register(3, ScheduleParams{1, 100.0});
  scheduler.Enqueue(1);
  scheduler.Enqueue(2);
  scheduler.Enqueue(3);
  EXPECT_EQ(scheduler.PopNext(), 3u);
  EXPECT_EQ(scheduler.PopNext(), 2u);
  EXPECT_EQ(scheduler.PopNext(), 1u);
  EXPECT_EQ(scheduler.Quantum(2), options.base_quantum);
}

TEST(DeadlineSchedulerTest, StarvationLimitRescuesUndeadlinedCampaign) {
  SchedulerOptions options;
  options.starvation_limit = 4;
  DeadlineScheduler scheduler(options);
  scheduler.Register(1, ScheduleParams{1, 0.0});  // no deadline
  scheduler.Register(2, ScheduleParams{1, 1.0});  // always urgent
  scheduler.Enqueue(1);
  int pops_until_undeadlined = 0;
  for (int i = 0; i < 20; ++i) {
    scheduler.Enqueue(2);
    ++pops_until_undeadlined;
    if (scheduler.PopNext() == 1) break;
  }
  EXPECT_LE(pops_until_undeadlined, 5);
}

// ---- the single ready queue -------------------------------------------

// Round-robin is one global FIFO: every enqueued entry pops exactly
// once, in enqueue order, however many campaigns wait.
TEST(RoundRobinSchedulerTest, PopsEveryEntryOnceInGlobalFifoOrder) {
  SchedulerOptions options;
  RoundRobinScheduler scheduler(options);
  for (CampaignId id = 1; id <= 12; ++id) scheduler.Enqueue(id);
  for (CampaignId id = 1; id <= 12; ++id) {
    EXPECT_EQ(scheduler.PopNext(), id);
  }
  EXPECT_EQ(scheduler.PopNext(), 0u);  // drained
}

// The liveness and Unregister properties hold for every policy's queue.
class ReadyQueueTest : public ::testing::TestWithParam<SchedulerPolicy> {
 protected:
  std::unique_ptr<Scheduler> Make() const {
    SchedulerOptions options;
    options.policy = GetParam();
    return MakeScheduler(options);
  }
};

// Liveness: the manager pairs every Enqueue with one dispatch, so a
// PopNext that runs after its own Enqueue must pop SOMETHING — globally,
// pops started never exceed enqueues completed, so an entry always
// exists and a 0 return would strand a campaign with its scheduled
// token held.
TEST_P(ReadyQueueTest, PopNeverMissesQueuedEntryUnderRaces) {
  std::unique_ptr<Scheduler> scheduler = Make();
  constexpr int kThreads = 4;
  constexpr int kIterations = 5000;
  std::atomic<int64_t> zero_pops{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&scheduler, &zero_pops, t] {
      for (int i = 0; i < kIterations; ++i) {
        const auto id = static_cast<CampaignId>(t * kIterations + i + 1);
        scheduler->Register(id, ScheduleParams{1 + (i % 4), 0.0});
        scheduler->Enqueue(id);
        if (scheduler->PopNext() == 0) zero_pops.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(zero_pops.load(), 0);
  EXPECT_EQ(scheduler->PopNext(), 0u);  // fully drained afterwards
}

TEST_P(ReadyQueueTest, UnregisterDropsOnlyItsOwnEntry) {
  std::unique_ptr<Scheduler> scheduler = Make();
  for (CampaignId id = 1; id <= 8; ++id) {
    scheduler->Register(id, ScheduleParams{static_cast<int32_t>(id), 0.0});
    scheduler->Enqueue(id);
  }
  scheduler->Unregister(6);
  std::vector<CampaignId> popped;
  for (int i = 0; i < 7; ++i) popped.push_back(scheduler->PopNext());
  EXPECT_EQ(scheduler->PopNext(), 0u);
  // rr pops FIFO; priority pops the highest registered priority first.
  std::vector<CampaignId> want = {1, 2, 3, 4, 5, 7, 8};
  if (GetParam() == SchedulerPolicy::kPriority) {
    std::reverse(want.begin(), want.end());
  }
  EXPECT_EQ(popped, want);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ReadyQueueTest,
    ::testing::Values(SchedulerPolicy::kRoundRobin,
                      SchedulerPolicy::kPriority),
    [](const ::testing::TestParamInfo<SchedulerPolicy>& info) {
      return std::string(SchedulerPolicyName(info.param));
    });

TEST(SchedulerTest, UnregisterDropsReadyEntries) {
  SchedulerOptions options;
  PriorityScheduler scheduler(options);
  scheduler.Register(1, ScheduleParams{1, 0.0});
  scheduler.Register(2, ScheduleParams{2, 0.0});
  scheduler.Enqueue(1);
  scheduler.Enqueue(2);
  scheduler.Unregister(2);
  EXPECT_EQ(scheduler.PopNext(), 1u);
  EXPECT_EQ(scheduler.PopNext(), 0u);
}

TEST(SchedulerTest, ParsePolicyNames) {
  EXPECT_EQ(ParseSchedulerPolicy("rr").value(),
            SchedulerPolicy::kRoundRobin);
  EXPECT_EQ(ParseSchedulerPolicy("priority").value(),
            SchedulerPolicy::kPriority);
  EXPECT_EQ(ParseSchedulerPolicy("edf").value(),
            SchedulerPolicy::kDeadline);
  EXPECT_EQ(ParseSchedulerPolicy("deadline").value(),
            SchedulerPolicy::kDeadline);
  EXPECT_FALSE(ParseSchedulerPolicy("fifo").ok());
  EXPECT_STREQ(SchedulerPolicyName(SchedulerPolicy::kDeadline), "edf");
}

// ---- service-level properties ------------------------------------------

class SchedulerServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::CorpusConfig config;
    config.num_resources = 50;
    config.seed = 20260729;
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

  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("scheduler_test_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    ASSERT_TRUE(util::CreateDirectories(dir_.string()).ok());
  }

  void TearDown() override { fs::remove_all(dir_); }

  static core::EngineOptions MakeOptions(int kind, int64_t budget) {
    core::EngineOptions options;
    options.budget = budget;
    options.omega = 5;
    options.checkpoints = {budget / 2, budget};
    options.batch_size = (kind % 3 == 0) ? 8 : 1;
    return options;
  }

  static CampaignConfig MakeConfig(int kind, int64_t budget, uint64_t seed) {
    CampaignConfig config;
    config.name = "campaign-" + std::to_string(kind);
    config.options = MakeOptions(kind, budget);
    config.initial_posts = &dataset_->initial_posts;
    config.references = &dataset_->references;
    config.seed = seed;
    config.strategy =
        sim::MakeStrategyByName(sim::StrategyNameForKind(kind),
                                dataset_->popularity, seed, &config.context);
    config.stream =
        std::make_unique<core::VectorPostStream>(dataset_->MakeStream());
    return config;
  }

  static util::Result<CampaignConfig> Factory(
      const persist::SubmitRecord& record) {
    CampaignConfig config;
    config.name = record.name;
    config.options = record.options;
    config.initial_posts = &dataset_->initial_posts;
    config.references = &dataset_->references;
    config.seed = record.seed;
    config.strategy =
        sim::MakeStrategyByName(record.strategy_name, dataset_->popularity,
                                record.seed, &config.context);
    if (config.strategy == nullptr) {
      return util::Status::InvalidArgument("unknown strategy " +
                                           record.strategy_name);
    }
    config.stream =
        std::make_unique<core::VectorPostStream>(dataset_->MakeStream());
    return config;
  }

  static core::RunReport RunSequential(int kind, int64_t budget,
                                       uint64_t seed) {
    std::shared_ptr<void> context;
    auto strategy =
        sim::MakeStrategyByName(sim::StrategyNameForKind(kind),
                                dataset_->popularity, seed, &context);
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
      EXPECT_EQ(want.checkpoints[i].budget_used,
                got.checkpoints[i].budget_used)
          << label;
      EXPECT_EQ(want.checkpoints[i].avg_quality,
                got.checkpoints[i].avg_quality)
          << label;
    }
    EXPECT_EQ(want.final_metrics.avg_quality, got.final_metrics.avg_quality)
        << label;
    EXPECT_EQ(want.final_metrics.wasted_posts,
              got.final_metrics.wasted_posts)
        << label;
  }

  static constexpr SchedulerPolicy kAllPolicies[] = {
      SchedulerPolicy::kRoundRobin,
      SchedulerPolicy::kPriority,
      SchedulerPolicy::kDeadline,
  };

  static sim::Corpus* corpus_;
  static sim::PreparedDataset* dataset_;
  fs::path dir_;
};

sim::Corpus* SchedulerServiceTest::corpus_ = nullptr;
sim::PreparedDataset* SchedulerServiceTest::dataset_ = nullptr;
constexpr SchedulerPolicy SchedulerServiceTest::kAllPolicies[];

// Deterministic mode drives each campaign to the end inside Submit: the
// calling thread pops the scheduler's ready queue and runs Step until the
// campaign is terminal. With one campaign queued at a time the policy has
// nothing to reorder, so reports must stay byte-identical to
// AllocationEngine::Run under EVERY policy.
TEST_F(SchedulerServiceTest, DeterministicModeMatchesEngineUnderEveryPolicy) {
  for (SchedulerPolicy policy : kAllPolicies) {
    ManagerOptions options;
    options.deterministic = true;
    options.scheduler.policy = policy;
    CampaignManager manager(options);
    for (int kind = 0; kind < 4; ++kind) {
      const int64_t budget = 120 + 20 * kind;
      CampaignConfig config = MakeConfig(kind, budget, 11);
      config.options.priority = 1 + kind;
      config.options.deadline_seconds = kind % 2 == 0 ? 0.0 : 60.0;
      auto id = manager.Submit(std::move(config));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      auto report = manager.Wait(id.value());
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      // The sequential ground truth ignores scheduling fields entirely.
      ExpectReportsEqual(RunSequential(kind, budget, 11), report.value(),
                         std::string(SchedulerPolicyName(policy)) + "/kind" +
                             std::to_string(kind));
    }
  }
}

// Threaded mode: scheduling reorders which campaign steps when, but a
// campaign's own completions still apply in assignment order — results
// must equal the sequential engine under every policy.
TEST_F(SchedulerServiceTest, ConcurrentFleetMatchesEngineUnderEveryPolicy) {
  for (SchedulerPolicy policy : kAllPolicies) {
    ManagerOptions options;
    options.num_threads = 3;
    options.tasks_per_step = 8;
    options.scheduler.policy = policy;
    CampaignManager manager(options);
    std::vector<CampaignId> ids;
    for (int kind = 0; kind < 6; ++kind) {
      CampaignConfig config = MakeConfig(kind, 150 + 10 * kind, 23);
      config.options.priority = 1 + (kind % 3) * 4;
      config.options.deadline_seconds = kind % 2 == 0 ? 0.5 : 0.0;
      auto id = manager.Submit(std::move(config));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ids.push_back(id.value());
    }
    for (int kind = 0; kind < 6; ++kind) {
      auto result = manager.WaitFor(ids[kind], milliseconds(20000));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_EQ(result.value().state, CampaignState::kDone);
      ExpectReportsEqual(RunSequential(kind, 150 + 10 * kind, 23),
                         result.value().report,
                         std::string(SchedulerPolicyName(policy)) + "/kind" +
                             std::to_string(kind));
    }
    manager.Shutdown();
  }
}

// The acceptance property for aging: a priority-1 campaign competing
// with a fleet of priority-100 campaigns on one worker thread must still
// finish (and finish correctly).
TEST_F(SchedulerServiceTest, LowPriorityCampaignFinishesUnderSustainedLoad) {
  ManagerOptions options;
  options.num_threads = 1;
  options.tasks_per_step = 8;
  options.scheduler.policy = SchedulerPolicy::kPriority;
  CampaignManager manager(options);

  std::vector<CampaignId> high_ids;
  for (int i = 0; i < 8; ++i) {
    CampaignConfig config = MakeConfig(i % 4, 400, 31);
    config.name = "high-" + std::to_string(i);
    config.options.priority = 100;
    auto id = manager.Submit(std::move(config));
    ASSERT_TRUE(id.ok());
    high_ids.push_back(id.value());
  }
  CampaignConfig low = MakeConfig(1, 200, 31);
  low.name = "low";
  low.options.priority = 1;
  auto low_id = manager.Submit(std::move(low));
  ASSERT_TRUE(low_id.ok());

  auto result = manager.WaitFor(low_id.value(), milliseconds(30000));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().state, CampaignState::kDone);
  ExpectReportsEqual(RunSequential(1, 200, 31), result.value().report,
                     "low-priority");
  auto status = manager.Status(low_id.value());
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().priority, 1);
  EXPECT_GT(status.value().quanta_run, 1);
  manager.WaitAll();
  manager.Shutdown();
}

// Same property under EDF: an undeadlined campaign among always-urgent
// deadlined ones still finishes (the hard starvation bound).
TEST_F(SchedulerServiceTest, UndeadlinedCampaignFinishesUnderEdfLoad) {
  ManagerOptions options;
  options.num_threads = 1;
  options.tasks_per_step = 8;
  options.scheduler.policy = SchedulerPolicy::kDeadline;
  CampaignManager manager(options);

  for (int i = 0; i < 8; ++i) {
    CampaignConfig config = MakeConfig(i % 4, 400, 31);
    config.name = "urgent-" + std::to_string(i);
    config.options.deadline_seconds = 0.001;  // long past, maximally urgent
    auto id = manager.Submit(std::move(config));
    ASSERT_TRUE(id.ok());
  }
  CampaignConfig bg = MakeConfig(2, 200, 31);
  bg.name = "background";
  auto bg_id = manager.Submit(std::move(bg));
  ASSERT_TRUE(bg_id.ok());

  auto result = manager.WaitFor(bg_id.value(), milliseconds(30000));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().state, CampaignState::kDone);
  manager.WaitAll();
  manager.Shutdown();
}

// Kill-and-recover round-trips the scheduling class: the journaled
// SubmitRecord (format v3) carries priority/deadline, and the recovered
// campaign reports them.
TEST_F(SchedulerServiceTest, SchedulingClassSurvivesKillAndRecover) {
  const int kind = 1;
  const int64_t budget = 200;
  const uint64_t seed = 17;
  {
    // Wedge mid-run: a source that completes only half the tasks.
    class HalfSource : public CompletionSource {
     public:
      bool SubmitTasks(const std::vector<TaskHandle>& tasks,
                       const CompletionFn& done) override {
        for (const TaskHandle& task : tasks) {
          if (remaining_ > 0) {
            --remaining_;
            done(std::span<const TaskHandle>(&task, 1));
          }
        }
        return true;
      }
      int64_t remaining_ = 100;
    };
    HalfSource source;
    ManagerOptions options;
    options.num_threads = 2;
    options.tasks_per_step = 8;
    options.completions = &source;
    options.journal_dir = dir_.string();
    options.scheduler.policy = SchedulerPolicy::kDeadline;
    CampaignManager manager(options);
    CampaignConfig config = MakeConfig(kind, budget, seed);
    config.options.priority = 7;
    config.options.deadline_seconds = 300.0;
    auto id = manager.Submit(std::move(config));
    ASSERT_TRUE(id.ok());
    auto wedged = manager.WaitFor(id.value(), milliseconds(300));
    EXPECT_FALSE(wedged.ok());  // the source went silent
    manager.Shutdown();
  }

  auto files = util::ListDirFiles(dir_.string(), ".journal");
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files.value().size(), 1u);
  auto contents = persist::ReadJournal(files.value()[0]);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_EQ(contents.value().submit.format_version,
            persist::kJournalFormatVersion);
  EXPECT_EQ(contents.value().submit.options.priority, 7);
  EXPECT_EQ(contents.value().submit.options.deadline_seconds, 300.0);

  ManagerOptions recover_options;
  recover_options.deterministic = true;
  CampaignManager recovered(recover_options);
  auto ids = recovered.Recover(dir_.string(), Factory);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  ASSERT_EQ(ids.value().size(), 1u);
  auto report = recovered.Wait(ids.value()[0]);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ExpectReportsEqual(RunSequential(kind, budget, seed), report.value(),
                     "recovered");
  auto status = recovered.Status(ids.value()[0]);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().priority, 7);
  // Slack froze when the recovered campaign finished; the 300s deadline
  // was nowhere near missed.
  EXPECT_GT(status.value().deadline_slack_seconds, 0.0);
}

// A hand-written v2 journal (pre-scheduler format) recovers cleanly with
// the baseline scheduling class.
TEST_F(SchedulerServiceTest, V2JournalRecoversWithBaselineClass) {
  persist::SubmitRecord submit;
  submit.name = "legacy";
  submit.strategy_name = "RR";
  submit.seed = 5;
  submit.options.budget = 80;
  submit.options.omega = 5;

  // Encode the v2 body by hand: everything up to and including the
  // checkpoints, no scheduling fields.
  std::string body;
  util::wire::PutU8(&body,
                    static_cast<uint8_t>(persist::RecordType::kSubmit));
  util::wire::PutU32(&body, 2);
  util::wire::PutString(&body, submit.name);
  util::wire::PutString(&body, submit.strategy_name);
  util::wire::PutU64(&body, submit.seed);
  util::wire::PutI64(&body, submit.options.budget);
  util::wire::PutU32(&body, static_cast<uint32_t>(submit.options.omega));
  util::wire::PutI64(&body, submit.options.under_tagged_threshold);
  util::wire::PutI64(&body, submit.options.batch_size);
  util::wire::PutU32(&body, 0);  // no checkpoints
  const std::string frame = persist::FrameRecord(body);
  const std::string path = (dir_ / "campaign-1.journal").string();
  {
    std::ofstream f(path, std::ios::binary);
    f.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  }

  ManagerOptions options;
  options.deterministic = true;
  CampaignManager manager(options);
  auto ids = manager.Recover(dir_.string(), Factory);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  ASSERT_EQ(ids.value().size(), 1u);
  auto result = manager.WaitFor(ids.value()[0], milliseconds(10000));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().state, CampaignState::kDone);
  EXPECT_EQ(result.value().report.budget_spent, 80);
  auto status = manager.Status(ids.value()[0]);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().priority, 1);
  EXPECT_EQ(status.value().deadline_slack_seconds, 0.0);
}

}  // namespace
}  // namespace service
}  // namespace incentag

// The campaign scheduler (src/service/scheduler/): policy
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
#include <deque>
#include <fstream>
#include <thread>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/persist/journal.h"
#include "src/service/campaign_manager.h"
#include "src/service/scheduler/scheduler.h"
#include "src/util/file_io.h"
#include "src/util/wire.h"
#include "tests/testing/campaign_fixture.h"

namespace incentag {
namespace service {
namespace {

using std::chrono::milliseconds;

// ---- policy unit tests -------------------------------------------------

// The policy tests name ready-queue entries by id: Item(id) is the one
// entry of campaign `id` (ids up to 20,000), and PopId is the id of
// whatever PopNext hands back, 0 when the queue is empty.
Runnable* Item(CampaignId id) {
  static std::deque<Runnable> items = [] {
    std::deque<Runnable> all;
    for (CampaignId i = 0; i <= 20000; ++i) all.emplace_back(i);
    return all;
  }();
  return &items.at(id);
}

CampaignId PopId(Scheduler& scheduler) {
  const Runnable* popped = scheduler.PopNext();
  return popped == nullptr ? 0 : popped->id;
}

TEST(RoundRobinPolicyTest, PopsFifoAndUsesBaseQuantum) {
  Scheduler scheduler(SchedulerOptions{}, 32);
  scheduler.Register(1, ScheduleParams{5, 0.0});
  scheduler.Register(2, ScheduleParams{1, 1.0});
  scheduler.Enqueue(Item(2));
  scheduler.Enqueue(Item(1));
  scheduler.Enqueue(Item(3));
  EXPECT_EQ(PopId(scheduler), 2u);
  EXPECT_EQ(PopId(scheduler), 1u);
  EXPECT_EQ(PopId(scheduler), 3u);
  EXPECT_EQ(PopId(scheduler), 0u);  // empty
  // Priority is ignored: everyone gets the base quantum.
  EXPECT_EQ(scheduler.Quantum(1), 32);
  EXPECT_EQ(scheduler.Quantum(2), 32);
}

TEST(PriorityPolicyTest, PopsHighestPriorityFirstAndScalesQuanta) {
  SchedulerOptions options;
  options.policy = SchedulerPolicy::kPriority;
  Scheduler scheduler(options, 10);
  scheduler.Register(1, ScheduleParams{1, 0.0});
  scheduler.Register(2, ScheduleParams{100, 0.0});
  scheduler.Register(3, ScheduleParams{3, 0.0});
  scheduler.Enqueue(Item(1));
  scheduler.Enqueue(Item(2));
  scheduler.Enqueue(Item(3));
  EXPECT_EQ(PopId(scheduler), 2u);
  EXPECT_EQ(PopId(scheduler), 3u);
  EXPECT_EQ(PopId(scheduler), 1u);
  // Weighted quanta, with the weight capped at 64.
  EXPECT_EQ(scheduler.Quantum(1), 10);
  EXPECT_EQ(scheduler.Quantum(3), 30);
  EXPECT_EQ(scheduler.Quantum(2), 640);  // 100 capped to 64
  // Unregistered campaigns fall back to the baseline class.
  EXPECT_EQ(scheduler.Quantum(99), 10);
}

TEST(PriorityPolicyTest, AgingLiftsAPassedOverEntry) {
  SchedulerOptions options;
  options.policy = SchedulerPolicy::kPriority;
  options.starvation_limit = 0;  // isolate aging from the hard bound
  Scheduler scheduler(options, 256);
  scheduler.Register(1, ScheduleParams{1, 0.0});
  scheduler.Register(2, ScheduleParams{5, 0.0});
  scheduler.Enqueue(Item(1));
  // A continuous stream of high-priority work: entry 1 gains half an
  // effective priority point per skip, ties fresh entry 2 after 8 skips
  // and, being older, wins the tie: it must pop within 10 pops.
  int pops_until_low = 0;
  for (int i = 0; i < 20; ++i) {
    scheduler.Enqueue(Item(2));
    const CampaignId popped = PopId(scheduler);
    ++pops_until_low;
    if (popped == 1) break;
    EXPECT_EQ(popped, 2u);
  }
  EXPECT_LE(pops_until_low, 10);
}

TEST(PriorityPolicyTest, StarvationLimitHardPops) {
  SchedulerOptions options;
  options.policy = SchedulerPolicy::kPriority;
  options.starvation_limit = 3;
  Scheduler scheduler(options, 256);
  scheduler.Register(1, ScheduleParams{1, 0.0});
  scheduler.Register(2, ScheduleParams{100, 0.0});
  scheduler.Enqueue(Item(1));
  std::vector<CampaignId> order;
  for (int i = 0; i < 5; ++i) {
    scheduler.Enqueue(Item(2));
    order.push_back(PopId(scheduler));
  }
  // Three skips of aging (1.5 points) leave entry 1 far behind 100, yet
  // the starving entry then pops regardless of priority.
  const std::vector<CampaignId> want = {2, 2, 2, 1, 2};
  EXPECT_EQ(order, want);
}

TEST(DeadlinePolicyTest, PopsEarliestDeadlineFirst) {
  SchedulerOptions options;
  options.policy = SchedulerPolicy::kDeadline;
  Scheduler scheduler(options, 256);
  scheduler.Register(1, ScheduleParams{1, 0.0});    // no deadline
  scheduler.Register(2, ScheduleParams{1, 500.0});
  scheduler.Register(3, ScheduleParams{1, 100.0});
  scheduler.Enqueue(Item(1));
  scheduler.Enqueue(Item(2));
  scheduler.Enqueue(Item(3));
  EXPECT_EQ(PopId(scheduler), 3u);
  EXPECT_EQ(PopId(scheduler), 2u);
  EXPECT_EQ(PopId(scheduler), 1u);
  EXPECT_EQ(scheduler.Quantum(2), 256);  // uniform quanta
}

TEST(DeadlinePolicyTest, StarvationLimitRescuesUndeadlinedCampaign) {
  SchedulerOptions options;
  options.policy = SchedulerPolicy::kDeadline;
  options.starvation_limit = 4;
  Scheduler scheduler(options, 256);
  scheduler.Register(1, ScheduleParams{1, 0.0});  // no deadline
  scheduler.Register(2, ScheduleParams{1, 1.0});  // always urgent
  scheduler.Enqueue(Item(1));
  int pops_until_undeadlined = 0;
  for (int i = 0; i < 20; ++i) {
    scheduler.Enqueue(Item(2));
    ++pops_until_undeadlined;
    if (PopId(scheduler) == 1) break;
  }
  EXPECT_LE(pops_until_undeadlined, 5);
}

TEST(DeadlinePolicyTest, AgingPullsAWaitingDeadlineForward) {
  SchedulerOptions options;
  options.policy = SchedulerPolicy::kDeadline;
  options.starvation_limit = 0;  // isolate aging from the hard bound
  Scheduler scheduler(options, 256);
  // Registered first, so time between the calls only widens the gap: 2's
  // deadline is at least 1 s before 1's.
  scheduler.Register(2, ScheduleParams{1, 10.0});
  scheduler.Register(1, ScheduleParams{1, 11.0});
  scheduler.Enqueue(Item(1));
  // Each skip moves 1's deadline 0.05 s earlier, so a fresh 2 keeps
  // winning for about 20 pops and then loses.
  int pops_until_later = 0;
  for (int i = 0; i < 40; ++i) {
    scheduler.Enqueue(Item(2));
    ++pops_until_later;
    if (PopId(scheduler) == 1) break;
  }
  EXPECT_GE(pops_until_later, 20);
  EXPECT_LE(pops_until_later, 30);
}

// ---- the single ready queue -------------------------------------------

// Round-robin is one global FIFO: every enqueued entry pops exactly
// once, in enqueue order, however many campaigns wait.
TEST(RoundRobinPolicyTest, PopsEveryEntryOnceInGlobalFifoOrder) {
  Scheduler scheduler(SchedulerOptions{}, 256);
  for (CampaignId id = 1; id <= 12; ++id) scheduler.Enqueue(Item(id));
  for (CampaignId id = 1; id <= 12; ++id) {
    EXPECT_EQ(PopId(scheduler), id);
  }
  EXPECT_EQ(PopId(scheduler), 0u);  // drained
}

// The liveness and Unregister properties hold for every policy's queue.
class ReadyQueueTest : public ::testing::TestWithParam<SchedulerPolicy> {
 protected:
  std::unique_ptr<Scheduler> Make() const {
    SchedulerOptions options;
    options.policy = GetParam();
    return std::make_unique<Scheduler>(options, 256);
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
        scheduler->Enqueue(Item(id));
        if (PopId(*scheduler) == 0) zero_pops.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(zero_pops.load(), 0);
  EXPECT_EQ(PopId(*scheduler), 0u);  // fully drained afterwards
}

TEST_P(ReadyQueueTest, UnregisterDropsOnlyItsOwnEntry) {
  std::unique_ptr<Scheduler> scheduler = Make();
  for (CampaignId id = 1; id <= 8; ++id) {
    scheduler->Register(id, ScheduleParams{static_cast<int32_t>(id), 0.0});
    scheduler->Enqueue(Item(id));
  }
  scheduler->Unregister(6);
  std::vector<CampaignId> popped;
  for (int i = 0; i < 7; ++i) popped.push_back(PopId(*scheduler));
  EXPECT_EQ(PopId(*scheduler), 0u);
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

// ---- pinned pop order --------------------------------------------------

std::unique_ptr<Scheduler> NewScheduler(SchedulerPolicy policy,
                                        int64_t starvation_limit,
                                        int64_t base_quantum) {
  SchedulerOptions options;
  options.policy = policy;
  options.starvation_limit = starvation_limit;
  return std::make_unique<Scheduler>(options, base_quantum);
}

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// FNV-1a over the eight little-endian bytes of `value`.
uint64_t Fnv1a(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xff;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

struct PinnedOrder {
  SchedulerPolicy policy;
  int64_t starvation_limit;
  uint64_t digest;  // recorded from the original per-policy classes
};

class SchedulerTest : public ::testing::TestWithParam<PinnedOrder> {};

// A seeded script of Register / Enqueue / PopNext / Quantum / Unregister
// over 300 ids with mixed classes, folded into an FNV-1a digest of every
// popped id and its quantum. Any change to the pop order, the aging, the
// starvation backstop or the quantum rule moves the digest. Enqueue keeps
// the manager's protocol (an id is queued at most once). Each dated id's
// deadline is 1000 s x id, so ids sit >= 1000 s apart and the
// microseconds between Register calls (EDF's clock starts there) never
// reorder them; aging moves a deadline by 0.05 s per skip, and no entry
// is skipped anywhere near 20,000 times.
TEST_P(SchedulerTest, PopOrderIsPinned) {
  const PinnedOrder& pinned = GetParam();
  constexpr CampaignId kIds = 300;
  constexpr int kOps = 8000;
  std::unique_ptr<Scheduler> scheduler =
      NewScheduler(pinned.policy, pinned.starvation_limit, 16);
  std::vector<bool> queued(kIds + 1, false);
  uint64_t rng = 20261019;
  uint64_t digest = 0xcbf29ce484222325ull;
  int64_t pops = 0;
  const auto pop = [&] {
    const CampaignId id = PopId(*scheduler);
    if (id == 0) return false;
    queued[id] = false;
    ++pops;
    digest = Fnv1a(Fnv1a(digest, id),
                   static_cast<uint64_t>(scheduler->Quantum(id)));
    return true;
  };
  for (int op = 0; op < kOps; ++op) {
    const uint64_t r = SplitMix64(&rng);
    const auto id = static_cast<CampaignId>(1 + (r >> 8) % kIds);
    const uint64_t kind = r % 16;
    if (kind < 2) {
      // Priorities -4..95: some clamp to 1, some pass the weight cap.
      const auto priority = static_cast<int32_t>((r >> 24) % 100) - 4;
      const double deadline =
          (r >> 40) % 3 == 0 ? 0.0 : 1000.0 * static_cast<double>(id);
      scheduler->Register(id, ScheduleParams{priority, deadline});
    } else if (kind < 8) {
      if (!queued[id]) {
        queued[id] = true;
        scheduler->Enqueue(Item(id));
      }
    } else if (kind < 13) {
      pop();
    } else if (kind < 14) {
      scheduler->Unregister(id);
      queued[id] = false;
    } else {
      // Quantum of any id, registered or not, queued or not.
      digest = Fnv1a(digest, static_cast<uint64_t>(scheduler->Quantum(id)));
    }
  }
  while (pop()) {
  }
  EXPECT_EQ(std::count(queued.begin(), queued.end(), true), 0);
  EXPECT_GT(pops, kOps / 4);
  EXPECT_EQ(digest, pinned.digest)
      << std::hex << "0x" << digest << " after " << std::dec << pops
      << " pops";
}

INSTANTIATE_TEST_SUITE_P(
    Policies, SchedulerTest,
    ::testing::Values(
        PinnedOrder{SchedulerPolicy::kRoundRobin, 64, 0x9807160300b1c18dull},
        PinnedOrder{SchedulerPolicy::kRoundRobin, 4, 0x9807160300b1c18dull},
        PinnedOrder{SchedulerPolicy::kRoundRobin, 0, 0x9807160300b1c18dull},
        PinnedOrder{SchedulerPolicy::kPriority, 64, 0x53d542e71a6d933bull},
        PinnedOrder{SchedulerPolicy::kPriority, 4, 0x67ac636a275ba38dull},
        PinnedOrder{SchedulerPolicy::kPriority, 0, 0xcaa820b8764639fcull},
        PinnedOrder{SchedulerPolicy::kDeadline, 64, 0x335d689b519289eaull},
        PinnedOrder{SchedulerPolicy::kDeadline, 4, 0x5294936693e39dc1ull},
        PinnedOrder{SchedulerPolicy::kDeadline, 0, 0x23e6282999d38c83ull}),
    [](const ::testing::TestParamInfo<PinnedOrder>& info) {
      return std::string(SchedulerPolicyName(info.param.policy)) + "_limit" +
             std::to_string(info.param.starvation_limit);
    });

TEST(SchedulerTest, UnregisterDropsReadyEntries) {
  SchedulerOptions options;
  options.policy = SchedulerPolicy::kPriority;
  Scheduler scheduler(options, 256);
  scheduler.Register(1, ScheduleParams{1, 0.0});
  scheduler.Register(2, ScheduleParams{2, 0.0});
  scheduler.Enqueue(Item(1));
  scheduler.Enqueue(Item(2));
  scheduler.Unregister(2);
  EXPECT_EQ(PopId(scheduler), 1u);
  EXPECT_EQ(PopId(scheduler), 0u);
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

class SchedulerServiceTest : public testing::CampaignTest<50, 20260729> {
 protected:
  // testing::KindSpec with checkpoints at half and all of the budget and
  // batches of 8.
  static testing::Spec KindSpec(int kind, int64_t budget, uint64_t seed) {
    testing::Spec spec = testing::KindSpec(kind, budget, seed);
    spec.options.checkpoints = {budget / 2, budget};
    spec.options.batch_size = (kind % 3 == 0) ? 8 : 1;
    return spec;
  }

  static CampaignConfig MakeConfig(int kind, int64_t budget, uint64_t seed) {
    return CampaignTest::MakeConfig(KindSpec(kind, budget, seed));
  }
};

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
  EXPECT_TRUE(testing::SameReport(Uninterrupted(KindSpec(1, 200, 31)),
                                  result.value().report));
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
    testing::LimitedCompletionSource source(100);
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
  EXPECT_TRUE(testing::SameReport(Uninterrupted(KindSpec(kind, budget, seed)),
                                  report.value()));
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

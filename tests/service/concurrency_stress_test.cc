// TSan stress tests for the service's shared structures, beyond the
// policy tests in scheduler_test.cc:
//
//  - The ready queue's conservation: under concurrent Enqueue and
//    PopNext every enqueued campaign pops exactly once, for the FIFO
//    queue (the rr policy) and the ranked scan (the priority policy).
//  - The read paths (/metrics snapshot, campaign listing) under a
//    running fleet.
//
// The tests are meaningful under any build but earn their keep in the
// CI `thread` sanitizer leg (INCENTAG_SANITIZE=thread): 16 threads
// hammering push/pop is exactly the schedule space the annotations in
// the scheduler header claim to cover: one mutex over one ready queue,
// whichever policy reads it.
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/service/campaign_manager.h"
#include "src/service/completion_source.h"
#include "src/service/scheduler/scheduler.h"
#include "tests/testing/campaign_fixture.h"

namespace incentag {
namespace service {
namespace {

constexpr int kThreads = 16;

class ReadyQueueStressTest
    : public ::testing::TestWithParam<SchedulerPolicy> {};

TEST_P(ReadyQueueStressTest, PushVsPopConservesEntries) {
  // 8 pusher threads and 8 popper threads race on one scheduler.
  // Conservation: every pushed id is popped exactly once, and after the
  // pushers finish the poppers drain the queue until PopNext reads null.
  constexpr int kPushers = kThreads / 2;
  constexpr int kPoppers = kThreads / 2;
  // The ranked pop scans the whole queue, so the ids stay few enough
  // that a queue the poppers fall behind on still drains quickly.
  constexpr int kPerPusher = 1500;

  SchedulerOptions options;
  options.policy = GetParam();
  auto scheduler = std::make_unique<Scheduler>(options, 256);
  // One ready-queue entry per id, 1..kPushers * kPerPusher.
  std::deque<Runnable> items;
  for (int i = 0; i < kPushers * kPerPusher; ++i) {
    items.emplace_back(static_cast<CampaignId>(i + 1));
  }
  std::atomic<bool> pushers_done{false};
  std::atomic<int64_t> popped_count{0};
  std::atomic<int64_t> popped_sum{0};

  std::vector<std::thread> threads;
  threads.reserve(kPushers + kPoppers);
  for (int p = 0; p < kPushers; ++p) {
    threads.emplace_back([&scheduler, &items, p] {
      for (int i = 0; i < kPerPusher; ++i) {
        scheduler->Enqueue(&items[static_cast<size_t>(p * kPerPusher + i)]);
      }
    });
  }
  for (int c = 0; c < kPoppers; ++c) {
    threads.emplace_back([&] {
      for (;;) {
        // Read the flag before popping: a null after every push landed
        // proves the queue drained.
        const bool done = pushers_done.load(std::memory_order_acquire);
        const Runnable* got = scheduler->PopNext();
        if (got != nullptr) {
          popped_count.fetch_add(1, std::memory_order_relaxed);
          popped_sum.fetch_add(static_cast<int64_t>(got->id),
                               std::memory_order_relaxed);
        } else if (done) {
          return;
        }
      }
    });
  }
  for (int p = 0; p < kPushers; ++p) threads[static_cast<size_t>(p)].join();
  pushers_done.store(true, std::memory_order_release);
  for (size_t c = kPushers; c < threads.size(); ++c) threads[c].join();

  const int64_t total = int64_t{kPushers} * kPerPusher;
  EXPECT_EQ(popped_count.load(), total);
  // Sum of 1..total — catches a double-pop hiding behind a lost push.
  EXPECT_EQ(popped_sum.load(), total * (total + 1) / 2);
  EXPECT_EQ(scheduler->PopNext(), nullptr)
      << "queue must be empty after the drain";
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ReadyQueueStressTest,
    ::testing::Values(SchedulerPolicy::kRoundRobin,
                      SchedulerPolicy::kPriority),
    [](const ::testing::TestParamInfo<SchedulerPolicy>& info) {
      return std::string(SchedulerPolicyName(info.param));
    });

TEST(ObservabilityStressTest, ScrapeAndListNeverBlockTheCompletionPath) {
  // The ISSUE 8 read-path contract: GET /metrics and GET /v1/campaigns
  // are served straight off Registry::Snapshot() and
  // CampaignManager::List(), and neither may touch a campaign inbox
  // lock — a dashboard poll must not stall the completion hot path, and
  // the hot path must not stall a scrape. 8 scraper threads hammer both
  // read paths continuously while a fleet of campaigns runs completions
  // through the manager pool; the fleet finishing under that fire (and
  // TSan staying quiet about the interleavings) is the assertion.
  const sim::PreparedDataset& dataset = testing::Dataset(40, 20260808);

  ManagerOptions options;
  options.num_threads = 4;
  CampaignManager manager(options);

  constexpr int kScrapers = kThreads / 2;
  constexpr int kCampaigns = 12;
  std::atomic<bool> fleet_done{false};
  std::atomic<int64_t> scrapes{0};
  std::atomic<int64_t> lists{0};
  std::vector<std::thread> scrapers;
  scrapers.reserve(kScrapers);
  for (int s = 0; s < kScrapers; ++s) {
    scrapers.emplace_back([&, s] {
      while (!fleet_done.load(std::memory_order_acquire)) {
        if (s % 2 == 0) {
          // The /metrics read path: a full snapshot + render every
          // iteration, exactly what the HTTP handler serves.
          const std::string text =
              obs::Registry::Default().Snapshot().RenderPrometheus();
          ASSERT_FALSE(text.empty());
          scrapes.fetch_add(1, std::memory_order_relaxed);
        } else {
          // The listing read path, filters included: pages must be
          // internally consistent at every instant mid-run.
          ListQuery query;
          query.offset = static_cast<size_t>(s);
          query.limit = 5;
          query.search = "stress-";
          CampaignPage page = manager.List(query);
          ASSERT_LE(page.statuses.size(), query.limit);
          ASSERT_LE(page.total, static_cast<size_t>(kCampaigns));
          lists.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  for (int i = 0; i < kCampaigns; ++i) {
    testing::Spec spec{"stress-" + std::to_string(i), "RR", {}, 0};
    spec.options.budget = 300;
    ASSERT_TRUE(manager.Submit(testing::MakeConfig(dataset, spec)).ok());
  }
  manager.WaitAll();
  fleet_done.store(true, std::memory_order_release);
  for (std::thread& scraper : scrapers) scraper.join();

  // The fleet ran to completion under continuous scraping, and both
  // read paths made real progress (a wedged snapshot or listing would
  // have pinned its counter at ~0 while WaitAll spun).
  EXPECT_GT(scrapes.load(), 0);
  EXPECT_GT(lists.load(), 0);
  ListQuery done_query;
  done_query.state = CampaignState::kDone;
  done_query.search = "stress-";
  done_query.limit = ListQuery::kMaxLimit;
  CampaignPage page = manager.List(done_query);
  EXPECT_EQ(page.total, static_cast<size_t>(kCampaigns));
  for (const CampaignStatus& status : page.statuses) {
    EXPECT_EQ(status.state, CampaignState::kDone);
    EXPECT_GT(status.tasks_completed, 0);
  }
}

}  // namespace
}  // namespace service
}  // namespace incentag

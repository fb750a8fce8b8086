// The ISSUE 10 capstone: a 16-campaign journaled fleet tortured by a
// seeded, randomized fault schedule across every storage fail point.
// Acceptance: zero wedged campaigns — every campaign reaches a terminal
// state (done, or quarantined when its journal fd went permanently
// sick) within a bounded wait; injected faults are visible in
// incentag_fault_injections_total; and after a kill, recovery on
// healthy storage replays every journal — finished and quarantined
// alike — to a report byte-identical to the uninterrupted sequential
// run.
#include <cerrno>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/metrics.h"
#include "src/persist/journal.h"
#include "src/service/campaign_manager.h"
#include "src/service/fleet_health.h"
#include "src/sim/load_generator.h"
#include "src/util/fail_point.h"
#include "src/util/random.h"
#include "tests/testing/campaign_fixture.h"

namespace incentag {
namespace service {
namespace {

using std::chrono::milliseconds;

#if !INCENTAG_FAILPOINTS

TEST(FaultTortureTest, CompiledOut) {
  GTEST_SKIP() << "built with INCENTAG_FAILPOINTS=OFF";
}

#else

using util::FailPoint;

class FaultTortureTest : public testing::CampaignTest<60, 20260808> {
 protected:
  void TearDown() override {
    util::FailPoint::DisarmAll();
    CampaignTest::TearDown();
  }

  static testing::Spec KindSpec(int kind, int64_t budget, uint64_t seed,
                                int32_t priority) {
    testing::Spec spec = testing::KindSpec(kind, budget, seed);
    spec.name = "torture-" + std::to_string(kind);
    spec.options.priority = priority;
    return spec;
  }

  static int64_t InjectionsTotal() {
    return obs::Registry::Default()
        .GetCounter("incentag_fault_injections_total", "")
        ->Value();
  }

};

TEST_F(FaultTortureTest, SixteenCampaignFleetNeverWedgesAndRecovers) {
  constexpr int kCampaigns = 16;

  // Mixed scheduling classes: odd campaigns are foreground (priority 2,
  // never parked), even ones background (parked while degraded).
  std::vector<testing::Spec> specs;
  std::vector<core::RunReport> want;
  for (int i = 0; i < kCampaigns; ++i) {
    specs.push_back(KindSpec(i % 5, 300 + 20 * i,
                             9000 + static_cast<uint64_t>(i),
                             (i % 2 == 1) ? 2 : 1));
    want.push_back(Uninterrupted(specs.back()));
  }

  FleetHealthOptions health_options;
  health_options.enter_after_failures = 3;
  health_options.exit_after_successes = 2;
  FleetHealth health(health_options);

  sim::LoadGeneratorOptions load_options;
  load_options.num_taggers = 6;
  load_options.mean_latency_us = 40.0;
  load_options.tagger_speed_sigma = 1.0;
  load_options.seed = 1337;
  sim::CrowdLoadGenerator crowd(load_options);

  ManagerOptions options;
  options.num_threads = 4;
  options.tasks_per_step = 13;
  options.completions = &crowd;
  options.journal_dir = dir_.string();
  options.compact_journal_bytes = 64 * persist::kFramedCompletionBytes;
  options.health = &health;
  auto manager = std::make_unique<CampaignManager>(options);

  const int64_t injected_before = InjectionsTotal();

  // The opener: a deterministic burst armed across the submissions, so
  // at least two injections land on any machine no matter how the
  // storm's probabilistic rounds roll. The shape is a benign short
  // write — every SubmitRecord append traverses file_io/pwritev, the
  // capped write exercises the resume path, and Submit still succeeds
  // (a failing shape here would fail the Submit itself; timing-based
  // openers armed after submission lose the race on sanitizer builds,
  // where slow submits let early campaigns finish first).
  {
    FailPoint::Trigger opener;
    opener.mode = FailPoint::Mode::kAlways;
    opener.max_fires = 2;
    FailPoint::Fault short_write;
    short_write.shape = FailPoint::Shape::kShortWrite;
    short_write.max_bytes = 16;
    FailPoint::Find("file_io/pwritev")->Arm(opener, short_write);
  }

  std::unordered_map<CampaignId, int> index_of;
  std::vector<CampaignId> ids;
  for (int i = 0; i < kCampaigns; ++i) {
    auto id = manager->Submit(MakeConfig(specs[static_cast<size_t>(i)]));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    index_of[id.value()] = i;
    ids.push_back(id.value());
  }
  EXPECT_GE(InjectionsTotal(), injected_before + 2);  // opener landed

  // The storm: seeded schedule arming one random site per round with a
  // random shape, while the fleet runs.
  const char* kSites[] = {
      "file_io/pwritev", "file_io/fdatasync", "file_io/fsync",
      "file_io/open",    "file_io/syncdir",   "compactor/rewrite",
      "compactor/rename",
  };
  constexpr size_t kNumSites = sizeof(kSites) / sizeof(kSites[0]);
  util::Rng rng(0xF417);
  // Bounded by fleet progress, not wall clock — sanitizer builds run
  // the same fleet ~10x slower. The generous round cap only backstops a
  // wedged fleet (which WaitFor below would also catch, with a better
  // message).
  for (int round = 0; round < 20000; ++round) {
    size_t terminal = 0;
    for (CampaignId id : ids) {
      auto status = manager->Status(id);
      ASSERT_TRUE(status.ok());
      if (IsTerminal(status.value().state)) ++terminal;
    }
    if (terminal >= kCampaigns / 2) break;  // keep faulting while busy

    const char* site = kSites[rng.NextBounded(kNumSites)];
    FailPoint* point = FailPoint::Find(site);
    ASSERT_NE(point, nullptr) << site;
    FailPoint::Trigger trigger;
    trigger.mode = FailPoint::Mode::kProbability;
    trigger.probability = 0.5;
    trigger.seed = rng.NextUint64();
    trigger.max_fires = 1 + rng.NextBounded(3);
    FailPoint::Fault fault;
    switch (rng.NextBounded(4)) {
      case 0:
        fault.shape = FailPoint::Shape::kErrno;
        fault.err = ENOSPC;
        break;
      case 1:
        fault.shape = FailPoint::Shape::kErrno;
        fault.err = EIO;
        break;
      case 2:
        fault.shape = FailPoint::Shape::kShortWrite;
        fault.max_bytes = 1 + static_cast<int64_t>(rng.NextBounded(256));
        break;
      default:
        fault.shape = FailPoint::Shape::kTornSync;
        fault.err = EIO;
        break;
    }
    point->Arm(trigger, fault);
    std::this_thread::sleep_for(milliseconds(2));
    point->Disarm();
  }

  // Storm over: heal the disk. If the fleet is still degraded and no
  // foreground campaign is left to generate the exit-edge syncs, feed
  // the hysteresis directly — its exit hook must unpark everything.
  util::FailPoint::DisarmAll();
  while (health.degraded()) health.ReportStorageOk();

  // Zero wedged campaigns: every campaign goes terminal within the
  // bound, as done (byte-identical even through transient retries) or
  // quarantined (fd went permanently sick mid-storm). Never failed,
  // never stuck running.
  int done = 0;
  int quarantined = 0;
  for (CampaignId id : ids) {
    auto result = manager->WaitFor(id, milliseconds(120000));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const int i = index_of[id];
    if (result.value().state == CampaignState::kQuarantined) {
      ++quarantined;
      EXPECT_FALSE(result.value().error.empty());
      continue;
    }
    ASSERT_EQ(result.value().state, CampaignState::kDone)
        << "campaign " << i << ": " << result.value().error;
    ++done;
    EXPECT_TRUE(testing::SameReport(want[static_cast<size_t>(i)],
                                    result.value().report))
        << "faulted run, campaign " << i;
  }
  EXPECT_EQ(done + quarantined, kCampaigns);
  EXPECT_GE(InjectionsTotal(), injected_before + 2);  // opener at minimum

  // The kill: drop the fleet, journals stay behind. Teardown contract:
  // the crowd's tagger threads call back into the manager, so the crowd
  // stops first.
  crowd.Stop();
  manager->Shutdown();
  manager.reset();

  // Recovery on healthy storage replays every journal — the finished
  // runs end-to-end, the quarantined ones from their durable prefix —
  // each to the byte-identical sequential report.
  ManagerOptions det;
  det.deterministic = true;
  CampaignManager recovered(det);
  auto recovered_ids = recovered.Recover(dir_.string(), Factory);
  ASSERT_TRUE(recovered_ids.ok()) << recovered_ids.status().ToString();
  ASSERT_EQ(recovered_ids.value().size(),
            static_cast<size_t>(kCampaigns));
  for (CampaignId id : recovered_ids.value()) {
    ASSERT_TRUE(index_of.count(id)) << "unknown recovered id " << id;
    const int i = index_of[id];
    auto report = recovered.Wait(id);
    ASSERT_TRUE(report.ok())
        << "campaign " << i << ": " << report.status().ToString();
    EXPECT_TRUE(
        testing::SameReport(want[static_cast<size_t>(i)], report.value()))
        << "recovered, campaign " << i;
  }
}

// A terminal sync that fails leaves the journal open, and the sink's
// retry ladder syncs it again before Shutdown returns. The campaign fits
// in one quantum, so no step schedules the journal on the sink first:
// every fdatasync counted comes after the failed terminal fsync.
TEST_F(FaultTortureTest, FailedTerminalSyncIsRetriedOnTheSink) {
  constexpr int kKind = 1;
  constexpr int64_t kBudget = 12;
  constexpr uint64_t kSeed = 4242;
  const testing::Spec spec = KindSpec(kKind, kBudget, kSeed, 1);
  const core::RunReport want = Uninterrupted(spec);

  // fsync hit 1 is the submit record's sync, hit 2 the terminal one.
  FailPoint* fsync = FailPoint::Find("file_io/fsync");
  FailPoint* fdatasync = FailPoint::Find("file_io/fdatasync");
  ASSERT_NE(fsync, nullptr);
  ASSERT_NE(fdatasync, nullptr);
  FailPoint::Trigger second;
  second.mode = FailPoint::Mode::kNthHit;
  second.n = 2;
  fsync->Arm(second, FailPoint::Fault{});
  FailPoint::Trigger never;
  never.mode = FailPoint::Mode::kProbability;
  never.probability = 0.0;
  fdatasync->Arm(never, FailPoint::Fault{});

  ManagerOptions options;
  options.deterministic = true;
  options.journal_dir = dir_.string();
  CampaignManager manager(options);
  auto id = manager.Submit(MakeConfig(spec));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto report = manager.Wait(id.value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(testing::SameReport(want, report.value()));
  manager.Shutdown();

  EXPECT_EQ(fsync->fires(), 1u);
  EXPECT_GE(fdatasync->hits(), 1u);
}

#endif  // INCENTAG_FAILPOINTS

}  // namespace
}  // namespace service
}  // namespace incentag

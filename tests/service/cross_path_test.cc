// The cross-path identity table. Algorithm 1 is deterministic given the
// dataset, the strategy, its seed and the options, so every way of driving
// a campaign must finish with the engine's report, byte for byte. One spec
// list (testing::CrossPathSpecs: every strategy, batch sizes 1 and 16,
// omegas 3 and 5, under-tagged thresholds 10 and 4, mixed priorities and
// deadlines) runs through every row, and each row's whole fleet shares one
// dataset's post store and trajectory tables while the reference shares
// nothing, so the table checks fleet isolation too. The sanitizer builds
// run it, which puts the shared reads under TSan and ASan.
//
// A new way to drive a campaign is one more row here. Kill + Recover at
// seeded cut points is in recovery_cut_test and the fault storm in
// fault_torture_test; both build on the same fixture.
#include <chrono>
#include <filesystem>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/service/campaign_manager.h"
#include "src/service/scheduler/scheduler.h"
#include "src/sim/load_generator.h"
#include "tests/testing/campaign_fixture.h"
#include "tests/testing/http_campaign.h"

namespace incentag {
namespace service {
namespace {

namespace fs = std::filesystem;
using std::chrono::milliseconds;
using testing::Spec;

// Reports by spec name.
using Reports = std::map<std::string, core::RunReport>;

constexpr int64_t kResources = 60;
constexpr uint64_t kCorpusSeed = 20261017;

const sim::PreparedDataset& TableDataset() {
  return testing::Dataset(kResources, kCorpusSeed);
}

// Waits for every campaign in `ids` (spec name -> id), each of which must
// end kDone with nothing in flight, and returns its report.
Reports WaitForFleet(CampaignManager& manager,
                     const std::map<std::string, CampaignId>& ids) {
  Reports reports;
  for (const auto& [name, id] : ids) {
    auto result = manager.WaitFor(id, milliseconds(60000));
    if (!result.ok()) {
      ADD_FAILURE() << name << ": " << result.status().ToString();
      continue;
    }
    EXPECT_EQ(result.value().state, CampaignState::kDone)
        << name << ": " << result.value().error;
    EXPECT_EQ(manager.Status(id).value().tasks_in_flight, 0) << name;
    reports[name] = result.value().report;
  }
  return reports;
}

Reports SubmitFleet(CampaignManager& manager, const std::vector<Spec>& specs) {
  std::map<std::string, CampaignId> ids;
  for (const Spec& spec : specs) {
    auto id = manager.Submit(testing::MakeConfig(TableDataset(), spec));
    EXPECT_TRUE(id.ok()) << spec.name << ": " << id.status().ToString();
    if (id.ok()) ids[spec.name] = id.value();
  }
  return WaitForFleet(manager, ids);
}

// The engine over the dataset's own store; the reference reads a copy.
Reports Engine(const std::vector<Spec>& specs, const fs::path&) {
  Reports reports;
  for (const Spec& spec : specs) {
    std::shared_ptr<void> context;
    auto strategy = sim::MakeStrategyByName(
        spec.strategy, TableDataset().popularity, spec.seed, &context);
    core::AllocationEngine engine(spec.options,
                                  &TableDataset().initial_posts,
                                  &TableDataset().references);
    core::VectorPostStream stream = TableDataset().MakeStream();
    auto report = engine.Run(strategy.get(), &stream);
    EXPECT_TRUE(report.ok()) << spec.name;
    if (report.ok()) reports[spec.name] = std::move(report).value();
  }
  return reports;
}

// Deterministic mode runs each campaign to the end inside Submit; a small
// quantum makes it yield through the ready queue mid-batch.
auto Deterministic(SchedulerPolicy policy, int64_t tasks_per_step) {
  return [=](const std::vector<Spec>& specs, const fs::path&) {
    ManagerOptions options;
    options.deterministic = true;
    options.tasks_per_step = tasks_per_step;
    options.scheduler.policy = policy;
    CampaignManager manager(options);
    return SubmitFleet(manager, specs);
  };
}

// The threaded manager steps the whole fleet at once; the policy reorders
// which campaign steps when, never what a campaign computes.
auto ThreadedInline(SchedulerPolicy policy) {
  return [=](const std::vector<Spec>& specs, const fs::path&) {
    ManagerOptions options;
    options.num_threads = 4;
    options.tasks_per_step = 8;
    options.scheduler.policy = policy;
    CampaignManager manager(options);
    return SubmitFleet(manager, specs);
  };
}

// A crowd of latency-jittered tagger threads completes tasks out of
// assignment order, behind a small queue (backpressure), and an odd
// quantum shears step boundaries.
auto ThreadedCrowd(SchedulerPolicy policy) {
  return [=](const std::vector<Spec>& specs, const fs::path&) {
    sim::LoadGeneratorOptions load_options;
    load_options.num_taggers = 6;
    load_options.mean_latency_us = 30.0;
    load_options.tagger_speed_sigma = 1.0;
    load_options.seed = 4242;
    load_options.queue_capacity = 64;
    sim::CrowdLoadGenerator crowd(load_options);
    ManagerOptions options;
    options.num_threads = 4;
    options.tasks_per_step = 17;
    options.scheduler.policy = policy;
    options.completions = &crowd;
    CampaignManager manager(options);
    Reports reports = SubmitFleet(manager, specs);
    crowd.Stop();
    manager.Shutdown();
    return reports;
  };
}

// Submit over /v1, then a tagger pulls each campaign's assignments and
// POSTs every batch twice; the second POST must deliver nothing.
Reports HttpRepost(const std::vector<Spec>& specs, const fs::path&) {
  auto stack = testing::StartStack(
      [](const api::SubmitCampaignRequest& request) {
        return testing::BuildConfig(TableDataset(), testing::SpecOf(request));
      },
      "");
  std::map<std::string, CampaignId> ids;
  for (const Spec& spec : specs) {
    const uint64_t id = testing::SubmitOverHttp(&stack->client, spec);
    EXPECT_NE(id, 0u) << spec.name;
    if (id != 0) ids[spec.name] = id;
  }
  for (const auto& [name, id] : ids) {
    testing::DriveOverHttp(&stack->client, id, /*stop_after=*/0, nullptr,
                           /*repost=*/true);
  }
  Reports reports = WaitForFleet(*stack->manager, ids);
  stack->Kill();
  return reports;
}

// A journaled threaded fleet wedges each campaign at its own cutoff and is
// torn down mid-run; a fresh threaded manager recovers and finishes it.
// The fleet mixes two omegas over one store, so the manager holds two
// trajectory tables while it runs.
Reports KilledAtCutoffsThenRecovered(const std::vector<Spec>& specs,
                                     const fs::path& dir) {
  {
    testing::CutoffCompletionSource source;
    ManagerOptions options;
    options.num_threads = 4;
    options.tasks_per_step = 8;
    options.completions = &source;
    options.journal_dir = dir.string();
    CampaignManager manager(options);
    std::vector<CampaignId> ids;
    for (const Spec& spec : specs) {
      auto id = manager.Submit(testing::MakeConfig(TableDataset(), spec));
      EXPECT_TRUE(id.ok()) << spec.name << ": " << id.status().ToString();
      if (id.ok()) ids.push_back(id.value());
    }
    const auto deadline =
        std::chrono::steady_clock::now() + milliseconds(30000);
    for (CampaignId id : ids) {
      const auto cutoff =
          static_cast<int64_t>(testing::CutoffCompletionSource::Cutoff(id));
      for (;;) {
        const CampaignStatus status = manager.Status(id).value();
        EXPECT_EQ(status.state, CampaignState::kRunning) << status.name;
        if (status.tasks_completed == cutoff ||
            std::chrono::steady_clock::now() > deadline) {
          EXPECT_EQ(status.tasks_completed, cutoff) << status.name;
          break;
        }
        std::this_thread::sleep_for(milliseconds(1));
      }
    }
    EXPECT_EQ(manager.num_initial_states(), 2u);  // one per omega
    manager.Shutdown();
  }
  ManagerOptions options;
  options.num_threads = 4;
  options.tasks_per_step = 8;
  CampaignManager recovered(options);
  auto ids = recovered.Recover(
      dir.string(), [](const persist::SubmitRecord& record) {
        return testing::BuildConfig(TableDataset(), testing::SpecOf(record));
      });
  EXPECT_TRUE(ids.ok()) << ids.status().ToString();
  if (!ids.ok()) return {};
  std::map<std::string, CampaignId> by_name;
  for (CampaignId id : ids.value()) {
    const CampaignStatus status = recovered.Status(id).value();
    EXPECT_GT(status.records_replayed, 0) << status.name;
    EXPECT_TRUE(by_name.emplace(status.name, id).second) << status.name;
  }
  return WaitForFleet(recovered, by_name);
}

struct Row {
  std::string name;
  std::function<Reports(const std::vector<Spec>&, const fs::path&)> run;
};

void PrintTo(const Row& row, std::ostream* out) { *out << row.name; }

class CrossPathTest : public testing::CampaignTest<kResources, kCorpusSeed>,
                      public ::testing::WithParamInterface<Row> {};

TEST_P(CrossPathTest, EverySpecMatchesTheEngine) {
  static const Reports want = [] {
    Reports reports;
    for (const Spec& spec : testing::CrossPathSpecs()) {
      reports[spec.name] = Uninterrupted(spec);
    }
    return reports;
  }();
  const Reports got = GetParam().run(testing::CrossPathSpecs(), dir_);
  EXPECT_EQ(got.size(), want.size());
  for (const auto& [name, report] : want) {
    auto it = got.find(name);
    if (it == got.end()) {
      ADD_FAILURE() << name << ": no report";
      continue;
    }
    EXPECT_TRUE(testing::SameReport(report, it->second)) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rows, CrossPathTest,
    ::testing::Values(
        Row{"engine", Engine},
        Row{"deterministic_rr_quantum_1",
            Deterministic(SchedulerPolicy::kRoundRobin, 1)},
        Row{"deterministic_priority_quantum_7",
            Deterministic(SchedulerPolicy::kPriority, 7)},
        Row{"deterministic_edf_quantum_256",
            Deterministic(SchedulerPolicy::kDeadline, 256)},
        Row{"threaded_rr_inline", ThreadedInline(SchedulerPolicy::kRoundRobin)},
        Row{"threaded_priority_inline",
            ThreadedInline(SchedulerPolicy::kPriority)},
        Row{"threaded_edf_inline", ThreadedInline(SchedulerPolicy::kDeadline)},
        Row{"threaded_rr_crowd", ThreadedCrowd(SchedulerPolicy::kRoundRobin)},
        Row{"threaded_priority_crowd",
            ThreadedCrowd(SchedulerPolicy::kPriority)},
        Row{"threaded_edf_crowd", ThreadedCrowd(SchedulerPolicy::kDeadline)},
        Row{"http_repost", HttpRepost},
        Row{"killed_at_cutoffs_then_recovered", KilledAtCutoffsThenRecovered}),
    [](const ::testing::TestParamInfo<Row>& info) { return info.param.name; });

}  // namespace
}  // namespace service
}  // namespace incentag

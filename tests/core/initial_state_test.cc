// The shared trajectory table (initial_state.h) and the runtime's view of
// it: every row must equal a fresh replay of its post prefix, a campaign
// over a shared InitialState must report exactly what one over a private
// build reports, runtimes sharing one state must not see each other's
// posts, and the shared state must come out of every run untouched. A
// restore into an unbuilt table seeds each trajectory at its allocation
// and must agree with the January build, which later rejects a seed its
// posts do not reach. Also pins the runtime's omega bounds, its restore
// checks and its behaviour once Finish has freed the per-resource state.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/campaign_runtime.h"
#include "src/core/cost_model.h"
#include "src/core/dp_planner.h"
#include "src/core/initial_state.h"
#include "src/core/rfd.h"
#include "src/core/strategy_fc.h"
#include "src/core/strategy_fp.h"
#include "src/core/strategy_fpmu.h"
#include "src/core/strategy_mu.h"
#include "src/core/strategy_rr.h"
#include "src/util/random.h"
#include "tests/testing/report_bytes.h"
#include "tests/testing/test_util.h"

namespace incentag {
namespace core {
namespace {

struct Fixture {
  PostStore initial;
  PostStore future;
  std::vector<ResourceReference> references;
};

Fixture MakeFixture(size_t n, uint64_t seed) {
  util::Rng rng(seed);
  Fixture f;
  PostStore::Builder initial;
  PostStore::Builder future;
  for (size_t i = 0; i < n; ++i) {
    const std::vector<Post> year = incentag::testing::ConvergingSequence(
        &rng, 40 + static_cast<int>(i % 7) * 5, /*universe=*/20);
    const size_t cut = 4 + i % 5;
    for (size_t k = 0; k < year.size(); ++k) {
      (k < cut ? initial : future).AddPost(year[k]);
    }
    initial.EndResource();
    future.EndResource();
    TagCounts full;
    for (const Post& post : year) full.AddPost(post);
    f.references.push_back(ResourceReference{
        full.Snapshot(), 10 + static_cast<int64_t>(i % 9)});
  }
  f.initial = std::move(initial).Build();
  f.future = std::move(future).Build();
  return f;
}

EngineOptions MakeOptions(int64_t budget, int64_t batch_size, int omega = 5,
                          const CostModel* costs = nullptr) {
  EngineOptions options;
  options.budget = budget;
  options.omega = omega;
  options.batch_size = batch_size;
  options.checkpoints = {0, budget / 4, budget / 2, budget};
  options.costs = costs;
  return options;
}

// One campaign under test: its options and a factory for a fresh
// strategy (each run needs its own).
struct Case {
  std::string label;
  EngineOptions options;
  std::function<std::unique_ptr<Strategy>()> make;
};

// A runtime with its own strategy and stream, stepped one batch at a time.
struct Campaign {
  Campaign(const Fixture& f, const Case& c)
      : strategy(c.make()),
        stream(&f.future),
        runtime(c.options, &f.initial, &f.references) {}

  // Draws one batch and applies it; false once the run is over.
  bool Step() {
    if (runtime.done()) return false;
    std::vector<ResourceId> batch;
    EXPECT_TRUE(runtime.DrawBatch(&batch).ok());
    runtime.ApplyCompletionBatch(batch.data(), batch.size());
    return !batch.empty();
  }

  std::unique_ptr<Strategy> strategy;
  VectorPostStream stream;
  CampaignRuntime runtime;
};

RunReport RunSolo(const Fixture& f, const Case& c,
                  std::shared_ptr<const InitialState> initial) {
  Campaign campaign(f, c);
  EXPECT_TRUE(campaign.runtime
                  .Begin(campaign.strategy.get(), &campaign.stream,
                         std::move(initial))
                  .ok())
      << c.label;
  while (campaign.Step()) {
  }
  return campaign.runtime.Finish();
}

// Every shared state's wire bytes, to prove no run wrote through.
std::vector<std::string> SharedBytes(const InitialState& initial) {
  std::vector<std::string> out(initial.num_resources());
  for (size_t i = 0; i < out.size(); ++i) {
    for (int64_t j = 0; j <= initial.future_length(i); ++j) {
      initial.SerializeAt(i, j, &out[i], &out[i]);
    }
  }
  return out;
}

// Resource i's allocation in a SerializeResumableState blob: after the
// version, the resource count, the budget counters, the stopped flag and
// the checkpoint cursor.
int64_t AllocationIn(const std::string& blob, size_t i) {
  int64_t x = 0;
  std::memcpy(&x, blob.data() + 4 + 8 + 8 + 8 + 1 + 8 + 8 * i, 8);
  return x;
}

void ExpectRowsEqual(const InitialState& want, const InitialState& got,
                     size_t i, int64_t j) {
  EXPECT_EQ(std::bit_cast<uint64_t>(want.row(i, j).ma_score),
            std::bit_cast<uint64_t>(got.row(i, j).ma_score))
      << i << " " << j;
  EXPECT_EQ(std::bit_cast<uint64_t>(want.row(i, j).quality),
            std::bit_cast<uint64_t>(got.row(i, j).quality))
      << i << " " << j;
}

class InitialStateTest : public ::testing::Test {
 protected:
  InitialStateTest()
      : fixture_(MakeFixture(24, 20261017)), costs_(MakeCosts()) {
    std::vector<int64_t> plan(fixture_.initial.size(), 0);
    int64_t plan_budget = 0;
    for (size_t i = 0; i < plan.size(); ++i) {
      plan[i] = static_cast<int64_t>(i % 5);
      plan_budget += plan[i];
    }
    const size_t n = fixture_.initial.size();
    cases_ = {
        {"RR", MakeOptions(200, 1),
         [] { return std::make_unique<RoundRobinStrategy>(); }},
        {"FP", MakeOptions(200, 8),
         [] { return std::make_unique<FewestPostsStrategy>(); }},
        {"MU", MakeOptions(200, 1),
         [] { return std::make_unique<MostUnstableStrategy>(); }},
        {"FP-MU", MakeOptions(300, 8),
         [] { return std::make_unique<HybridFpMuStrategy>(); }},
        {"FC", MakeOptions(200, 4),
         [n] {
           auto rng = std::make_shared<util::Rng>(4242);
           return std::make_unique<FreeChoiceStrategy>([rng, n] {
             return static_cast<ResourceId>(rng->NextBounded(n));
           });
         }},
        {"FP-$", MakeOptions(200, 8, 5, &costs_),
         [this] { return std::make_unique<FewestPostsStrategy>(&costs_); }},
        {"DP plan", MakeOptions(plan_budget, 4),
         [plan] { return std::make_unique<PlanStrategy>(plan); }},
    };
  }

  CostModel MakeCosts() const {
    std::vector<int64_t> costs;
    for (size_t i = 0; i < fixture_.initial.size(); ++i) {
      costs.push_back(1 + static_cast<int64_t>(i % 4));
    }
    return CostModel(std::move(costs));
  }

  // A table built from January, as a campaign's Begin leaves it.
  std::shared_ptr<const InitialState> Shared(int omega = 5) const {
    std::shared_ptr<const InitialState> table = Unbuilt(omega);
    EXPECT_TRUE(table->BuildFromJanuary().ok());
    return table;
  }

  // A table nothing has built yet, as a recovering manager first sees it.
  std::shared_ptr<const InitialState> Unbuilt(int omega = 5) const {
    return std::make_shared<const InitialState>(
        &fixture_.initial, &fixture_.future, &fixture_.references, omega);
  }

  Fixture fixture_;
  CostModel costs_;
  std::vector<Case> cases_;
};

TEST_F(InitialStateTest, SharedRunMatchesPrivateBuildForEveryStrategy) {
  std::shared_ptr<const InitialState> shared = Shared();
  for (const Case& c : cases_) {
    EXPECT_TRUE(testing::SameReport(RunSolo(fixture_, c, nullptr),
                                    RunSolo(fixture_, c, shared))) << c.label;
  }
}

TEST_F(InitialStateTest, AlternatingRuntimesMatchSoloRunsAndLeaveItIntact) {
  std::shared_ptr<const InitialState> shared = Shared();
  const std::vector<std::string> before = SharedBytes(*shared);
  for (size_t k = 0; k < cases_.size(); ++k) {
    const Case& a = cases_[k];
    const Case& b = cases_[(k + 1) % cases_.size()];
    const std::string label = a.label + " beside " + b.label;
    Campaign ca(fixture_, a);
    Campaign cb(fixture_, b);
    ASSERT_TRUE(
        ca.runtime.Begin(ca.strategy.get(), &ca.stream, shared).ok());
    ASSERT_TRUE(
        cb.runtime.Begin(cb.strategy.get(), &cb.stream, shared).ok());
    bool a_live = true;
    bool b_live = true;
    while (a_live || b_live) {
      if (a_live) a_live = ca.Step();
      if (b_live) b_live = cb.Step();
    }
    EXPECT_TRUE(testing::SameReport(RunSolo(fixture_, a, nullptr),
                                    ca.runtime.Finish())) << label;
    EXPECT_TRUE(testing::SameReport(RunSolo(fixture_, b, nullptr),
                                    cb.runtime.Finish()))
        << b.label + " beside " + a.label;
  }
  EXPECT_EQ(before, SharedBytes(*shared));
  EXPECT_EQ(shared.use_count(), 1);  // Finish dropped every borrow
}

TEST_F(InitialStateTest, UnderTaggedThresholdIsRecountedPerCampaign) {
  std::shared_ptr<const InitialState> shared = Shared();
  for (int64_t threshold : {int64_t{0}, int64_t{5}, int64_t{6}, int64_t{10}}) {
    Case c = cases_[1];  // FP
    c.options.under_tagged_threshold = threshold;
    const std::string label = "threshold " + std::to_string(threshold);
    Campaign own(fixture_, c);
    Campaign borrowing(fixture_, c);
    ASSERT_TRUE(own.runtime.Begin(own.strategy.get(), &own.stream).ok());
    ASSERT_TRUE(borrowing.runtime
                    .Begin(borrowing.strategy.get(), &borrowing.stream,
                           shared)
                    .ok());
    EXPECT_TRUE(testing::SameMetrics(own.runtime.Metrics(),
                                     borrowing.runtime.Metrics()))
        << label + " t=0";
    // Both sides above share the evaluation code; count independently.
    int64_t under_tagged = 0;
    int64_t over_tagged = 0;
    for (size_t i = 0; i < fixture_.initial.size(); ++i) {
      const int64_t posts = static_cast<int64_t>(fixture_.initial[i].size());
      if (posts <= threshold) ++under_tagged;
      if (posts >= fixture_.references[i].stable_point) ++over_tagged;
    }
    EXPECT_EQ(borrowing.runtime.Metrics().under_tagged, under_tagged) << label;
    EXPECT_EQ(borrowing.runtime.Metrics().over_tagged, over_tagged) << label;
    const RunReport own_report = own.runtime.Finish();
    const RunReport borrowed_report = borrowing.runtime.Finish();
    ASSERT_FALSE(borrowed_report.checkpoints.empty());
    EXPECT_EQ(borrowed_report.checkpoints.front().budget_used, 0);
    EXPECT_TRUE(testing::SameReport(own_report, borrowed_report)) << label;
  }
}

TEST_F(InitialStateTest, BeginRejectsAStateBuiltForOtherInputs) {
  const Fixture other = MakeFixture(24, 7);
  const std::vector<std::shared_ptr<const InitialState>> wrong = {
      Shared(/*omega=*/3),
      std::make_shared<const InitialState>(
          &other.initial, &fixture_.future, &fixture_.references, 5),
      std::make_shared<const InitialState>(
          &fixture_.initial, &other.future, &fixture_.references, 5),
      std::make_shared<const InitialState>(
          &fixture_.initial, &fixture_.future, &other.references, 5),
  };
  for (const auto& initial : wrong) {
    Campaign begun(fixture_, cases_[0]);
    EXPECT_EQ(begun.runtime
                  .Begin(begun.strategy.get(), &begun.stream, initial)
                  .code(),
              util::StatusCode::kInvalidArgument);
    Campaign restored(fixture_, cases_[0]);
    EXPECT_EQ(restored.runtime
                  .RestoreResumableState("", restored.strategy.get(),
                                         &restored.stream, initial)
                  .code(),
              util::StatusCode::kInvalidArgument);
  }
}

TEST_F(InitialStateTest, RestoreMatchesTheLiveRunAndRejectsADrift) {
  // A plan that never gives resource 0 a post keeps it at its January
  // row; the snapshot still carries its bytes.
  std::vector<int64_t> plan(fixture_.initial.size(), 1);
  plan[0] = 0;
  const Case c{"DP plan", MakeOptions(10, 4),
               [plan] { return std::make_unique<PlanStrategy>(plan); }};
  std::shared_ptr<const InitialState> shared = Shared();
  Campaign live(fixture_, c);
  ASSERT_TRUE(live.runtime.Begin(live.strategy.get(), &live.stream, shared)
                  .ok());
  ASSERT_TRUE(live.Step());
  std::string blob;
  ASSERT_TRUE(live.runtime.SerializeResumableState(&blob).ok());

  Campaign restored(fixture_, c);
  ASSERT_TRUE(restored.runtime
                  .RestoreResumableState(blob, restored.strategy.get(),
                                         &restored.stream, shared)
                  .ok());
  while (live.Step()) {
  }
  while (restored.Step()) {
  }
  EXPECT_TRUE(testing::SameReport(live.runtime.Finish(),
                                  restored.runtime.Finish())) << "restored";

  // Resource 0's state opens with its post count, right after the
  // header, the allocation, the exhausted flags and the checkpoints.
  const size_t n = fixture_.initial.size();
  const size_t checkpoints_at = 4 + 8 + 8 + 8 + 1 + 8 + 8 * n + n;
  const uint32_t num_checkpoints =
      static_cast<uint8_t>(blob[checkpoints_at]);  // < 256 here
  const size_t state0_at = checkpoints_at + 4 + 40 * num_checkpoints;
  ASSERT_EQ(static_cast<uint8_t>(blob[state0_at]),
            fixture_.initial[0].size());
  std::string drifted = blob;
  ++drifted[state0_at];  // one more post than January gave it
  Campaign rejected(fixture_, c);
  EXPECT_EQ(rejected.runtime
                .RestoreResumableState(drifted, rejected.strategy.get(),
                                       &rejected.stream, shared)
                .code(),
            util::StatusCode::kCorruption);
}

TEST_F(InitialStateTest, EveryRowMatchesAFreshReplay) {
  for (int omega : {2, 5}) {
    const std::shared_ptr<const InitialState> table = Shared(omega);
    const size_t n = fixture_.initial.size();
    ASSERT_EQ(table->num_resources(), n);
    for (size_t i = 0; i < n; ++i) {
      const PostSequence future = fixture_.future[i];
      ASSERT_EQ(table->initial_posts(i),
                static_cast<int64_t>(fixture_.initial[i].size()));
      ASSERT_EQ(table->future_length(i), static_cast<int64_t>(future.size()));
      for (int64_t j = 0; j <= table->future_length(i); ++j) {
        const std::string label = "omega " + std::to_string(omega) +
                                  " resource " + std::to_string(i) +
                                  " row " + std::to_string(j);
        ResourceState state(omega);
        QualityTracker tracker(&fixture_.references[i].stable_rfd);
        for (PostSequence part : {fixture_.initial[i],
                                  future.Slice(0, static_cast<size_t>(j))}) {
          for (PostView post : part) {
            state.AddPost(post);
            tracker.AddPost(post, state.counts().norm_squared());
          }
        }
        const InitialState::Row& row = table->row(i, j);
        EXPECT_EQ(std::bit_cast<uint64_t>(row.quality),
                  std::bit_cast<uint64_t>(tracker.Quality()))
            << label;
        EXPECT_EQ(state.has_ma_score(), state.posts() >= omega) << label;
        const ResourceView view(state.posts(), row.ma_score);
        ASSERT_EQ(view.has_ma_score(), state.has_ma_score()) << label;
        if (state.has_ma_score()) {
          EXPECT_EQ(std::bit_cast<uint64_t>(row.ma_score),
                    std::bit_cast<uint64_t>(state.ma_score()))
              << label;
        }
        std::string want_state;
        std::string want_tracker;
        state.Serialize(&want_state);
        tracker.Serialize(&want_tracker);
        std::string got_state;
        std::string got_tracker;
        table->SerializeAt(i, j, &got_state, &got_tracker);
        EXPECT_EQ(got_state, want_state) << label;
        EXPECT_EQ(got_tracker, want_tracker) << label;
      }
    }
  }
}

TEST_F(InitialStateTest, RestoreChecksEveryResourceAgainstTheTrajectory) {
  const Case& c = cases_[1];  // FP, batch 8
  std::shared_ptr<const InitialState> shared = Shared();
  Campaign live(fixture_, c);
  ASSERT_TRUE(live.runtime.Begin(live.strategy.get(), &live.stream, shared)
                  .ok());
  for (int step = 0; step < 5; ++step) ASSERT_TRUE(live.Step());
  std::string blob;
  ASSERT_TRUE(live.runtime.SerializeResumableState(&blob).ok());
  std::string strategy_state;
  live.strategy->SerializeState(&strategy_state);

  // Layout: header, allocation, exhausted flags, checkpoints, states, the
  // evaluation, then one cursor per resource and the strategy's string.
  const size_t n = fixture_.initial.size();
  const size_t allocation_at = 4 + 8 + 8 + 8 + 1 + 8;
  auto allocation_of = [&](size_t i) {
    int64_t x = 0;
    std::memcpy(&x, blob.data() + allocation_at + 8 * i, 8);
    return x;
  };
  const size_t checkpoints_at = allocation_at + 8 * n + n;
  const uint32_t num_checkpoints =
      static_cast<uint8_t>(blob[checkpoints_at]);  // < 256 here
  size_t state_at = checkpoints_at + 4 + 40 * num_checkpoints;
  size_t touched = n;
  size_t untouched = n;
  size_t touched_at = 0;
  for (size_t i = 0; i < n; ++i) {
    std::string state;
    std::string tracker;
    shared->SerializeAt(i, allocation_of(i), &state, &tracker);
    ASSERT_EQ(blob.compare(state_at, state.size(), state), 0) << i;
    if (allocation_of(i) > 0 && touched == n) {
      touched = i;
      touched_at = state_at;
    }
    if (allocation_of(i) == 0) untouched = i;
    state_at += state.size();
  }
  ASSERT_LT(touched, n);
  ASSERT_LT(untouched, n);
  const size_t cursors_at = blob.size() - 4 - strategy_state.size() - 8 * n;

  auto restore_code = [&](const std::string& damaged,
                          std::shared_ptr<const InitialState> table) {
    Campaign restored(fixture_, c);
    return restored.runtime
        .RestoreResumableState(damaged, restored.strategy.get(),
                               &restored.stream, std::move(table))
        .code();
  };
  ASSERT_EQ(restore_code(blob, shared), util::StatusCode::kOk);

  // A touched resource's state differs from its row, or, where nothing
  // is built to compare with, does not add up.
  std::string flipped = blob;
  ++flipped[touched_at + 8 * 3 + 4 + 4];  // its first tag's count
  EXPECT_EQ(restore_code(flipped, shared), util::StatusCode::kCorruption);
  EXPECT_EQ(restore_code(flipped, Unbuilt()), util::StatusCode::kCorruption);

  // A cursor that is not the allocation.
  std::string cursor = blob;
  ++cursor[cursors_at + 8 * untouched];
  EXPECT_EQ(restore_code(cursor, shared), util::StatusCode::kCorruption);

  // An allocation past the resource's future posts.
  std::string past = blob;
  const int64_t too_many = shared->future_length(touched) + 1;
  std::memcpy(past.data() + allocation_at + 8 * touched, &too_many, 8);
  EXPECT_EQ(restore_code(past, shared), util::StatusCode::kCorruption);
  const int64_t negative = -1;
  std::memcpy(past.data() + allocation_at + 8 * touched, &negative, 8);
  EXPECT_EQ(restore_code(past, shared), util::StatusCode::kCorruption);
}

TEST_F(InitialStateTest, RestoreIntoAnUnbuiltTableReplaysOnlyTheRest) {
  const Case& c = cases_[1];  // FP, batch 8
  Campaign live(fixture_, c);
  ASSERT_TRUE(live.runtime.Begin(live.strategy.get(), &live.stream).ok());
  for (int step = 0; step < 5; ++step) ASSERT_TRUE(live.Step());
  std::string blob;
  ASSERT_TRUE(live.runtime.SerializeResumableState(&blob).ok());

  std::shared_ptr<const InitialState> seeded = Unbuilt();
  Campaign restored(fixture_, c);
  ASSERT_TRUE(restored.runtime
                  .RestoreResumableState(blob, restored.strategy.get(),
                                         &restored.stream, seeded)
                  .ok());
  // Each resource is built from its allocation on, from the snapshot's
  // state, and agrees with the January build there.
  const std::shared_ptr<const InitialState> built = Shared();
  size_t seeded_past_january = 0;
  for (size_t i = 0; i < fixture_.initial.size(); ++i) {
    const int64_t a = AllocationIn(blob, i);
    ASSERT_TRUE(seeded->Covers(i, a)) << i;
    if (a > 0) {
      EXPECT_FALSE(seeded->Covers(i, a - 1)) << i;
      ++seeded_past_january;
    }
    for (int64_t j = a; j <= seeded->future_length(i); ++j) {
      ExpectRowsEqual(*built, *seeded, i, j);
      std::string want;
      std::string got;
      built->SerializeAt(i, j, &want, &want);
      seeded->SerializeAt(i, j, &got, &got);
      EXPECT_EQ(want, got) << i << " " << j;
    }
  }
  EXPECT_GT(seeded_past_january, 0u);
  while (live.Step()) {
  }
  while (restored.Step()) {
  }
  EXPECT_TRUE(testing::SameReport(live.runtime.Finish(),
                                  restored.runtime.Finish())) << "restored";

  // A campaign that begins later has every prefix replayed from January.
  EXPECT_TRUE(testing::SameReport(RunSolo(fixture_, c, nullptr),
                                  RunSolo(fixture_, c, seeded)))
      << "begun after a restore";
  EXPECT_EQ(SharedBytes(*built), SharedBytes(*seeded));
  for (size_t i = 0; i < fixture_.initial.size(); ++i) {
    for (int64_t j = 0; j <= seeded->future_length(i); ++j) {
      ExpectRowsEqual(*built, *seeded, i, j);
    }
  }
}

TEST_F(InitialStateTest, RestoreBelowASeedReplaysThePrefixFirst) {
  const Case& c = cases_[1];  // FP, batch 8
  Campaign live(fixture_, c);
  ASSERT_TRUE(live.runtime.Begin(live.strategy.get(), &live.stream).ok());
  for (int step = 0; step < 2; ++step) ASSERT_TRUE(live.Step());
  std::string early;
  ASSERT_TRUE(live.runtime.SerializeResumableState(&early).ok());
  for (int step = 0; step < 4; ++step) ASSERT_TRUE(live.Step());
  std::string late;
  ASSERT_TRUE(live.runtime.SerializeResumableState(&late).ok());

  std::shared_ptr<const InitialState> table = Unbuilt();
  Campaign from_late(fixture_, c);
  ASSERT_TRUE(from_late.runtime
                  .RestoreResumableState(late, from_late.strategy.get(),
                                         &from_late.stream, table)
                  .ok());
  Campaign from_early(fixture_, c);
  ASSERT_TRUE(from_early.runtime
                  .RestoreResumableState(early, from_early.strategy.get(),
                                         &from_early.stream, table)
                  .ok());
  size_t filled = 0;
  for (size_t i = 0; i < fixture_.initial.size(); ++i) {
    if (AllocationIn(early, i) < AllocationIn(late, i)) {
      EXPECT_TRUE(table->Covers(i, 0)) << i;
      ++filled;
    }
  }
  EXPECT_GT(filled, 0u);
  while (live.Step()) {
  }
  while (from_late.Step()) {
  }
  while (from_early.Step()) {
  }
  const RunReport want = live.runtime.Finish();
  EXPECT_TRUE(testing::SameReport(want, from_late.runtime.Finish()))
      << "from the late one";
  EXPECT_TRUE(testing::SameReport(want, from_early.runtime.Finish()))
      << "from the early one";
}

TEST_F(InitialStateTest, ConcurrentRestoresAndBeginsShareOneTable) {
  // Threads restore snapshots from several points of one run into one
  // unbuilt table, or begin afresh on it, and step and snapshot while
  // the others seed and fill trajectories (run under TSan in CI).
  const Case& c = cases_[1];  // FP, batch 8
  Campaign live(fixture_, c);
  ASSERT_TRUE(live.runtime.Begin(live.strategy.get(), &live.stream).ok());
  std::vector<std::string> blobs;
  for (int step = 0; step < 4; ++step) {
    ASSERT_TRUE(live.Step());
    ASSERT_TRUE(live.runtime.SerializeResumableState(&blobs.emplace_back())
                    .ok());
  }
  std::reverse(blobs.begin(), blobs.end());  // latest seeds first
  while (live.Step()) {
  }
  const RunReport want = live.runtime.Finish();
  const RunReport want_begun = RunSolo(fixture_, c, nullptr);

  std::shared_ptr<const InitialState> table = Unbuilt();
  std::vector<RunReport> got(blobs.size() + 1);
  std::vector<std::thread> threads;
  for (size_t k = 0; k <= blobs.size(); ++k) {
    threads.emplace_back([&, k] {
      Campaign campaign(fixture_, c);
      util::Status started =
          k < blobs.size()
              ? campaign.runtime.RestoreResumableState(
                    blobs[k], campaign.strategy.get(), &campaign.stream,
                    table)
              : campaign.runtime.Begin(campaign.strategy.get(),
                                       &campaign.stream, table);
      ASSERT_TRUE(started.ok()) << k << ": " << started.ToString();
      std::string blob;
      while (campaign.Step()) {
        blob.clear();
        ASSERT_TRUE(campaign.runtime.SerializeResumableState(&blob).ok());
      }
      got[k] = campaign.runtime.Finish();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t k = 0; k < blobs.size(); ++k) {
    EXPECT_TRUE(testing::SameReport(want, got[k])) << "restored " << k;
  }
  EXPECT_TRUE(testing::SameReport(want_begun, got.back())) << "begun";
  EXPECT_EQ(SharedBytes(*Shared()), SharedBytes(*table));
}

TEST_F(InitialStateTest, BuildFromJanuaryRejectsASeedItsPostsDoNotReach) {
  const Case& c = cases_[1];  // FP, batch 8
  Campaign live(fixture_, c);
  ASSERT_TRUE(live.runtime.Begin(live.strategy.get(), &live.stream).ok());
  for (int step = 0; step < 5; ++step) ASSERT_TRUE(live.Step());
  std::string blob;
  ASSERT_TRUE(live.runtime.SerializeResumableState(&blob).ok());

  // Another store whose first post of a touched resource differs: the
  // snapshot's state is consistent, so it seeds, but January's replay
  // through this store does not reach it.
  Fixture other = fixture_;
  size_t touched = 0;
  while (AllocationIn(blob, touched) == 0) ++touched;
  PostStore::Builder future;
  for (size_t i = 0; i < other.future.size(); ++i) {
    const PostSequence posts = other.future[i];
    if (i == touched) {
      future.AddPost(Post::FromTags({1000}));
      future.AddPosts(posts.Slice(1, posts.size()));
    } else {
      future.AddPosts(posts);
    }
    future.EndResource();
  }
  other.future = std::move(future).Build();
  auto table = std::make_shared<const InitialState>(
      &other.initial, &other.future, &other.references, 5);
  Campaign restored(other, c);
  ASSERT_TRUE(restored.runtime
                  .RestoreResumableState(blob, restored.strategy.get(),
                                         &restored.stream, table)
                  .ok());
  EXPECT_EQ(table->BuildFromJanuary().code(), util::StatusCode::kCorruption);
  Campaign begun(other, c);
  EXPECT_EQ(
      begun.runtime.Begin(begun.strategy.get(), &begun.stream, table).code(),
      util::StatusCode::kCorruption);
}

// A campaign's allocation is its only cursor: the snapshot's cursor
// array is the allocation itself, and a restore holds the two equal.
TEST_F(InitialStateTest, TheAllocationIsTheOnlyCursor) {
  const size_t n = fixture_.initial.size();
  for (const Case& c : cases_) {
    Campaign live(fixture_, c);
    ASSERT_TRUE(live.runtime.Begin(live.strategy.get(), &live.stream).ok());
    for (int step = 0; step < 4; ++step) ASSERT_TRUE(live.Step()) << c.label;
    std::string blob;
    ASSERT_TRUE(live.runtime.SerializeResumableState(&blob).ok());
    std::string strategy_state;
    live.strategy->SerializeState(&strategy_state);
    while (live.Step()) {
    }
    const RunReport report = live.runtime.Finish();

    // The blob's cursor array (before the strategy's string) repeats its
    // allocation.
    const size_t cursors_at =
        blob.size() - 4 - strategy_state.size() - 8 * n;
    size_t touched = n;
    for (size_t i = 0; i < n; ++i) {
      int64_t cursor = 0;
      std::memcpy(&cursor, blob.data() + cursors_at + 8 * i, 8);
      EXPECT_EQ(cursor, AllocationIn(blob, i)) << c.label << " " << i;
      if (AllocationIn(blob, i) > 0 && touched == n) touched = i;
    }
    ASSERT_LT(touched, n) << c.label;
    // A cursor zeroed where the allocation has moved is Corruption.
    std::string unmoved = blob;
    std::memset(unmoved.data() + cursors_at + 8 * touched, 0, 8);
    Campaign rejected(fixture_, c);
    EXPECT_EQ(rejected.runtime
                  .RestoreResumableState(unmoved, rejected.strategy.get(),
                                         &rejected.stream)
                  .code(),
              util::StatusCode::kCorruption)
        << c.label;

    Campaign restored(fixture_, c);
    ASSERT_TRUE(restored.runtime
                    .RestoreResumableState(blob, restored.strategy.get(),
                                           &restored.stream)
                    .ok());
    while (restored.Step()) {
    }
    EXPECT_EQ(restored.runtime.Finish().allocation, report.allocation)
        << c.label;
  }
}

TEST_F(InitialStateTest, OmegaOutsideItsRangeIsRejected) {
  for (int omega : {-1, 0, 1, kMaxOmega + 1}) {
    Case c = cases_[0];
    c.options.omega = omega;
    Campaign begun(fixture_, c);
    EXPECT_EQ(begun.runtime.Begin(begun.strategy.get(), &begun.stream)
                  .code(),
              util::StatusCode::kInvalidArgument)
        << omega;
    Campaign restored(fixture_, c);
    EXPECT_EQ(restored.runtime
                  .RestoreResumableState("", restored.strategy.get(),
                                         &restored.stream)
                  .code(),
              util::StatusCode::kInvalidArgument)
        << omega;
  }
  for (int omega : {2, kMaxOmega}) {
    Case c = cases_[0];
    c.options.omega = omega;
    EXPECT_EQ(RunSolo(fixture_, c, nullptr).budget_spent, c.options.budget)
        << omega;
  }
}

TEST_F(InitialStateTest, SpentRuntimeFailsLoudly) {
  Campaign campaign(fixture_, cases_[0]);
  ASSERT_TRUE(
      campaign.runtime.Begin(campaign.strategy.get(), &campaign.stream).ok());
  ASSERT_TRUE(campaign.Step());
  campaign.runtime.Finish();

  std::string blob;
  EXPECT_EQ(campaign.runtime.SerializeResumableState(&blob).code(),
            util::StatusCode::kFailedPrecondition);
  CampaignRuntime& spent = campaign.runtime;
  std::vector<ResourceId> batch;
  EXPECT_DEATH(spent.Metrics(), "CHECK failed");
  EXPECT_DEATH(spent.ApplyCompletion(0), "CHECK failed");
  EXPECT_DEATH((void)spent.DrawBatch(&batch), "CHECK failed");
  EXPECT_DEATH(spent.Finish(), "CHECK failed");
}

}  // namespace
}  // namespace core
}  // namespace incentag

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/resource_state.h"
#include "src/core/strategy.h"
#include "src/core/strategy_fc.h"
#include "src/core/strategy_fp.h"
#include "src/core/strategy_fpmu.h"
#include "src/core/strategy_mu.h"
#include "src/core/strategy_rr.h"
#include "src/core/types.h"
#include "src/util/status.h"
#include "src/util/wire.h"

namespace incentag {
namespace core {
namespace {

// Drives a strategy directly against hand-built states (no engine), which
// keeps the Algorithm 2-5 behaviours visible and exactly checkable. The
// strategy reads them through ResourceStateViews.
class StrategyHarness {
 public:
  explicit StrategyHarness(int omega) : omega_(omega), views_(&states_) {
    ctx_.omega = omega;
    ctx_.views = &views_;
  }

  StrategyHarness(const StrategyHarness&) = delete;
  StrategyHarness& operator=(const StrategyHarness&) = delete;

  // Adds a resource that has already received `posts` copies of a
  // one-tag post {tag}.
  void AddResource(int64_t posts, TagId tag) {
    ResourceState& state = states_.emplace_back(omega_);
    for (int64_t i = 0; i < posts; ++i) {
      state.AddPost(Post::FromTags({tag}));
    }
  }

  // Applies `post` to resource i.
  void AddPost(ResourceId i, const Post& post) { states_[i].AddPost(post); }

  // One engine step with batch size 1: Choose, assign, apply a post,
  // complete.
  ResourceId Step(Strategy* strategy, const Post& post) {
    ResourceId chosen = strategy->Choose();
    if (chosen == kInvalidResource) return chosen;
    strategy->OnAssigned(chosen);
    AddPost(chosen, post);
    strategy->Update(chosen);
    return chosen;
  }

  const StrategyContext& ctx() const { return ctx_; }
  const ResourceState& state(ResourceId i) const { return states_[i]; }

 private:
  int omega_;
  std::vector<ResourceState> states_;
  ResourceStateViews views_;
  StrategyContext ctx_;
};

// ---------------------------------------------------------------- RR ----

TEST(RoundRobinTest, CyclesThroughResources) {
  StrategyHarness h(2);
  for (int i = 0; i < 3; ++i) h.AddResource(0, 1);
  RoundRobinStrategy rr;
  rr.Init(h.ctx());
  Post post = Post::FromTags({5});
  std::vector<ResourceId> chosen;
  for (int i = 0; i < 7; ++i) chosen.push_back(h.Step(&rr, post));
  EXPECT_EQ(chosen, (std::vector<ResourceId>{0, 1, 2, 0, 1, 2, 0}));
}

TEST(RoundRobinTest, SkipsExhaustedResources) {
  StrategyHarness h(2);
  for (int i = 0; i < 3; ++i) h.AddResource(0, 1);
  RoundRobinStrategy rr;
  rr.Init(h.ctx());
  Post post = Post::FromTags({5});
  EXPECT_EQ(h.Step(&rr, post), 0u);
  rr.OnExhausted(1);
  EXPECT_EQ(h.Step(&rr, post), 2u);
  EXPECT_EQ(h.Step(&rr, post), 0u);
  rr.OnExhausted(0);
  rr.OnExhausted(2);
  EXPECT_EQ(rr.Choose(), kInvalidResource);
}

TEST(RoundRobinTest, NameIsRR) {
  RoundRobinStrategy rr;
  EXPECT_EQ(rr.name(), "RR");
}

// ---------------------------------------------------------------- FC ----

TEST(FreeChoiceTest, ReturnsThePickersChoice) {
  StrategyHarness h(2);
  for (int i = 0; i < 4; ++i) h.AddResource(0, 1);
  int call = 0;
  std::vector<ResourceId> script = {2, 2, 0, 3};
  FreeChoiceStrategy fc([&] { return script[call++ % script.size()]; });
  fc.Init(h.ctx());
  Post post = Post::FromTags({5});
  EXPECT_EQ(h.Step(&fc, post), 2u);
  EXPECT_EQ(h.Step(&fc, post), 2u);
  EXPECT_EQ(h.Step(&fc, post), 0u);
  EXPECT_EQ(h.Step(&fc, post), 3u);
}

TEST(FreeChoiceTest, RedrawsWhenPickHitsExhaustedResource) {
  StrategyHarness h(2);
  for (int i = 0; i < 2; ++i) h.AddResource(0, 1);
  int call = 0;
  // The picker insists on resource 0 first, then yields resource 1.
  FreeChoiceStrategy fc([&]() -> ResourceId {
    ++call;
    return call < 3 ? 0u : 1u;
  });
  fc.Init(h.ctx());
  fc.OnExhausted(0);
  EXPECT_EQ(fc.Choose(), 1u);
}

TEST(FreeChoiceTest, AllExhaustedReturnsInvalid) {
  StrategyHarness h(2);
  h.AddResource(0, 1);
  FreeChoiceStrategy fc([] { return 0u; });
  fc.Init(h.ctx());
  fc.OnExhausted(0);
  EXPECT_EQ(fc.Choose(), kInvalidResource);
}

// ---------------------------------------------------------------- FP ----

TEST(FewestPostsTest, AlwaysPicksMinimumCount) {
  StrategyHarness h(2);
  h.AddResource(3, 1);
  h.AddResource(1, 2);
  h.AddResource(2, 3);
  FewestPostsStrategy fp;
  fp.Init(h.ctx());
  Post post = Post::FromTags({9});
  // Counts evolve 3,1,2 -> 3,2,2 -> 3,3,2 -> 3,3,3 -> 4,3,3 ...
  EXPECT_EQ(h.Step(&fp, post), 1u);
  EXPECT_EQ(h.Step(&fp, post), 1u);  // ties with 2; smaller id wins
  EXPECT_EQ(h.Step(&fp, post), 2u);
  EXPECT_EQ(h.Step(&fp, post), 0u);
}

TEST(FewestPostsTest, WaterFillsUniformly) {
  StrategyHarness h(2);
  const int n = 5;
  for (int i = 0; i < n; ++i) h.AddResource(i, 1);  // counts 0..4
  FewestPostsStrategy fp;
  fp.Init(h.ctx());
  Post post = Post::FromTags({9});
  // Budget exactly levels everyone to 4: sum(4 - c_i) = 4+3+2+1+0 = 10.
  for (int b = 0; b < 10; ++b) {
    ASSERT_NE(h.Step(&fp, post), kInvalidResource);
  }
  for (ResourceId i = 0; i < n; ++i) {
    EXPECT_EQ(h.state(i).posts(), 4);
  }
}

TEST(FewestPostsTest, ExhaustedResourceLeavesHeap) {
  StrategyHarness h(2);
  h.AddResource(0, 1);
  h.AddResource(5, 2);
  FewestPostsStrategy fp;
  fp.Init(h.ctx());
  fp.OnExhausted(0);
  EXPECT_EQ(fp.Choose(), 1u);
  fp.OnExhausted(1);
  EXPECT_EQ(fp.Choose(), kInvalidResource);
}

// FP's pending counts are 32-bit in memory and 64-bit on the wire: one
// past 2^16 (the width a narrower count would wrap at) round-trips.
TEST(FewestPostsTest, LargePendingCountRoundTrips) {
  constexpr int kPending = 70000;
  StrategyHarness h(2);
  h.AddResource(0, 1);
  FewestPostsStrategy fp;
  fp.Init(h.ctx());
  for (int k = 0; k < kPending; ++k) {
    ASSERT_EQ(fp.Choose(), 0u);
    fp.OnAssigned(0);
  }
  std::string blob;
  fp.SerializeState(&blob);
  util::wire::Reader in(blob);
  uint64_t n = 0;
  bool in_heap = false;
  int64_t pending = 0;
  ASSERT_TRUE(in.GetU64(&n) && in.GetBool(&in_heap) && in.GetI64(&pending));
  EXPECT_EQ(pending, kPending);

  FewestPostsStrategy restored;
  ASSERT_TRUE(restored.RestoreState(h.ctx(), blob).ok());
  std::string again;
  restored.SerializeState(&again);
  EXPECT_EQ(again, blob);
  // One completion later both still agree.
  h.AddPost(0, Post::FromTags({1}));
  fp.Update(0);
  restored.Update(0);
  blob.clear();
  again.clear();
  fp.SerializeState(&blob);
  restored.SerializeState(&again);
  EXPECT_EQ(again, blob);
}

// A pending count outside int32 (or negative) is corruption.
TEST(FewestPostsTest, PendingCountOutsideInt32IsRejected) {
  StrategyHarness h(2);
  h.AddResource(0, 1);
  for (int64_t pending : {int64_t{-1}, int64_t{INT32_MAX} + 1}) {
    std::string blob;
    util::wire::PutU64(&blob, 1);
    util::wire::PutU8(&blob, 1);
    util::wire::PutI64(&blob, pending);
    FewestPostsStrategy fp;
    EXPECT_EQ(fp.RestoreState(h.ctx(), blob).code(),
              util::StatusCode::kCorruption)
        << pending;
  }
}

// ---------------------------------------------------------------- MU ----

TEST(MostUnstableTest, IgnoresResourcesBelowOmega) {
  StrategyHarness h(3);
  h.AddResource(1, 1);  // below omega=3: no MA score
  h.AddResource(4, 2);  // eligible
  MostUnstableStrategy mu;
  mu.Init(h.ctx());
  EXPECT_EQ(mu.Choose(), 1u);
}

TEST(MostUnstableTest, PicksSmallestMaScore) {
  StrategyHarness h(3);
  // Resource 0: perfectly stable (repeats one tag).
  h.AddResource(6, 1);
  // Resource 1: unstable (fresh orthogonal tags via direct state access).
  h.AddResource(0, 2);
  for (TagId t = 10; t < 16; ++t) {
    h.AddPost(1, Post::FromTags({t}));
  }
  ASSERT_TRUE(h.state(0).has_ma_score());
  ASSERT_TRUE(h.state(1).has_ma_score());
  ASSERT_LT(h.state(1).ma_score(), h.state(0).ma_score());
  MostUnstableStrategy mu;
  mu.Init(h.ctx());
  EXPECT_EQ(mu.Choose(), 1u);
}

TEST(MostUnstableTest, UpdateReordersHeap) {
  StrategyHarness h(2);
  h.AddResource(3, 1);
  h.AddResource(3, 2);
  MostUnstableStrategy mu;
  mu.Init(h.ctx());
  // Both start perfectly stable (MA = 1); id 0 wins the tie.
  ASSERT_EQ(mu.Choose(), 0u);
  // Give 0 a destabilising post; its MA drops but stays eligible.
  h.AddPost(0, Post::FromTags({7, 8}));
  mu.Update(0);
  EXPECT_EQ(mu.Choose(), 0u);  // now strictly the most unstable
  const double dipped = h.state(0).ma_score();
  // Stabilise 0 again with repeats of its own tag; MA recovers (though not
  // exactly to 1: the off-topic tags remain in the counts).
  for (int i = 0; i < 4; ++i) {
    h.AddPost(0, Post::FromTags({1}));
    mu.Update(0);
  }
  ASSERT_GT(h.state(0).ma_score(), dipped);
}

TEST(MostUnstableTest, EmptyHeapReturnsInvalid) {
  StrategyHarness h(5);
  h.AddResource(1, 1);  // below omega: never eligible
  MostUnstableStrategy mu;
  mu.Init(h.ctx());
  EXPECT_EQ(mu.Choose(), kInvalidResource);
}

// -------------------------------------------------------------- FP-MU ---

TEST(HybridTest, WarmupBudgetIsSumOfDeficits) {
  StrategyHarness h(3);
  h.AddResource(1, 1);  // deficit 2
  h.AddResource(5, 2);  // deficit 0
  h.AddResource(0, 3);  // deficit 3
  HybridFpMuStrategy hybrid;
  hybrid.Init(h.ctx());
  EXPECT_EQ(hybrid.warmup_remaining(), 5);
  EXPECT_TRUE(hybrid.InWarmup());
}

TEST(HybridTest, RunsFpThenSwitchesToMu) {
  StrategyHarness h(3);
  h.AddResource(1, 1);
  h.AddResource(5, 2);
  h.AddResource(0, 3);
  HybridFpMuStrategy hybrid;
  hybrid.Init(h.ctx());
  Post post = Post::FromTags({9});
  // Warm-up: 5 tasks raise resources 0 and 2 to omega = 3 posts.
  for (int i = 0; i < 5; ++i) {
    ResourceId chosen = h.Step(&hybrid, post);
    ASSERT_TRUE(chosen == 0u || chosen == 2u);
  }
  EXPECT_FALSE(hybrid.InWarmup());
  EXPECT_EQ(h.state(0).posts(), 3);
  EXPECT_EQ(h.state(2).posts(), 3);
  // Post-warm-up choices must be valid and MA-driven (all eligible now).
  for (int i = 0; i < 4; ++i) {
    ASSERT_NE(h.Step(&hybrid, post), kInvalidResource);
  }
}

TEST(HybridTest, NoWarmupWhenEveryoneHasOmegaPosts) {
  StrategyHarness h(2);
  h.AddResource(4, 1);
  h.AddResource(2, 2);
  HybridFpMuStrategy hybrid;
  hybrid.Init(h.ctx());
  EXPECT_EQ(hybrid.warmup_remaining(), 0);
  EXPECT_FALSE(hybrid.InWarmup());
  EXPECT_NE(hybrid.Choose(), kInvalidResource);
}

TEST(HybridTest, ExhaustionDuringWarmupShrinksWarmupBudget) {
  StrategyHarness h(4);
  h.AddResource(0, 1);  // deficit 4
  h.AddResource(1, 2);  // deficit 3
  HybridFpMuStrategy hybrid;
  hybrid.Init(h.ctx());
  EXPECT_EQ(hybrid.warmup_remaining(), 7);
  hybrid.OnExhausted(0);
  EXPECT_EQ(hybrid.warmup_remaining(), 3);
}

// FP-MU nests FP's blob: a warm-up with a pending count past 2^16 on one
// resource round-trips through both.
TEST(HybridTest, LargePendingCountRoundTrips) {
  constexpr int64_t kPending = 70000;
  StrategyHarness h(2);
  h.AddResource(0, 1);
  std::string fp_blob;
  util::wire::PutU64(&fp_blob, 1);
  util::wire::PutU8(&fp_blob, 1);
  util::wire::PutI64(&fp_blob, kPending);
  std::string blob;
  util::wire::PutI64(&blob, 1);         // warm-up tasks left
  util::wire::PutI64(&blob, kPending);  // FP tasks in flight
  util::wire::PutU8(&blob, 0);          // still in warm-up
  util::wire::PutString(&blob, fp_blob);
  util::wire::PutString(&blob, "");

  HybridFpMuStrategy hybrid;
  ASSERT_TRUE(hybrid.RestoreState(h.ctx(), blob).ok());
  std::string again;
  hybrid.SerializeState(&again);
  EXPECT_EQ(again, blob);
}

// An FP-MU blob as SerializeState lays it out, over one resource that FP
// still holds with `fp_pending` tasks pending, and MU's blob when MU runs.
std::string HybridBlob(int64_t warmup, int64_t in_flight, bool mu_running,
                       int64_t fp_pending) {
  std::string fp_blob;
  util::wire::PutU64(&fp_blob, 1);
  util::wire::PutU8(&fp_blob, 1);
  util::wire::PutI64(&fp_blob, fp_pending);
  std::string mu_blob;
  if (mu_running) {
    util::wire::PutU64(&mu_blob, 1);
    util::wire::PutU8(&mu_blob, 0);
  }
  std::string blob;
  util::wire::PutI64(&blob, warmup);
  util::wire::PutI64(&blob, in_flight);
  util::wire::PutU8(&blob, mu_running ? 1 : 0);
  util::wire::PutString(&blob, fp_blob);
  util::wire::PutString(&blob, mu_blob);
  return blob;
}

// Once the warm-up is handed out and has landed, FP-MU keeps only FP's
// membership; a blob of that state restores with FP freed and writes
// itself back.
TEST(HybridTest, RestoreAfterTheWarmupFreesFp) {
  StrategyHarness h(2);
  h.AddResource(3, 1);
  for (bool mu_running : {false, true}) {
    const std::string blob = HybridBlob(0, 0, mu_running, 0);
    HybridFpMuStrategy hybrid;
    ASSERT_TRUE(hybrid.RestoreState(h.ctx(), blob).ok());
    EXPECT_TRUE(hybrid.fp_freed());
    std::string again;
    hybrid.SerializeState(&again);
    EXPECT_EQ(again, blob);
  }
}

// No run has MU started while warm-up remains, or FP tasks pending when
// none is in flight (each FP completion or unfilled task takes one off
// both counts).
TEST(HybridTest, RestoreRefusesStatesNoRunReaches) {
  StrategyHarness h(2);
  h.AddResource(0, 1);
  for (const std::string& blob :
       {HybridBlob(1, 0, /*mu_running=*/true, 0),
        HybridBlob(0, 0, /*mu_running=*/false, 2),
        HybridBlob(0, 0, /*mu_running=*/true, 1)}) {
    HybridFpMuStrategy hybrid;
    const util::Status status = hybrid.RestoreState(h.ctx(), blob);
    EXPECT_EQ(status.code(), util::StatusCode::kCorruption)
        << status.ToString();
  }
}

}  // namespace
}  // namespace core
}  // namespace incentag

// CampaignRuntime resumable-state round trip (journal format v2): a
// runtime serialized mid-campaign — including mid-batch, with
// assignments outstanding — and restored into a fresh runtime with a
// fresh strategy and stream must finish with a RunReport byte-identical
// to the uninterrupted run, for every strategy (heap orders, MA rings,
// RNG-backed pickers and float accumulators all restored exactly).
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/campaign_runtime.h"
#include "src/core/cost_model.h"
#include "src/core/dp_planner.h"
#include "src/core/ma_tracker.h"
#include "src/core/rfd.h"
#include "src/core/strategy_fc.h"
#include "src/core/strategy_fp.h"
#include "src/core/strategy_fpmu.h"
#include "src/core/strategy_mu.h"
#include "src/core/strategy_rr.h"
#include "src/util/wire.h"
#include "tests/testing/report_bytes.h"
#include "tests/testing/test_util.h"

namespace incentag {
namespace core {
namespace {

struct Fixture {
  PostStore initial;
  PostStore future;
  std::vector<ResourceReference> references;

  // Posts [0, cut) of `year` become the next resource's January, the
  // rest its future; Finish builds the stores.
  void AddResource(const std::vector<Post>& year, size_t cut,
                   int64_t stable_point) {
    for (size_t k = 0; k < year.size(); ++k) {
      (k < cut ? initial_builder : future_builder).AddPost(year[k]);
    }
    initial_builder.EndResource();
    future_builder.EndResource();
    TagCounts full;
    for (const Post& post : year) full.AddPost(post);
    references.push_back(ResourceReference{full.Snapshot(), stable_point});
  }
  Fixture Finish() && {
    initial = std::move(initial_builder).Build();
    future = std::move(future_builder).Build();
    return std::move(*this);
  }

  PostStore::Builder initial_builder;
  PostStore::Builder future_builder;
};

Fixture MakeFixture(size_t n, uint64_t seed) {
  util::Rng rng(seed);
  Fixture f;
  for (size_t i = 0; i < n; ++i) {
    f.AddResource(incentag::testing::ConvergingSequence(
                      &rng, 40 + static_cast<int>(i % 7) * 5,
                      /*universe=*/20),
                  4 + i % 5, 10 + static_cast<int64_t>(i % 9));
  }
  return std::move(f).Finish();
}

EngineOptions MakeOptions(int64_t budget, int64_t batch_size,
                          const CostModel* costs = nullptr) {
  EngineOptions options;
  options.budget = budget;
  options.omega = 5;
  options.batch_size = batch_size;
  options.checkpoints = {budget / 4, budget / 2, budget};
  options.costs = costs;
  return options;
}

// Drives `rt` to completion, applying whatever assignments are still
// outstanding in `pending` first (the restored half of a split batch).
RunReport DriveToCompletion(CampaignRuntime* rt,
                            std::deque<ResourceId>* pending) {
  std::vector<ResourceId> batch;
  for (;;) {
    while (!pending->empty()) {
      rt->ApplyCompletion(pending->front());
      pending->pop_front();
    }
    if (rt->done()) break;
    EXPECT_TRUE(rt->DrawBatch(&batch).ok());
    if (batch.empty()) break;
    for (ResourceId r : batch) pending->push_back(r);
  }
  return rt->Finish();
}

// The round-trip property for one strategy builder: run uninterrupted;
// run again but serialize mid-campaign (mid-batch when batching) and
// restore into a fresh runtime/strategy/stream; reports must match
// exactly.
void CheckRoundTrip(
    const Fixture& f, const EngineOptions& options,
    const std::function<std::unique_ptr<Strategy>()>& make_strategy,
    const std::string& label) {
  // Ground truth: uninterrupted run.
  RunReport want;
  {
    auto strategy = make_strategy();
    VectorPostStream stream(&f.future);
    CampaignRuntime rt(options, &f.initial, &f.references);
    ASSERT_TRUE(rt.Begin(strategy.get(), &stream).ok()) << label;
    std::deque<ResourceId> pending;
    want = DriveToCompletion(&rt, &pending);
  }

  // Split run: stop after ~half the budget with half a batch applied.
  std::string state;
  std::deque<ResourceId> pending;
  {
    auto strategy = make_strategy();
    VectorPostStream stream(&f.future);
    CampaignRuntime rt(options, &f.initial, &f.references);
    ASSERT_TRUE(rt.Begin(strategy.get(), &stream).ok()) << label;
    std::vector<ResourceId> batch;
    while (!rt.done() && rt.spent() < options.budget / 2) {
      // A new batch is drawn only once the previous one is fully
      // applied, mirroring the engine's and the service layer's
      // semantics (budget reservation assumes it).
      ASSERT_TRUE(rt.DrawBatch(&batch).ok()) << label;
      if (batch.empty()) break;
      for (ResourceId r : batch) pending.push_back(r);
      // Apply only half the batch first, so the snapshot can land with
      // outstanding assignments (the strategy saw OnAssigned for all).
      const size_t half = (pending.size() + 1) / 2;
      for (size_t i = 0; i < half; ++i) {
        rt.ApplyCompletion(pending.front());
        pending.pop_front();
      }
      if (rt.spent() >= options.budget / 2) break;  // snapshot mid-batch
      while (!pending.empty()) {
        rt.ApplyCompletion(pending.front());
        pending.pop_front();
      }
    }
    ASSERT_TRUE(rt.SerializeResumableState(&state).ok()) << label;
  }

  // Restore into an entirely fresh world and finish.
  {
    auto strategy = make_strategy();
    VectorPostStream stream(&f.future);
    CampaignRuntime rt(options, &f.initial, &f.references);
    ASSERT_TRUE(
        rt.RestoreResumableState(state, strategy.get(), &stream).ok())
        << label;
    RunReport got = DriveToCompletion(&rt, &pending);
    EXPECT_TRUE(testing::SameReport(want, got)) << label;
  }
}

class RuntimeSnapshotTest : public ::testing::Test {
 protected:
  RuntimeSnapshotTest() : fixture_(MakeFixture(24, 20260729)) {}
  Fixture fixture_;
};

TEST_F(RuntimeSnapshotTest, RoundRobinRoundTrips) {
  for (int64_t batch : {int64_t{1}, int64_t{16}}) {
    CheckRoundTrip(fixture_, MakeOptions(200, batch),
                   [] { return std::make_unique<RoundRobinStrategy>(); },
                   "RR batch " + std::to_string(batch));
  }
}

TEST_F(RuntimeSnapshotTest, FewestPostsRoundTrips) {
  for (int64_t batch : {int64_t{1}, int64_t{16}}) {
    CheckRoundTrip(fixture_, MakeOptions(200, batch),
                   [] { return std::make_unique<FewestPostsStrategy>(); },
                   "FP batch " + std::to_string(batch));
  }
}

TEST_F(RuntimeSnapshotTest, MostUnstableRoundTrips) {
  for (int64_t batch : {int64_t{1}, int64_t{16}}) {
    CheckRoundTrip(fixture_, MakeOptions(200, batch),
                   [] { return std::make_unique<MostUnstableStrategy>(); },
                   "MU batch " + std::to_string(batch));
  }
}

TEST_F(RuntimeSnapshotTest, HybridFpMuRoundTrips) {
  // Budget large enough that the split lands both during warm-up (small
  // budget) and after the MU switch (large budget).
  for (int64_t budget : {int64_t{60}, int64_t{300}}) {
    CheckRoundTrip(fixture_, MakeOptions(budget, 8),
                   [] { return std::make_unique<HybridFpMuStrategy>(); },
                   "FP-MU budget " + std::to_string(budget));
  }
}

// Once its warm-up has landed FP-MU frees FP and writes FP's blob from
// the membership it keeps. A snapshot of that state restores with FP
// freed, writes itself back, and finishes as the uninterrupted run does:
// with MU running (the 24-resource fixture at 100 of 200 tasks), and
// right after a batched warm-up whose unfilled tasks freed FP before MU
// started (resource 0 has one future post and gets three warm-up tasks).
TEST_F(RuntimeSnapshotTest, HybridFpMuRoundTripsAfterFreeingFp) {
  Fixture builder;
  builder.AddResource({Post::FromTags({1})}, 0, 1000);
  builder.AddResource(std::vector<Post>(11, Post::FromTags({1})), 0, 1000);
  const Fixture dry = std::move(builder).Finish();
  struct Case {
    const Fixture* f;
    EngineOptions options;
    int64_t split;
  };
  EngineOptions batched = MakeOptions(8, 6);
  batched.omega = 3;
  for (const Case& c : {Case{&fixture_, MakeOptions(200, 4), 100},
                        Case{&dry, batched, 4}}) {
    const std::string label = "split at " + std::to_string(c.split);
    RunReport want;
    {
      HybridFpMuStrategy strategy;
      VectorPostStream stream(&c.f->future);
      CampaignRuntime rt(c.options, &c.f->initial, &c.f->references);
      ASSERT_TRUE(rt.Begin(&strategy, &stream).ok()) << label;
      std::deque<ResourceId> pending;
      want = DriveToCompletion(&rt, &pending);
    }
    std::string state;
    {
      HybridFpMuStrategy strategy;
      VectorPostStream stream(&c.f->future);
      CampaignRuntime rt(c.options, &c.f->initial, &c.f->references);
      ASSERT_TRUE(rt.Begin(&strategy, &stream).ok()) << label;
      std::vector<ResourceId> batch;
      while (rt.spent() < c.split) {
        ASSERT_TRUE(rt.DrawBatch(&batch).ok()) << label;
        ASSERT_FALSE(batch.empty()) << label;
        rt.ApplyCompletionBatch(batch.data(), batch.size());
      }
      ASSERT_TRUE(strategy.fp_freed()) << label;
      ASSERT_TRUE(rt.SerializeResumableState(&state).ok()) << label;
    }
    HybridFpMuStrategy strategy;
    VectorPostStream stream(&c.f->future);
    CampaignRuntime rt(c.options, &c.f->initial, &c.f->references);
    ASSERT_TRUE(rt.RestoreResumableState(state, &strategy, &stream).ok())
        << label;
    EXPECT_TRUE(strategy.fp_freed()) << label;
    std::string again;
    ASSERT_TRUE(rt.SerializeResumableState(&again).ok()) << label;
    EXPECT_EQ(again, state) << label;
    std::deque<ResourceId> pending;
    EXPECT_TRUE(testing::SameReport(want, DriveToCompletion(&rt, &pending)))
        << label;
  }
}

TEST_F(RuntimeSnapshotTest, FreeChoiceRoundTripsWithDeterministicPicker) {
  // A seeded picker stands in for the crowd model; restore fast-forwards
  // a fresh instance by the serialized number of draws.
  const size_t n = fixture_.initial.size();
  auto make = [n] {
    auto rng = std::make_shared<util::Rng>(4242);
    return std::make_unique<FreeChoiceStrategy>([rng, n] {
      return static_cast<ResourceId>(rng->NextBounded(n));
    });
  };
  for (int64_t batch : {int64_t{1}, int64_t{8}}) {
    CheckRoundTrip(fixture_, MakeOptions(200, batch), make,
                   "FC batch " + std::to_string(batch));
  }
}

// FC does not see OnAssigned, so a picker stuck on one resource sends a
// whole batch there and all but one task is refunded; once that resource
// is dry every Choose() redraws kMaxRedraws times before its scan. The
// draw count of such a campaign is far above one batch per budget unit,
// and its snapshot at the end must still restore.
TEST_F(RuntimeSnapshotTest, FreeChoiceRestoresAStuckPickersDrawCount) {
  Fixture f = fixture_;
  PostStore::Builder first_posts;
  for (PostSequence future : f.future) {
    first_posts.AddPosts(future.Slice(0, 1));
    first_posts.EndResource();
  }
  f.future = std::move(first_posts).Build();
  const int64_t n = static_cast<int64_t>(f.initial.size());
  const EngineOptions options = MakeOptions(2 * n, 8);
  auto make = [] {
    return std::make_unique<FreeChoiceStrategy>([] { return ResourceId{0}; });
  };

  std::string state;
  {
    auto strategy = make();
    VectorPostStream stream(&f.future);
    CampaignRuntime rt(options, &f.initial, &f.references);
    ASSERT_TRUE(rt.Begin(strategy.get(), &stream).ok());
    std::vector<ResourceId> batch;
    while (!rt.done()) {
      ASSERT_TRUE(rt.DrawBatch(&batch).ok());
      for (ResourceId r : batch) rt.ApplyCompletion(r);
    }
    EXPECT_EQ(rt.spent(), n);  // one post each, then every resource is dry
    ASSERT_TRUE(rt.SerializeResumableState(&state).ok());
    std::string fc;
    strategy->SerializeState(&fc);
    util::wire::Reader in(fc);
    uint64_t draws = 0;
    ASSERT_TRUE(in.GetU64(&draws));
    // More than a bound that assumes a batch's tasks are mostly spent,
    // kMaxRedraws * (2 * budget + n + 1), allows.
    EXPECT_GT(draws, uint64_t{64} * static_cast<uint64_t>(2 * 2 * n + n + 1))
        << draws;
  }

  auto strategy = make();
  VectorPostStream stream(&f.future);
  CampaignRuntime rt(options, &f.initial, &f.references);
  ASSERT_TRUE(rt.RestoreResumableState(state, strategy.get(), &stream).ok());
  std::string again;
  ASSERT_TRUE(rt.SerializeResumableState(&again).ok());
  EXPECT_EQ(again, state);
}

TEST_F(RuntimeSnapshotTest, CostAwareFpRoundTrips) {
  std::vector<int64_t> costs;
  for (size_t i = 0; i < fixture_.initial.size(); ++i) {
    costs.push_back(1 + static_cast<int64_t>(i % 4));
  }
  CostModel model(std::move(costs));
  CheckRoundTrip(fixture_, MakeOptions(200, 8, &model),
                 [&model] {
                   return std::make_unique<FewestPostsStrategy>(&model);
                 },
                 "FP-$");
}

TEST_F(RuntimeSnapshotTest, PlanStrategyRoundTrips) {
  std::vector<int64_t> plan(fixture_.initial.size(), 0);
  int64_t budget = 0;
  for (size_t i = 0; i < plan.size(); ++i) {
    plan[i] = static_cast<int64_t>(i % 5);
    budget += plan[i];
  }
  CheckRoundTrip(fixture_, MakeOptions(budget, 4),
                 [&plan] { return std::make_unique<PlanStrategy>(plan); },
                 "DP plan");
}

TEST_F(RuntimeSnapshotTest, RestoreRejectsDamagedState) {
  auto strategy = std::make_unique<FewestPostsStrategy>();
  VectorPostStream stream(&fixture_.future);
  CampaignRuntime rt(MakeOptions(100, 1), &fixture_.initial,
                     &fixture_.references);
  ASSERT_TRUE(rt.Begin(strategy.get(), &stream).ok());
  std::vector<ResourceId> batch;
  ASSERT_TRUE(rt.DrawBatch(&batch).ok());
  for (ResourceId r : batch) rt.ApplyCompletion(r);
  std::string state;
  ASSERT_TRUE(rt.SerializeResumableState(&state).ok());

  for (size_t cut : {size_t{0}, size_t{3}, state.size() / 2,
                     state.size() - 1}) {
    auto fresh_strategy = std::make_unique<FewestPostsStrategy>();
    VectorPostStream fresh_stream(&fixture_.future);
    CampaignRuntime fresh(MakeOptions(100, 1), &fixture_.initial,
                          &fixture_.references);
    EXPECT_FALSE(fresh
                     .RestoreResumableState(
                         std::string_view(state).substr(0, cut),
                         fresh_strategy.get(), &fresh_stream)
                     .ok())
        << "cut " << cut;
  }

  // Serialization before Begin is rejected too.
  CampaignRuntime unbegun(MakeOptions(100, 1), &fixture_.initial,
                          &fixture_.references);
  std::string out;
  EXPECT_FALSE(unbegun.SerializeResumableState(&out).ok());
}

// --- Golden snapshot bytes ------------------------------------------------
//
// Journal snapshots carry these encodings, and recovery of a journal an
// older build wrote depends on them staying put. The goldens below were
// recorded before TagCountMap's slots narrowed to (uint32 tag, uint32
// count) and MaTracker's ring moved to a unique_ptr<double[]>; both
// changes must leave every byte unchanged. Never edit a golden to make a
// test pass: a mismatch means the wire format moved.

std::string Hex(const std::string& bytes) {
  std::string out;
  char buf[3];
  for (unsigned char c : bytes) {
    std::snprintf(buf, sizeof(buf), "%02x", c);
    out += buf;
  }
  return out;
}

// 64-bit FNV-1a: a fixed, dependency-free fingerprint of a blob.
uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

// A fixed 12-post sequence over tags that collide in small tables
// (dense ids plus far-apart ones).
std::vector<Post> GoldenPosts() {
  const std::vector<std::vector<TagId>> raw = {
      {3, 7},       {7},       {1, 3, 9},  {7, 70000}, {3},
      {9, 7, 1},    {4000000}, {7, 3},     {1},        {70000, 9},
      {3, 7, 9, 1}, {7}};
  std::vector<Post> posts;
  for (const auto& tags : raw) posts.push_back(Post::FromTags(tags));
  return posts;
}

TEST(SnapshotGoldenTest, TagCountsAndMaTrackerBytes) {
  TagCounts counts;
  MaTracker ma(5);
  for (const Post& post : GoldenPosts()) {
    ma.AddAdjacentSimilarity(counts.AddPost(post));
  }
  std::string counts_bytes;
  counts.Serialize(&counts_bytes);
  std::string ma_bytes;
  ma.Serialize(&ma_bytes);
  EXPECT_EQ(Hex(counts_bytes),
            "0c0000000000000017000000000000006f0000000000000006000000"
            "01000000040000000000000003000000050000000000000007000000"
            "07000000000000000900000004000000000000007011010002000000"
            "0000000000093d000100000000000000");
  EXPECT_EQ(Hex(ma_bytes),
            "050000000c00000000000000bfdf22059fe8ef3f90daccf385c60f40"
            "000000000000000004000000000000007b13467050bcef3fad42e976"
            "6d89ef3f5c34e1e2baebef3fbfdf22059fe8ef3f");

  // The pinned bytes restore into state that re-serializes identically.
  TagCounts restored_counts;
  util::wire::Reader counts_in(counts_bytes);
  ASSERT_TRUE(restored_counts.Restore(&counts_in));
  std::string again;
  restored_counts.Serialize(&again);
  EXPECT_EQ(again, counts_bytes);
  MaTracker restored_ma(5);
  util::wire::Reader ma_in(ma_bytes);
  ASSERT_TRUE(restored_ma.Restore(&ma_in));
  again.clear();
  restored_ma.Serialize(&again);
  EXPECT_EQ(again, ma_bytes);
}

// Fingerprint of SerializeResumableState halfway through a campaign.
std::string MidRunStateFingerprint(const Fixture& f, Strategy* strategy) {
  const EngineOptions options = MakeOptions(200, 1);
  VectorPostStream stream(&f.future);
  CampaignRuntime rt(options, &f.initial, &f.references);
  EXPECT_TRUE(rt.Begin(strategy, &stream).ok());
  std::vector<ResourceId> batch;
  while (!rt.done() && rt.spent() < options.budget / 2) {
    EXPECT_TRUE(rt.DrawBatch(&batch).ok());
    if (batch.empty()) break;
    for (ResourceId r : batch) rt.ApplyCompletion(r);
  }
  std::string state;
  EXPECT_TRUE(rt.SerializeResumableState(&state).ok());
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%zu:%016llx", state.size(),
                static_cast<unsigned long long>(Fnv1a(state)));
  return buf;
}

TEST_F(RuntimeSnapshotTest, MidRunStateMatchesGolden) {
  RoundRobinStrategy rr;
  FewestPostsStrategy fp;
  MostUnstableStrategy mu;
  HybridFpMuStrategy fpmu;
  EXPECT_EQ(MidRunStateFingerprint(fixture_, &rr), "5365:b8a17a0f177545fe");
  EXPECT_EQ(MidRunStateFingerprint(fixture_, &fp), "5513:b8777ee7ff859fb0");
  EXPECT_EQ(MidRunStateFingerprint(fixture_, &mu), "5249:a23d8419140ce814");
  EXPECT_EQ(MidRunStateFingerprint(fixture_, &fpmu), "5534:399d532bc73fd21f");
}


// --- Golden reports ---------------------------------------------------------
//
// A digest over whole RunReports plus a SerializeResumableState blob every
// 97 applied tasks, for every strategy over both omegas, both batch sizes
// and a budget that outlasts the streams. The digests were recorded before
// the runtime stopped copying per-resource state; any change to how a
// campaign evaluates, allocates or serializes must leave them unchanged.

// A dataset with the edge cases a campaign meets: resources with no
// initial post, resources with no future post, resources with no stable
// point and resources already past it.
Fixture MakeGoldenFixture() {
  util::Rng rng(20261017);
  Fixture f;
  for (size_t i = 0; i < 40; ++i) {
    const std::vector<Post> year = incentag::testing::ConvergingSequence(
        &rng, 12 + static_cast<int>(i % 11) * 6, /*universe=*/24);
    const size_t cut = i % 13 == 5 ? year.size() : i % 9;
    const int64_t stable_point =
        i % 7 == 3 ? 0 : 3 + static_cast<int64_t>(i % 17);
    f.AddResource(year, cut, stable_point);
  }
  return std::move(f).Finish();
}

class ReportDigest {
 public:
  void Bytes(const std::string& bytes) {
    for (unsigned char c : bytes) {
      hash_ ^= c;
      hash_ *= 0x100000001b3ull;
    }
  }
  void I64(int64_t x) {
    std::string bytes;
    util::wire::PutI64(&bytes, x);
    Bytes(bytes);
  }
  void Double(double x) {
    std::string bytes;
    util::wire::PutDouble(&bytes, x);
    Bytes(bytes);
  }
  void Metrics(const AllocationMetrics& m) {
    I64(m.budget_used);
    Double(m.avg_quality);
    I64(m.over_tagged);
    I64(m.wasted_posts);
    I64(m.under_tagged);
  }
  void Report(const RunReport& report) {
    Bytes(report.strategy_name);
    I64(static_cast<int64_t>(report.allocation.size()));
    for (int64_t x : report.allocation) I64(x);
    I64(static_cast<int64_t>(report.checkpoints.size()));
    for (const AllocationMetrics& m : report.checkpoints) Metrics(m);
    Metrics(report.final_metrics);
    I64(report.budget_spent);
    I64(report.stopped_early ? 1 : 0);
  }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

// Runs `make_strategy` over omega {2, 5} x batch {1, 64} x budget {150,
// 3000} and digests every report and the periodic snapshots.
std::string GoldenDigest(
    const Fixture& f, const CostModel* costs,
    const std::function<std::unique_ptr<Strategy>()>& make_strategy) {
  ReportDigest digest;
  for (int omega : {2, 5}) {
    for (int64_t batch_size : {int64_t{1}, int64_t{64}}) {
      for (int64_t budget : {int64_t{150}, int64_t{3000}}) {
        EngineOptions options = MakeOptions(budget, batch_size, costs);
        options.omega = omega;
        options.under_tagged_threshold = 6;
        auto strategy = make_strategy();
        VectorPostStream stream(&f.future);
        CampaignRuntime rt(options, &f.initial, &f.references);
        EXPECT_TRUE(rt.Begin(strategy.get(), &stream).ok());
        std::string state;
        EXPECT_TRUE(rt.SerializeResumableState(&state).ok());
        digest.Bytes(state);
        std::vector<ResourceId> batch;
        int64_t steps = 0;
        while (!rt.done()) {
          EXPECT_TRUE(rt.DrawBatch(&batch).ok());
          if (batch.empty()) break;
          for (ResourceId r : batch) {
            rt.ApplyCompletion(r);
            if (++steps % 97 == 0) {
              state.clear();
              EXPECT_TRUE(rt.SerializeResumableState(&state).ok());
              digest.Bytes(state);
            }
          }
        }
        digest.Report(rt.Finish());
      }
    }
  }
  return digest.Hex();
}

TEST(RuntimeGoldenTest, ReportsArePinned) {
  const Fixture f = MakeGoldenFixture();
  const size_t n = f.initial.size();
  EXPECT_EQ(GoldenDigest(f, nullptr,
                         [] { return std::make_unique<RoundRobinStrategy>(); }),
            "c89949781cd3014b");
  EXPECT_EQ(GoldenDigest(
                f, nullptr,
                [] { return std::make_unique<FewestPostsStrategy>(); }),
            "f352ad40931e846f");
  EXPECT_EQ(GoldenDigest(
                f, nullptr,
                [] { return std::make_unique<MostUnstableStrategy>(); }),
            "7dbf60f3144f9a81");
  EXPECT_EQ(GoldenDigest(f, nullptr,
                         [] { return std::make_unique<HybridFpMuStrategy>(); }),
            "f1354f7f5bd9eb50");
  EXPECT_EQ(GoldenDigest(f, nullptr,
                         [n] {
                           auto rng = std::make_shared<util::Rng>(977);
                           return std::make_unique<FreeChoiceStrategy>(
                               [rng, n] {
                                 return static_cast<ResourceId>(
                                     rng->NextBounded(n));
                               });
                         }),
            "89c71f224dc36a28");
  std::vector<int64_t> costs;
  for (size_t i = 0; i < n; ++i) {
    costs.push_back(1 + static_cast<int64_t>(i % 4));
  }
  const CostModel model(std::move(costs));
  EXPECT_EQ(GoldenDigest(f, &model,
                         [&model] {
                           return std::make_unique<FewestPostsStrategy>(&model);
                         }),
            "1aa4d7d39502165d");
}

}  // namespace
}  // namespace core
}  // namespace incentag

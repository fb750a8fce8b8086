// Tests for batched task assignment (EngineOptions::batch_size > 1): the
// Figure-2 crowdsourcing flow where several tasks are posted before any
// completes and strategies decide on stale information.
#include <vector>

#include <gtest/gtest.h>

#include "src/core/allocation.h"
#include "src/core/resource_state.h"
#include "src/core/strategy_fp.h"
#include "src/core/strategy_fpmu.h"
#include "src/core/strategy_mu.h"
#include "src/core/strategy_rr.h"
#include "src/core/types.h"

namespace incentag {
namespace core {
namespace {

// Tests edit the posts; RunEngine stores them.
struct BatchFixture {
  std::vector<std::vector<Post>> initial;
  std::vector<ResourceReference> references;
  std::vector<std::vector<Post>> future;

  explicit BatchFixture(size_t n, int initial_posts, int future_posts) {
    initial.resize(n);
    future.resize(n);
    for (size_t i = 0; i < n; ++i) {
      for (int k = 0; k < initial_posts; ++k) {
        initial[i].push_back(Post::FromTags({1}));
      }
      for (int k = 0; k < future_posts; ++k) {
        future[i].push_back(Post::FromTags({1}));
      }
      references.push_back(ResourceReference{
          RfdVector::FromWeights({{1, 1.0}}), /*stable_point=*/1000});
    }
  }
};

RunReport RunEngine(BatchFixture* f, Strategy* strategy, int64_t budget,
              int64_t batch_size) {
  EngineOptions options;
  options.budget = budget;
  options.omega = 2;
  options.batch_size = batch_size;
  const PostStore initial = PostStore::FromPosts(f->initial);
  const PostStore future = PostStore::FromPosts(f->future);
  AllocationEngine engine(options, &initial, &f->references);
  VectorPostStream stream(&future);
  auto report = engine.Run(strategy, &stream);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return std::move(report).value();
}

TEST(BatchTest, FpSpreadsABatchAcrossTheLevel) {
  // 4 resources all at 2 posts; a batch of 4 must give one task each
  // (pending-aware keys), not four tasks to resource 0.
  BatchFixture f(4, 2, 10);
  FewestPostsStrategy fp;
  RunReport report = RunEngine(&f, &fp, 4, 4);
  EXPECT_EQ(report.allocation, (std::vector<int64_t>{1, 1, 1, 1}));
}

TEST(BatchTest, MuConcentratesABatchOnTheMostUnstable) {
  // MU's key only changes on completion, so a whole batch lands on the
  // resource that looked most unstable when the batch was posted.
  BatchFixture f(3, 0, 10);
  // Resource 2 is made unstable; others perfectly stable.
  for (size_t i = 0; i < 3; ++i) {
    for (int k = 0; k < 4; ++k) {
      f.initial[i].push_back(Post::FromTags(
          i == 2 ? std::vector<TagId>{static_cast<TagId>(10 + k)}
                 : std::vector<TagId>{1}));
    }
  }
  MostUnstableStrategy mu;
  RunReport report = RunEngine(&f, &mu, 3, 3);
  EXPECT_EQ(report.allocation[2], 3);
}

TEST(BatchTest, BatchOneMatchesUnbatchedExactly) {
  BatchFixture f1(5, 1, 20);
  BatchFixture f2(5, 1, 20);
  FewestPostsStrategy fp1;
  FewestPostsStrategy fp2;
  RunReport batched = RunEngine(&f1, &fp1, 15, 1);
  EngineOptions options;
  options.budget = 15;
  options.omega = 2;  // defaults: batch_size = 1
  const PostStore initial = PostStore::FromPosts(f2.initial);
  const PostStore future = PostStore::FromPosts(f2.future);
  AllocationEngine engine(options, &initial, &f2.references);
  VectorPostStream stream(&future);
  auto plain = engine.Run(&fp2, &stream);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(batched.allocation, plain.value().allocation);
  EXPECT_DOUBLE_EQ(batched.final_metrics.avg_quality,
                   plain.value().final_metrics.avg_quality);
}

TEST(BatchTest, BudgetNeverOverspent) {
  BatchFixture f(3, 0, 50);
  RoundRobinStrategy rr;
  // Budget not divisible by the batch size.
  RunReport report = RunEngine(&f, &rr, 10, 4);
  EXPECT_EQ(report.budget_spent, 10);
  int64_t total = 0;
  for (int64_t x : report.allocation) total += x;
  EXPECT_EQ(total, 10);
}

TEST(BatchTest, MidBatchExhaustionRefundsTheTask) {
  // Resource 0 has a single future post but FP assigns it twice in one
  // batch (both assignments see 0 posts); the second task is unfilled and
  // its budget must be released and spent elsewhere.
  BatchFixture f(2, 0, 10);
  f.future[0].resize(1);
  f.initial[1].push_back(Post::FromTags({1}));  // resource 1 starts ahead
  FewestPostsStrategy fp;
  RunReport report = RunEngine(&f, &fp, 6, 6);
  EXPECT_EQ(report.allocation[0], 1);  // only one post existed
  EXPECT_EQ(report.budget_spent, 6);   // refunded budget was re-spent
  EXPECT_EQ(report.allocation[1], 5);
}

TEST(BatchTest, RoundRobinVisitsDistinctResourcesWithinABatch) {
  BatchFixture f(4, 0, 10);
  RoundRobinStrategy rr;
  RunReport report = RunEngine(&f, &rr, 4, 4);
  EXPECT_EQ(report.allocation, (std::vector<int64_t>{1, 1, 1, 1}));
}

TEST(BatchTest, FpmuWarmupCommitsAtAssignment) {
  // omega = 2; resources start with 1 post each, so the warm-up needs
  // n tasks. With a batch covering the whole warm-up, FP-MU must hand out
  // the warm-up within one batch and then operate as MU.
  BatchFixture f(3, 1, 10);
  EngineOptions options;
  options.budget = 9;
  options.omega = 2;
  options.batch_size = 3;
  const PostStore initial = PostStore::FromPosts(f.initial);
  const PostStore future = PostStore::FromPosts(f.future);
  AllocationEngine engine(options, &initial, &f.references);
  HybridFpMuStrategy fpmu;
  VectorPostStream stream(&future);
  auto report = engine.Run(&fpmu, &stream);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().budget_spent, 9);
  // Warm-up gave every resource one task; MU handled the rest.
  for (int64_t x : report.value().allocation) {
    EXPECT_GE(x, 1);
  }
}

// Resource 0 has one future post but gets three of FP-MU's six warm-up
// tasks (omega = 3), and the warm-up ends on the batch's last assignment.
// The two unfilled tasks are FP's: FP hears the exhaustion, and every
// later completion is MU's. MU starts from FP's live members, so the rest
// of the budget goes to resource 1.
TEST(BatchTest, FpmuRoutesUnfilledWarmupTasksToFp) {
  BatchFixture f(2, 0, 10);
  f.future[0].resize(1);
  EngineOptions options;
  options.budget = 8;
  options.omega = 3;
  options.batch_size = 6;
  const PostStore initial = PostStore::FromPosts(f.initial);
  const PostStore future = PostStore::FromPosts(f.future);
  AllocationEngine engine(options, &initial, &f.references);
  HybridFpMuStrategy fpmu;
  VectorPostStream stream(&future);
  auto report = engine.Run(&fpmu, &stream);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().allocation, (std::vector<int64_t>{1, 7}));
  EXPECT_EQ(report.value().budget_spent, 8);
  EXPECT_FALSE(report.value().stopped_early);
}

TEST(BatchTest, LargerBatchesCannotImproveFp) {
  // Staleness is never helpful: FP at batch 16 must not beat FP at
  // batch 1 on the same problem (equal is fine; the fixture is symmetric).
  BatchFixture f1(6, 1, 30);
  BatchFixture f2(6, 1, 30);
  FewestPostsStrategy fp1;
  FewestPostsStrategy fp2;
  RunReport big = RunEngine(&f1, &fp1, 24, 16);
  RunReport small = RunEngine(&f2, &fp2, 24, 1);
  EXPECT_LE(big.final_metrics.avg_quality,
            small.final_metrics.avg_quality + 1e-9);
}

}  // namespace
}  // namespace core
}  // namespace incentag

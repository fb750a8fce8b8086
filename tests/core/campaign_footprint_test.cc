// A running campaign's per-resource heap, per strategy: the runtime's
// 4-byte allocation and exhausted bit plus what the strategy keeps. The
// fleet benchmark runs hundreds of campaigns over one dataset, so these
// bytes times n times the fleet are most of its live heap. The probe
// reads glibc's heap counters around a campaign over a shared trajectory
// table, which the campaign does not own. Each bound is the bytes named
// above it plus one, so a 4-byte field more fails it.
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/campaign_runtime.h"
#include "src/core/initial_state.h"
#include "src/core/strategy_fp.h"
#include "src/core/strategy_fpmu.h"
#include "src/core/strategy_mu.h"
#include "src/core/strategy_rr.h"
#include "tests/testing/test_util.h"

namespace incentag {
namespace core {
namespace {

constexpr size_t kResources = 2000;
constexpr int kOmega = 5;

// 2000 resources with 3 posts each in January (so FP-MU warms up for
// 4000 tasks at omega 5) and 12 future posts.
class CampaignFootprintTest : public ::testing::Test {
 protected:
  void SetUp() override {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "the sanitizer's allocator is not glibc's heap";
#endif
    std::vector<std::vector<Post>> initial(kResources);
    std::vector<std::vector<Post>> future(kResources);
    for (size_t i = 0; i < kResources; ++i) {
      const TagId base = static_cast<TagId>(i % 7);
      for (TagId k = 0; k < 3; ++k) {
        initial[i].push_back(Post::FromTags({base, k}));
      }
      for (TagId k = 0; k < 12; ++k) {
        future[i].push_back(
            Post::FromTags({base, static_cast<TagId>(k % 4)}));
      }
      references_.push_back(ResourceReference{
          RfdVector::FromWeights({{base, 1.0}}), /*stable_point=*/20});
    }
    initial_ = PostStore::FromPosts(initial);
    future_ = PostStore::FromPosts(future);
    table_ = std::make_shared<const InitialState>(&initial_, &future_,
                                                  &references_, kOmega);
    ASSERT_TRUE(table_->BuildFromJanuary().ok());
    // The runtime's process-wide metrics are made on a first completion;
    // make them here, so no probe counts them.
    RoundRobinStrategy rr;
    BytesPerResource(&rr, 1);
  }

  EngineOptions Options(int64_t budget) const {
    EngineOptions options;
    options.budget = budget;
    options.omega = kOmega;
    return options;
  }

  // Heap bytes per resource that a campaign of `strategy` holds after
  // Begin and `tasks` applied tasks (batch size 1).
  double BytesPerResource(Strategy* strategy, int64_t tasks) {
    const VectorPostStream stream(&future_);
    const size_t before = testing::HeapInUse();
    auto runtime = std::make_unique<CampaignRuntime>(Options(tasks + 100),
                                                     &initial_, &references_);
    EXPECT_TRUE(runtime->Begin(strategy, &stream, table_).ok());
    std::vector<ResourceId> batch;
    while (runtime->tasks_completed() < tasks) {
      EXPECT_TRUE(runtime->DrawBatch(&batch).ok());
      if (batch.empty()) break;
      runtime->ApplyCompletionBatch(batch.data(), batch.size());
    }
    // One more draw, so a strategy that switches stages on its next
    // choice has switched.
    EXPECT_TRUE(runtime->DrawBatch(&batch).ok());
    const size_t after = testing::HeapInUse();
    std::printf("%s after %lld tasks: %.2f bytes per resource\n",
                std::string(strategy->name()).c_str(),
                static_cast<long long>(tasks),
                static_cast<double>(after - before) / kResources);
    return static_cast<double>(after - before) / kResources;
  }

  std::vector<ResourceReference> references_;
  PostStore initial_;
  PostStore future_;
  std::shared_ptr<const InitialState> table_;
};

// RR: the allocation, the runtime's exhausted bit and RR's own.
TEST_F(CampaignFootprintTest, RoundRobin) {
  RoundRobinStrategy rr;
  EXPECT_LE(BytesPerResource(&rr, 0), 5.0);
}

// FP: the allocation, a 16-byte heap entry and a 4-byte pending count.
TEST_F(CampaignFootprintTest, FewestPosts) {
  FewestPostsStrategy fp;
  EXPECT_LE(BytesPerResource(&fp, 0), 25.0);
}

// MU: the allocation and a 16-byte heap entry.
TEST_F(CampaignFootprintTest, MostUnstable) {
  MostUnstableStrategy mu;
  EXPECT_LE(BytesPerResource(&mu, 0), 21.0);
}

// FP-MU holds FP during its warm-up, and MU plus FP's membership bits
// once the 4000-task warm-up has landed.
TEST_F(CampaignFootprintTest, HybridFpMuFreesFpAfterItsWarmup) {
  HybridFpMuStrategy warming;
  EXPECT_LE(BytesPerResource(&warming, 0), 25.0);
  HybridFpMuStrategy switched;
  EXPECT_LE(BytesPerResource(&switched, 4000), 21.0);
  EXPECT_TRUE(switched.fp_freed());
}

}  // namespace
}  // namespace core
}  // namespace incentag

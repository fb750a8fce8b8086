// Ablation (DESIGN.md §2.2): O(1) MA maintenance vs evaluating
// Definition 7 from scratch at every post.
//
// MaTracker keeps a ring buffer of the last omega-1 adjacent similarities;
// the naive alternative recomputes the mean of a window whose members each
// require rebuilding two rfd prefixes. The paper's Appendix C derives the
// same contrast analytically for MU's update step.
#include <benchmark/benchmark.h>

#include "src/core/ma_tracker.h"
#include "src/core/rfd.h"
#include "src/core/types.h"
#include "src/util/random.h"
#include "tests/testing/test_util.h"

namespace {

using incentag::core::MaTracker;
using incentag::core::Post;
using incentag::core::TagCounts;

void BM_MaTrackerIncremental(benchmark::State& state) {
  const int omega = static_cast<int>(state.range(0));
  incentag::util::Rng rng(42);
  const std::vector<Post> posts =
      incentag::testing::ConvergingSequence(&rng, 256, 32);
  for (auto _ : state) {
    TagCounts counts;
    MaTracker ma(omega);
    double acc = 0.0;
    for (const Post& post : posts) {
      ma.AddAdjacentSimilarity(counts.AddPost(post));
      if (ma.HasScore()) acc += ma.Score();
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(posts.size()));
}
BENCHMARK(BM_MaTrackerIncremental)->Arg(5)->Arg(20)->Arg(50);

void BM_MaNaiveDefinition(benchmark::State& state) {
  const int omega = static_cast<int>(state.range(0));
  incentag::util::Rng rng(42);
  const std::vector<Post> posts =
      incentag::testing::ConvergingSequence(&rng, 256, 32);
  for (auto _ : state) {
    double acc = 0.0;
    for (int64_t k = omega; k <= static_cast<int64_t>(posts.size()); ++k) {
      acc += incentag::testing::NaiveMaScore(posts, k, omega);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(posts.size()));
}
BENCHMARK(BM_MaNaiveDefinition)->Arg(5)->Arg(20);

}  // namespace

BENCHMARK_MAIN();

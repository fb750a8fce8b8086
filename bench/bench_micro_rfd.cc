// Ablation (DESIGN.md §2.1): incremental adjacent similarity vs naive
// recomputation, and sparse cosine cost.
//
// TagCounts::AddPost maintains ||h||^2 and the dot-product delta so the
// adjacent similarity s(F(k-1), F(k)) costs O(|post|); the naive
// alternative rebuilds both rfds and takes O(distinct tags) per post. The
// gap is the Appendix-C complexity argument made measurable.
#include <benchmark/benchmark.h>

#include "src/core/rfd.h"
#include "src/core/types.h"
#include "src/util/random.h"
#include "tests/testing/test_util.h"

namespace {

using incentag::core::Cosine;
using incentag::core::Post;
using incentag::core::TagCounts;

std::vector<Post> MakeSequence(int posts, uint32_t universe) {
  incentag::util::Rng rng(42);
  return incentag::testing::ConvergingSequence(&rng, posts, universe);
}

void BM_AddPostIncremental(benchmark::State& state) {
  const std::vector<Post> posts =
      MakeSequence(512, static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    TagCounts counts;
    double acc = 0.0;
    for (const Post& post : posts) acc += counts.AddPost(post);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(posts.size()));
}
BENCHMARK(BM_AddPostIncremental)->Arg(16)->Arg(64)->Arg(256);

void BM_AddPostNaiveAdjacent(benchmark::State& state) {
  const std::vector<Post> posts =
      MakeSequence(512, static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    TagCounts previous;
    TagCounts current;
    double acc = 0.0;
    for (const Post& post : posts) {
      current.AddPost(post);
      // Naive: full sparse cosine between consecutive snapshots.
      acc += Cosine(previous, current);
      previous.AddPost(post);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(posts.size()));
}
BENCHMARK(BM_AddPostNaiveAdjacent)->Arg(16)->Arg(64)->Arg(256);

void BM_CosineTagCounts(benchmark::State& state) {
  const std::vector<Post> a = MakeSequence(256, 64);
  const std::vector<Post> b = MakeSequence(256, 64);
  TagCounts ca;
  TagCounts cb;
  for (const Post& post : a) ca.AddPost(post);
  for (const Post& post : b) cb.AddPost(post);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Cosine(ca, cb));
  }
}
BENCHMARK(BM_CosineTagCounts);

void BM_CosineRfdVectors(benchmark::State& state) {
  const std::vector<Post> a = MakeSequence(256, 64);
  const std::vector<Post> b = MakeSequence(256, 64);
  TagCounts ca;
  TagCounts cb;
  for (const Post& post : a) ca.AddPost(post);
  for (const Post& post : b) cb.AddPost(post);
  const incentag::core::RfdVector va = ca.Snapshot();
  const incentag::core::RfdVector vb = cb.Snapshot();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Cosine(va, vb));
  }
}
BENCHMARK(BM_CosineRfdVectors);

}  // namespace

BENCHMARK_MAIN();

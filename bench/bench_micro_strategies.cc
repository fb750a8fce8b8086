// Table V, empirically: per-post-task decision cost of each practical
// strategy as n grows.
//
// RR and FC are O(1) per task; FP and MU are O(log n) (heap) with MU
// adding the O(|post|) incremental MA update. The absolute numbers differ
// from the paper's 2013 hardware, but the relative ordering and scaling
// must match Table V.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "src/core/resource_state.h"
#include "src/core/strategy.h"
#include "src/core/strategy_fc.h"
#include "src/core/strategy_fp.h"
#include "src/core/strategy_fpmu.h"
#include "src/core/strategy_mu.h"
#include "src/core/strategy_rr.h"
#include "src/core/types.h"
#include "src/util/random.h"
#include "tests/testing/test_util.h"

namespace {

using namespace incentag;

struct World {
  std::vector<core::ResourceState> states;
  core::ResourceStateViews views{&states};
  core::StrategyContext ctx;
  std::vector<core::Post> posts;  // recycled post supply
  size_t next_post = 0;

  explicit World(size_t n, int omega) {
    util::Rng rng(13);
    states.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      states.emplace_back(omega);
      // Everyone starts above omega posts so MU sees the full set.
      for (int k = 0; k < omega + 2; ++k) {
        states.back().AddPost(testing::RandomPost(&rng, 64));
      }
    }
    posts = testing::RandomSequence(&rng, 512, 64);
    ctx.views = &views;
    ctx.omega = omega;
  }

  const core::Post& NextPost() {
    const core::Post& post = posts[next_post];
    next_post = (next_post + 1) % posts.size();
    return post;
  }
};

void RunDecisionLoop(benchmark::State& state, core::Strategy* strategy,
                     World* world) {
  strategy->Init(world->ctx);
  int64_t tasks = 0;
  for (auto _ : state) {
    core::ResourceId chosen = strategy->Choose();
    strategy->OnAssigned(chosen);
    world->states[chosen].AddPost(world->NextPost());
    strategy->Update(chosen);
    ++tasks;
  }
  state.SetItemsProcessed(tasks);
}

void BM_StrategyRR(benchmark::State& state) {
  World world(static_cast<size_t>(state.range(0)), 5);
  core::RoundRobinStrategy rr;
  RunDecisionLoop(state, &rr, &world);
}
BENCHMARK(BM_StrategyRR)->Arg(1000)->Arg(10000);

void BM_StrategyFC(benchmark::State& state) {
  World world(static_cast<size_t>(state.range(0)), 5);
  util::Rng rng(3);
  const size_t n = world.states.size();
  core::FreeChoiceStrategy fc([&rng, n] {
    return static_cast<core::ResourceId>(rng.NextBounded(n));
  });
  RunDecisionLoop(state, &fc, &world);
}
BENCHMARK(BM_StrategyFC)->Arg(1000)->Arg(10000);

void BM_StrategyFP(benchmark::State& state) {
  World world(static_cast<size_t>(state.range(0)), 5);
  core::FewestPostsStrategy fp;
  RunDecisionLoop(state, &fp, &world);
}
BENCHMARK(BM_StrategyFP)->Arg(1000)->Arg(10000);

void BM_StrategyMU(benchmark::State& state) {
  World world(static_cast<size_t>(state.range(0)), 5);
  core::MostUnstableStrategy mu;
  RunDecisionLoop(state, &mu, &world);
}
BENCHMARK(BM_StrategyMU)->Arg(1000)->Arg(10000);

void BM_StrategyFPMU(benchmark::State& state) {
  World world(static_cast<size_t>(state.range(0)), 5);
  core::HybridFpMuStrategy fpmu;
  RunDecisionLoop(state, &fpmu, &world);
}
BENCHMARK(BM_StrategyFPMU)->Arg(1000)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();

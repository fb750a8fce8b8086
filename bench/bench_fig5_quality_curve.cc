// Figure 5: tagging quality vs number of posts, motivating Fewest Posts
// First.
//
// The paper picks two resources, r_i with 10 posts and r_j with 50, and
// shows that spending a 10-task budget on the little-tagged r_i yields a
// much larger quality improvement than spending it on r_j. Individual
// quality curves are noisy (a post can pull the rfd away from the stable
// reference), so this bench averages q(k) over many resources — the same
// smooth concave curve the paper sketches — and reports the two deltas.
#include <cstdio>
#include <vector>

#include "bench/common/bench_common.h"
#include "src/core/quality.h"
#include "src/util/flags.h"
#include "src/util/logging.h"

int main(int argc, char** argv) {
  using namespace incentag;

  // Post counts are scaled to this corpus' stable points (median ~34 vs
  // the paper's 112): few/many = 5/20 corresponds to the paper's 10/50.
  int64_t n = 300;
  int64_t seed = 42;
  int64_t few_posts = 5;
  int64_t many_posts = 20;
  int64_t extra = 8;
  util::FlagSet flags;
  flags.AddInt("n", &n, "resources to generate");
  flags.AddInt("seed", &seed, "corpus seed");
  flags.AddInt("few", &few_posts, "post count of the under-tagged resource");
  flags.AddInt("many", &many_posts, "post count of the well-tagged resource");
  flags.AddInt("extra", &extra, "budget to invest in either resource");
  INCENTAG_CHECK(flags.Parse(argc, argv).ok());

  auto bench_ds = bench::MakeDataset(n, static_cast<uint64_t>(seed));
  const sim::PreparedDataset& ds = bench_ds->dataset;
  const sim::Corpus& corpus = *bench_ds->corpus;

  const int64_t horizon = many_posts + extra;
  std::vector<double> mean_q(static_cast<size_t>(horizon) + 1, 0.0);
  int64_t used = 0;
  for (size_t i = 0; i < ds.size() && used < 60; ++i) {
    if (ds.year_length[i] < horizon + 10) continue;
    if (corpus.resource(ds.source_ids[i]).two_aspect) continue;
    const std::vector<core::Post> year =
        corpus.MaterializeSequence(ds.source_ids[i], horizon);
    core::TagCounts counts;
    core::QualityTracker tracker(&ds.references[i].stable_rfd);
    for (int64_t k = 1; k <= horizon; ++k) {
      counts.AddPost(year[static_cast<size_t>(k - 1)]);
      tracker.AddPost(year[static_cast<size_t>(k - 1)],
                      counts.norm_squared());
      mean_q[static_cast<size_t>(k)] += tracker.Quality();
    }
    ++used;
  }
  INCENTAG_CHECK(used > 0);
  for (double& q : mean_q) q /= static_cast<double>(used);

  std::printf("Figure 5: mean tagging quality vs #posts over %lld "
              "resources\n",
              static_cast<long long>(used));
  std::printf("%6s  %10s\n", "posts", "quality");
  for (int64_t k = 1; k <= horizon; ++k) {
    if (k % 5 == 0 || k == 1) {
      std::printf("%6lld  %10.4f\n", static_cast<long long>(k),
                  mean_q[static_cast<size_t>(k)]);
    }
  }

  const double gain_few = mean_q[static_cast<size_t>(few_posts + extra)] -
                          mean_q[static_cast<size_t>(few_posts)];
  const double gain_many = mean_q[static_cast<size_t>(many_posts + extra)] -
                           mean_q[static_cast<size_t>(many_posts)];
  std::printf("\ninvesting %lld tasks:\n", static_cast<long long>(extra));
  std::printf("  r_i at %2lld posts: quality %.4f -> %.4f  (gain %+.4f)\n",
              static_cast<long long>(few_posts),
              mean_q[static_cast<size_t>(few_posts)],
              mean_q[static_cast<size_t>(few_posts + extra)], gain_few);
  std::printf("  r_j at %2lld posts: quality %.4f -> %.4f  (gain %+.4f)\n",
              static_cast<long long>(many_posts),
              mean_q[static_cast<size_t>(many_posts)],
              mean_q[static_cast<size_t>(many_posts + extra)], gain_many);
  if (gain_many > 0.0) {
    std::printf("\nthe under-tagged resource gains %.1fx more (paper: "
                "\"much greater quality improvement\")\n",
                gain_few / gain_many);
  } else {
    std::printf("\nthe well-tagged resource gains nothing at all, the "
                "under-tagged one %+.4f (paper: \"much greater quality "
                "improvement\")\n",
                gain_few);
  }
  return 0;
}

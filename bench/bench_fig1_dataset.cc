// Figure 1 + Section I statistics: corpus-level properties.
//
//  (a) relative frequencies of a popular resource's leading tags as its
//      post count grows — they start noisy, converge, then flatten;
//  (b) the posts-per-resource distribution (log-log power law);
//  (-) the headline statistics: share of over-tagged resources at the
//      January cut, share of the year's posts they absorb ("wasted"), the
//      under-tagged share, and the stable-point distribution.
//
// Paper reference values (del.icio.us 2007, 5,000 URLs): stable points
// 50-200 (avg 112), unstable point ~10; 7% over-tagged receiving 48% of
// all posts; ~25% under-tagged.
#include <algorithm>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "bench/common/bench_common.h"
#include "src/core/rfd.h"
#include "src/util/flags.h"
#include "src/util/logging.h"
#include "src/util/stats.h"

int main(int argc, char** argv) {
  using namespace incentag;

  int64_t n = 600;
  int64_t seed = 42;
  std::string subject_url = "espn.example";
  util::FlagSet flags;
  flags.AddInt("n", &n, "resources to generate");
  flags.AddInt("seed", &seed, "corpus seed");
  flags.AddString("subject", &subject_url, "resource for Figure 1(a)");
  INCENTAG_CHECK(flags.Parse(argc, argv).ok());

  auto bench_ds = bench::MakeDataset(n, static_cast<uint64_t>(seed));
  const sim::Corpus& corpus = *bench_ds->corpus;
  const sim::PreparedDataset& ds = bench_ds->dataset;
  std::printf("corpus: %lld resources generated, %zu kept after the "
              "stability filter\n",
              static_cast<long long>(n), ds.size());

  // ---------------------------------------------------------- Fig 1(a) --
  auto subject = corpus.FindUrl(subject_url);
  INCENTAG_CHECK(subject.ok());
  const sim::ResourceInfo& info = corpus.resource(subject.value());
  const int64_t trace_len = std::min<int64_t>(info.year_length, 500);

  // Leading tags = the 5 heaviest tags of the converged distribution.
  sim::TagDistribution heavy = corpus.Distribution(subject.value());
  std::sort(heavy.begin(), heavy.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  heavy.resize(std::min<size_t>(heavy.size(), 5));

  std::printf("\nFigure 1(a): relative tag frequencies of %s vs #posts\n",
              info.url.c_str());
  std::printf("%6s", "posts");
  for (const auto& [tag, w] : heavy) {
    const std::string_view name = corpus.vocab().Name(tag);
    std::printf("  %14.*s", static_cast<int>(name.size()), name.data());
  }
  std::printf("\n");
  core::TagCounts counts;
  for (int64_t k = 1; k <= trace_len; ++k) {
    counts.AddPost(corpus.SamplePost(subject.value(), k - 1));
    if (k % 25 == 0 || k == 1 || k == 5 || k == 10) {
      std::printf("%6lld", static_cast<long long>(k));
      for (const auto& [tag, w] : heavy) {
        std::printf("  %14.4f", counts.RelativeFrequency(tag));
      }
      std::printf("\n");
    }
  }

  // ---------------------------------------------------------- Fig 1(b) --
  std::printf("\nFigure 1(b): posts-per-resource distribution "
              "(log buckets)\n");
  util::LogHistogram histogram;
  for (core::ResourceId i = 0; i < corpus.num_resources(); ++i) {
    histogram.Add(static_cast<uint64_t>(corpus.resource(i).year_length));
  }
  std::printf("%s", histogram.ToString().c_str());

  // ------------------------------------------------- Section I numbers --
  std::vector<double> stable_points;
  int64_t over_tagged = 0;
  int64_t under_tagged = 0;
  int64_t posts_to_over_tagged = 0;
  int64_t total_posts = 0;
  for (size_t i = 0; i < ds.size(); ++i) {
    const int64_t jan = static_cast<int64_t>(ds.initial_posts[i].size());
    const int64_t year = ds.year_length[i];
    const int64_t k_star = ds.references[i].stable_point;
    stable_points.push_back(static_cast<double>(k_star));
    if (jan >= k_star) ++over_tagged;
    if (jan <= 10) ++under_tagged;
    total_posts += year;
    // Posts of the year beyond the stable point improve nothing.
    posts_to_over_tagged += std::max<int64_t>(0, year - k_star);
  }
  const double nd = static_cast<double>(ds.size());
  std::printf("\nSection I statistics (paper: 7%% over-tagged / 48%% of "
              "posts wasted / 25%% under-tagged / stable point avg 112):\n");
  std::printf("  over-tagged at the cut:      %5.1f%%\n",
              100.0 * static_cast<double>(over_tagged) / nd);
  std::printf("  under-tagged at the cut:     %5.1f%%\n",
              100.0 * static_cast<double>(under_tagged) / nd);
  std::printf("  year posts past stability:   %5.1f%%\n",
              100.0 * static_cast<double>(posts_to_over_tagged) /
                  static_cast<double>(total_posts));
  util::RunningStats sp_stats;
  for (double sp : stable_points) sp_stats.Add(sp);
  std::printf("  stable points: mean %.0f  p25 %.0f  median %.0f  p75 %.0f "
              " max %.0f\n",
              sp_stats.mean(), util::Percentile(stable_points, 25),
              util::Percentile(stable_points, 50),
              util::Percentile(stable_points, 75), sp_stats.max());
  return 0;
}

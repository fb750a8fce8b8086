// Similarity search case study — the scenario behind the paper's Table VI.
//
// The subject page www.myphysicslab.example has two aspects (physics
// simulations, implemented in Java) and its early posts over-represent the
// Java aspect. With only the January posts, a tag-based top-10 query
// returns the wrong neighbourhood. This example shows the top-10 list
// under four snapshots:
//
//   Jan-cut   : initial posts only
//   FC        : after a campaign run by Free Choice
//   FP        : after the same budget under Fewest Posts First
//   Year-end  : every post of the year (the "ideal" reference)
//
//   ./build/examples/similarity_search --budget=4000
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/allocation.h"
#include "src/core/strategy_fc.h"
#include "src/core/strategy_fp.h"
#include "src/ir/similarity.h"
#include "src/ir/topk.h"
#include "src/sim/crowd.h"
#include "src/sim/dataset_prep.h"
#include "src/sim/generator.h"
#include "src/util/flags.h"

namespace {

using incentag::core::RfdVector;
using incentag::ir::ScoredResource;

// Post counts after a strategy run: initial + allocation.
std::vector<int64_t> CountsAfter(
    const incentag::sim::PreparedDataset& ds,
    const std::vector<int64_t>& allocation) {
  std::vector<int64_t> counts(ds.size());
  for (size_t i = 0; i < ds.size(); ++i) {
    counts[i] = static_cast<int64_t>(ds.initial_posts[i].size()) +
                (allocation.empty() ? 0 : allocation[i]);
  }
  return counts;
}

void PrintTopK(const char* label, const std::vector<ScoredResource>& top,
               const incentag::sim::PreparedDataset& ds,
               const incentag::sim::Corpus& corpus) {
  std::printf("\n--- %s ---\n", label);
  for (size_t r = 0; r < top.size(); ++r) {
    const auto& info = corpus.resource(ds.source_ids[top[r].id]);
    std::printf("%2zu. %-34s  [%s]  sim=%.3f\n", r + 1,
                ds.urls[top[r].id].c_str(),
                corpus.hierarchy().category(info.primary).short_name.c_str(),
                top[r].similarity);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace incentag;

  int64_t n = 500;
  int64_t budget = 4000;
  int64_t seed = 42;
  std::string subject_url = "www.myphysicslab.example";
  util::FlagSet flags;
  flags.AddInt("n", &n, "number of resources");
  flags.AddInt("budget", &budget, "post tasks per campaign");
  flags.AddInt("seed", &seed, "corpus seed");
  flags.AddString("subject", &subject_url, "subject page url");
  util::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\nusage:\n%s", parsed.ToString().c_str(),
                 flags.Usage().c_str());
    return 1;
  }

  sim::CorpusConfig corpus_config;
  corpus_config.num_resources = n;
  corpus_config.seed = static_cast<uint64_t>(seed);
  auto corpus = sim::Corpus::Generate(corpus_config);
  if (!corpus.ok()) {
    std::fprintf(stderr, "corpus: %s\n", corpus.status().ToString().c_str());
    return 1;
  }
  auto dataset = sim::PrepareFromCorpus(corpus.value(), sim::PrepConfig{});
  if (!dataset.ok()) {
    std::fprintf(stderr, "prep: %s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const sim::PreparedDataset& ds = dataset.value();

  // Locate the subject within the prepared dataset.
  size_t subject = ds.size();
  for (size_t i = 0; i < ds.size(); ++i) {
    if (ds.urls[i] == subject_url) subject = i;
  }
  if (subject == ds.size()) {
    std::fprintf(stderr,
                 "subject %s did not survive dataset preparation; try "
                 "another seed\n",
                 subject_url.c_str());
    return 1;
  }
  std::printf("subject: %s (%zu resources, budget %lld)\n",
              subject_url.c_str(), ds.size(),
              static_cast<long long>(budget));

  // Year sequences (initial + future) for building rfd snapshots.
  core::PostStore::Builder year_builder;
  for (size_t i = 0; i < ds.size(); ++i) {
    year_builder.AddPosts(ds.initial_posts[i]);
    year_builder.AddPosts(ds.future_posts[i]);
    year_builder.EndResource();
  }
  const core::PostStore year = std::move(year_builder).Build();

  core::EngineOptions options;
  options.budget = budget;
  core::AllocationEngine engine(options, &ds.initial_posts, &ds.references);

  sim::CrowdModel crowd(ds.popularity, 1.0, 99);
  core::FreeChoiceStrategy fc(crowd.MakePicker());
  core::VectorPostStream fc_stream = ds.MakeStream();
  auto fc_report = engine.Run(&fc, &fc_stream);
  core::FewestPostsStrategy fp;
  core::VectorPostStream fp_stream = ds.MakeStream();
  auto fp_report = engine.Run(&fp, &fp_stream);
  if (!fc_report.ok() || !fp_report.ok()) {
    std::fprintf(stderr, "campaign failed\n");
    return 1;
  }

  const auto subject_id = static_cast<core::ResourceId>(subject);
  const size_t k = 10;

  std::vector<RfdVector> jan = ir::BuildRfds(year, CountsAfter(ds, {}));
  std::vector<RfdVector> after_fc =
      ir::BuildRfds(year, CountsAfter(ds, fc_report.value().allocation));
  std::vector<RfdVector> after_fp =
      ir::BuildRfds(year, CountsAfter(ds, fp_report.value().allocation));
  std::vector<RfdVector> ideal = ir::BuildRfds(year);

  auto jan_top = ir::TopKSimilar(jan, subject_id, k);
  auto fc_top = ir::TopKSimilar(after_fc, subject_id, k);
  auto fp_top = ir::TopKSimilar(after_fp, subject_id, k);
  auto ideal_top = ir::TopKSimilar(ideal, subject_id, k);

  PrintTopK("January cut (before any campaign)", jan_top, ds,
            corpus.value());
  PrintTopK("After FC campaign", fc_top, ds, corpus.value());
  PrintTopK("After FP campaign", fp_top, ds, corpus.value());
  PrintTopK("Year end (ideal)", ideal_top, ds, corpus.value());

  std::printf("\noverlap with the ideal top-%zu:  Jan=%zu  FC=%zu  FP=%zu\n",
              k, ir::OverlapCount(jan_top, ideal_top),
              ir::OverlapCount(fc_top, ideal_top),
              ir::OverlapCount(fp_top, ideal_top));
  return 0;
}

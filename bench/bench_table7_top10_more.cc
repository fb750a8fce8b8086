// Table VII: category composition of the top-10 lists for more subject
// pages.
//
// Paper result (per subject, as "count x category" summaries):
//   dvdvideosoft  (video editing): Jan-31 all video *sharing*; FP matches
//                 the ideal 9-editing/1-sharing mix closely; FC does not.
//   slashup       (photo editing vs sharing): same pattern.
//   bdonline      (architecture vs news): same pattern.
//   espn          (sports, hugely popular): every snapshot is perfect —
//                 popular pages never needed incentives.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/common/bench_common.h"
#include "src/ir/similarity.h"
#include "src/ir/topk.h"
#include "src/util/flags.h"
#include "src/util/logging.h"

namespace {

using incentag::bench::BenchDataset;

// "9 video-editing, 1 video-sharing" style summary of a top-k list.
std::string Composition(
    const std::vector<incentag::ir::ScoredResource>& top,
    const BenchDataset& bench_ds) {
  std::map<std::string, int> counts;
  for (const auto& scored : top) {
    const auto& info = bench_ds.corpus->resource(
        bench_ds.dataset.source_ids[scored.id]);
    ++counts[bench_ds.corpus->hierarchy()
                 .category(info.primary)
                 .short_name];
  }
  // Sort by count descending for readability.
  std::vector<std::pair<int, std::string>> ordered;
  for (const auto& [name, count] : counts) ordered.emplace_back(count, name);
  std::sort(ordered.rbegin(), ordered.rend());
  std::string out;
  for (const auto& [count, name] : ordered) {
    if (!out.empty()) out += ", ";
    out += std::to_string(count) + " " + name;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace incentag;

  int64_t n = 400;
  int64_t seed = 42;
  int64_t budget = 3000;
  int64_t k = 10;
  util::FlagSet flags;
  flags.AddInt("n", &n, "resources to generate");
  flags.AddInt("seed", &seed, "corpus seed");
  flags.AddInt("budget", &budget, "campaign budget");
  flags.AddInt("k", &k, "top-k size");
  INCENTAG_CHECK(flags.Parse(argc, argv).ok());

  auto bench_ds = bench::MakeDataset(n, static_cast<uint64_t>(seed));
  const sim::PreparedDataset& ds = bench_ds->dataset;
  std::printf("Table VII: top-%lld composition for more subject pages "
              "(budget %lld, %zu resources)\n",
              static_cast<long long>(k), static_cast<long long>(budget),
              ds.size());

  sim::CrowdModel crowd(ds.popularity, 1.0, 99);
  auto fc = bench::MakeStrategy("FC", &crowd);
  auto fp = bench::MakeStrategy("FP", nullptr);
  core::RunReport fc_report =
      bench::RunAtBudget(*bench_ds, fc.get(), budget, 5);
  core::RunReport fp_report =
      bench::RunAtBudget(*bench_ds, fp.get(), budget, 5);

  const core::PostStore year = bench::BuildYearSequences(ds);
  std::vector<core::RfdVector> jan_rfds =
      ir::BuildRfds(year, bench::CountsAfter(ds, {}));
  std::vector<core::RfdVector> fc_rfds =
      ir::BuildRfds(year, bench::CountsAfter(ds, fc_report.allocation));
  std::vector<core::RfdVector> fp_rfds =
      ir::BuildRfds(year, bench::CountsAfter(ds, fp_report.allocation));
  std::vector<core::RfdVector> ideal_rfds = ir::BuildRfds(year);

  const char* subjects[] = {"dvdvideosoft.example", "slashup.example",
                            "bdonline.example", "espn.example"};
  for (const char* url : subjects) {
    size_t subject = ds.size();
    for (size_t i = 0; i < ds.size(); ++i) {
      if (ds.urls[i] == url) subject = i;
    }
    if (subject == ds.size()) {
      std::printf("\n%s: not in the prepared dataset (seed-dependent)\n",
                  url);
      continue;
    }
    const auto id = static_cast<core::ResourceId>(subject);
    const size_t kk = static_cast<size_t>(k);
    std::printf("\n%s\n", url);
    std::printf("  Jan 31 : %s\n",
                Composition(ir::TopKSimilar(jan_rfds, id, kk), *bench_ds)
                    .c_str());
    std::printf("  FC     : %s\n",
                Composition(ir::TopKSimilar(fc_rfds, id, kk), *bench_ds)
                    .c_str());
    std::printf("  FP     : %s\n",
                Composition(ir::TopKSimilar(fp_rfds, id, kk), *bench_ds)
                    .c_str());
    std::printf("  Dec 31 : %s\n",
                Composition(ir::TopKSimilar(ideal_rfds, id, kk), *bench_ds)
                    .c_str());
  }
  std::printf("\nexpected: FP's composition matches Dec-31 for the "
              "two-aspect pages; espn is perfect everywhere "
              "(paper Table VII)\n");
  return 0;
}

// Table VI: top-10 most-similar pages for the two-aspect subject
// www.myphysicslab.example under four rfd snapshots.
//
// Paper result: the January list is entirely about the wrong aspect
// (Java); FC (budget 10,000) barely fixes it (4/10 physics); FP recovers
// 9/10 of the ideal year-end list, which is all physics.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common/bench_common.h"
#include "src/ir/similarity.h"
#include "src/ir/topk.h"
#include "src/util/flags.h"
#include "src/util/logging.h"

namespace {

void PrintColumn(const char* label,
                 const std::vector<incentag::ir::ScoredResource>& top,
                 const incentag::bench::BenchDataset& bench_ds) {
  const auto& ds = bench_ds.dataset;
  std::printf("\n--- %s ---\n", label);
  for (size_t r = 0; r < top.size(); ++r) {
    const auto& info = bench_ds.corpus->resource(ds.source_ids[top[r].id]);
    std::printf("%2zu. %-34s [%s]\n", r + 1, ds.urls[top[r].id].c_str(),
                bench_ds.corpus->hierarchy()
                    .category(info.primary)
                    .short_name.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace incentag;

  int64_t n = 400;
  int64_t seed = 42;
  int64_t budget = 3000;
  int64_t k = 10;
  std::string subject_url = "www.myphysicslab.example";
  util::FlagSet flags;
  flags.AddInt("n", &n, "resources to generate");
  flags.AddInt("seed", &seed, "corpus seed");
  flags.AddInt("budget", &budget, "campaign budget");
  flags.AddInt("k", &k, "top-k size");
  flags.AddString("subject", &subject_url, "subject page url");
  INCENTAG_CHECK(flags.Parse(argc, argv).ok());

  auto bench_ds = bench::MakeDataset(n, static_cast<uint64_t>(seed));
  const sim::PreparedDataset& ds = bench_ds->dataset;
  size_t subject = ds.size();
  for (size_t i = 0; i < ds.size(); ++i) {
    if (ds.urls[i] == subject_url) subject = i;
  }
  INCENTAG_CHECK(subject < ds.size());
  std::printf("Table VI: top-%lld results of %s (budget %lld, "
              "%zu resources)\n",
              static_cast<long long>(k), subject_url.c_str(),
              static_cast<long long>(budget), ds.size());

  sim::CrowdModel crowd(ds.popularity, 1.0, 99);
  auto fc = bench::MakeStrategy("FC", &crowd);
  auto fp = bench::MakeStrategy("FP", nullptr);
  core::RunReport fc_report =
      bench::RunAtBudget(*bench_ds, fc.get(), budget, 5);
  core::RunReport fp_report =
      bench::RunAtBudget(*bench_ds, fp.get(), budget, 5);

  const core::PostStore year = bench::BuildYearSequences(ds);
  const auto subject_id = static_cast<core::ResourceId>(subject);
  auto top_at = [&](const std::vector<int64_t>& allocation) {
    std::vector<core::RfdVector> rfds =
        ir::BuildRfds(year, bench::CountsAfter(ds, allocation));
    return ir::TopKSimilar(rfds, subject_id, static_cast<size_t>(k));
  };

  auto jan_top = top_at({});
  auto fc_top = top_at(fc_report.allocation);
  auto fp_top = top_at(fp_report.allocation);
  std::vector<core::RfdVector> ideal_rfds = ir::BuildRfds(year);
  auto ideal_top =
      ir::TopKSimilar(ideal_rfds, subject_id, static_cast<size_t>(k));

  PrintColumn("Jan 31 (initial posts only)", jan_top, *bench_ds);
  PrintColumn("FC (after the campaign)", fc_top, *bench_ds);
  PrintColumn("FP (after the campaign)", fp_top, *bench_ds);
  PrintColumn("Dec 31 (ideal, all posts)", ideal_top, *bench_ds);

  std::printf("\noverlap with the ideal list:  Jan=%zu/%lld  FC=%zu/%lld  "
              "FP=%zu/%lld   (paper: FP gets 9/10, FC 4/10)\n",
              ir::OverlapCount(jan_top, ideal_top),
              static_cast<long long>(k),
              ir::OverlapCount(fc_top, ideal_top),
              static_cast<long long>(k),
              ir::OverlapCount(fp_top, ideal_top),
              static_cast<long long>(k));
  return 0;
}

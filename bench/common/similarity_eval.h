// Ranking-accuracy evaluation for the Figure 7 benches.
//
// Mirrors the paper's Section V-C.2 setup: rank all resource pairs by the
// cosine similarity of their rfds and compare against a ground-truth
// ranking with Kendall's tau. The ground truth is the topic hierarchy
// (standing in for the Open Directory Project): pair similarity = Wu-Palmer
// proximity of the resources' primary categories.
#ifndef INCENTAG_BENCH_COMMON_SIMILARITY_EVAL_H_
#define INCENTAG_BENCH_COMMON_SIMILARITY_EVAL_H_

#include <cstdint>
#include <vector>

#include "bench/common/bench_common.h"
#include "src/core/post_store.h"

namespace incentag {
namespace bench {

class SimilarityEvaluator {
 public:
  // Materialises the year sequences and the ground-truth pair ranking.
  explicit SimilarityEvaluator(const BenchDataset& bench_ds);

  // Kendall tau-b between the cosine-similarity ranking of all resource
  // pairs (rfds built from the first initial+allocation[i] posts) and the
  // ground truth. Empty allocation = the January state.
  double RankingAccuracy(const std::vector<int64_t>& allocation) const;

  const core::PostStore& year_sequences() const { return year_; }

 private:
  const BenchDataset& bench_ds_;
  core::PostStore year_;
  std::vector<double> ground_truth_;  // per pair (i < j), row-major
};

}  // namespace bench
}  // namespace incentag

#endif  // INCENTAG_BENCH_COMMON_SIMILARITY_EVAL_H_

// A paper-literal reference for whole campaigns: Algorithm 1 with the RR,
// FP, MU and FP-MU strategies at batch size 1 and unit reward, written
// from the paper's text as the strategy headers quote it
// (src/core/strategy_{rr,fp,mu,fpmu}.h) and from the definitions of
// src/core/{rfd,ma_tracker,quality,allocation}.h.
//
// Its only state is the list of reward units spent so far: every post
// count, MA score and quality is recomputed from the resource's post
// prefix when it is needed, by O(n) scans over the resources, with
// std::map tag counts. There is no trajectory table, heap
// or view, so the reference shares no code path with the engine it
// checks. It is slow on purpose; keep its inputs small.
//
// Tie-break rule ("smallest id wins"): the paper leaves ties open. Every
// strategy here takes the least key, and among equal keys the smallest
// resource id.
//
// Posts run out in a prepared dataset (the paper's crowd never does): a
// resource whose future posts are all used up is no longer a candidate
// for any strategy, and a run with no candidate stops early.
#ifndef INCENTAG_TESTS_TESTING_PAPER_REFERENCE_H_
#define INCENTAG_TESTS_TESTING_PAPER_REFERENCE_H_

#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "src/core/allocation.h"
#include "src/core/types.h"
#include "tests/testing/test_util.h"

namespace incentag {
namespace testing {

enum class PaperStrategy { kRR, kFP, kMU, kFPMU };

struct PaperRun {
  // The resource each reward unit went to, in spending order.
  std::vector<core::ResourceId> choices;
  std::vector<int64_t> allocation;  // x_i
  core::AllocationMetrics final_metrics;
  bool stopped_early = false;
};

class PaperReference {
 public:
  PaperReference(const core::PostStore& initial,
                 const core::PostStore& future,
                 const std::vector<core::ResourceReference>& references,
                 int omega, int64_t under_tagged_threshold)
      : initial_(initial),
        future_(future),
        references_(references),
        omega_(omega),
        under_tagged_threshold_(under_tagged_threshold) {}

  // Algorithm 1: while budget remains, CHOOSE a resource and give it the
  // next post of its sequence.
  PaperRun Run(PaperStrategy strategy, int64_t budget) const {
    PaperRun run;
    run.allocation.assign(initial_.size(), 0);
    while (static_cast<int64_t>(run.choices.size()) < budget) {
      const std::optional<core::ResourceId> chosen =
          Choose(strategy, run.allocation, run.choices);
      if (!chosen.has_value()) {
        run.stopped_early = true;
        break;
      }
      ++run.allocation[*chosen];
      run.choices.push_back(*chosen);
    }
    run.final_metrics = Metrics(run.allocation, run.choices);
    return run;
  }

  // CHOOSE after the reward units `spent` went out, which left the
  // allocation `x`; nullopt when no resource is a candidate.
  std::optional<core::ResourceId> Choose(
      PaperStrategy strategy, const std::vector<int64_t>& x,
      const std::vector<core::ResourceId>& spent) const {
    const size_t n = initial_.size();
    auto left = [&](size_t i) { return HasPostsLeft(i, x); };
    auto posts = [&](size_t i) { return static_cast<double>(Posts(i, x)); };
    switch (strategy) {
      case PaperStrategy::kRR: {
        // Section IV-B, Algorithm 2: resources in cyclic order, from the
        // one after the last chosen, ignoring post counts and stability.
        const size_t from = spent.empty() ? 0 : (spent.back() + 1) % n;
        for (size_t step = 0; step < n; ++step) {
          const size_t i = (from + step) % n;
          if (left(i)) return static_cast<core::ResourceId>(i);
        }
        return std::nullopt;
      }
      case PaperStrategy::kFP:
        // Section IV-C, Algorithm 3: the fewest posts c_i + x_i.
        return ArgMin(n, left, posts);
      case PaperStrategy::kMU:
        return MostUnstable(x);
      case PaperStrategy::kFPMU:
        // Section IV-E, Algorithm 5: FP until every resource has at
        // least omega posts, then MU, whose scores are then defined.
        for (size_t i = 0; i < n; ++i) {
          if (left(i) && Posts(i, x) < omega_) return ArgMin(n, left, posts);
        }
        return MostUnstable(x);
    }
    return std::nullopt;
  }

  // Section V-B's metrics after the reward units `spent`, which left the
  // allocation `x`, recomputed from scratch.
  core::AllocationMetrics Metrics(
      const std::vector<int64_t>& x,
      const std::vector<core::ResourceId>& spent) const {
    core::AllocationMetrics m;
    m.budget_used = static_cast<int64_t>(spent.size());
    // A task given to a resource already over-tagged is wasted.
    std::vector<int64_t> before(x.size(), 0);
    for (core::ResourceId i : spent) {
      if (OverTagged(i, Posts(i, before))) ++m.wasted_posts;
      ++before[i];
    }
    const size_t n = initial_.size();
    double quality_sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const int64_t k = Posts(i, x);
      quality_sum += Quality(i, k);
      if (OverTagged(i, k)) ++m.over_tagged;
      if (k <= under_tagged_threshold_) ++m.under_tagged;
    }
    // q(R, c + x), Definition 10: the mean of the per-resource qualities.
    m.avg_quality = n == 0 ? 0.0 : quality_sum / static_cast<double>(n);
    return m;
  }

  // m_i(k, omega), Definition 7: the mean of the adjacent similarities
  // s(F(j-1), F(j)) for j = k-omega+2 .. k, with s(F(0), F(1)) = 0
  // (Eq. 16: a similarity involving an empty rfd is 0). Requires
  // k >= omega. Recounts the prefix from its first post.
  double MaScore(size_t i, int64_t k) const {
    std::map<core::TagId, int64_t> counts;
    for (int64_t j = 1; j <= k - omega_ + 1; ++j) AddPost(i, j, &counts);
    double sum = 0.0;
    for (int64_t j = k - omega_ + 2; j <= k; ++j) {
      const std::map<core::TagId, int64_t> before = counts;
      AddPost(i, j, &counts);
      sum += NaiveCosine(before, counts);
    }
    return sum / static_cast<double>(omega_ - 1);
  }

  // q_i(k), Definition 9: the cosine between the prefix's tag counts and
  // the unit-norm reference rfd phi_hat_i.
  double Quality(size_t i, int64_t k) const {
    std::map<core::TagId, int64_t> counts;
    for (int64_t j = 1; j <= k; ++j) AddPost(i, j, &counts);
    double dot = 0.0;
    double norm_sq = 0.0;
    for (const auto& [tag, count] : counts) {
      norm_sq += static_cast<double>(count) * static_cast<double>(count);
    }
    for (const auto& [tag, weight] : references_[i].stable_rfd.entries()) {
      auto it = counts.find(tag);
      if (it != counts.end()) dot += static_cast<double>(it->second) * weight;
    }
    if (dot == 0.0) return 0.0;
    return dot / std::sqrt(norm_sq);
  }

 private:
  // k_i = c_i + x_i.
  int64_t Posts(size_t i, const std::vector<int64_t>& x) const {
    return static_cast<int64_t>(initial_[i].size()) + x[i];
  }

  bool HasPostsLeft(size_t i, const std::vector<int64_t>& x) const {
    return x[i] < static_cast<int64_t>(future_[i].size());
  }

  // Over-tagged: the post count reached the stable point k*_i (a
  // resource without one never is).
  bool OverTagged(size_t i, int64_t posts) const {
    return references_[i].stable_point > 0 &&
           posts >= references_[i].stable_point;
  }

  // Adds the j-th post (1-based) of resource i's sequence: its January
  // posts, then its future posts in order. A post is a set of tags.
  void AddPost(size_t i, int64_t j,
               std::map<core::TagId, int64_t>* counts) const {
    const size_t c = initial_[i].size();
    const size_t index = static_cast<size_t>(j - 1);
    const core::PostView post =
        index < c ? initial_[i][index] : future_[i][index - c];
    for (core::TagId tag : post.tags) ++(*counts)[tag];
  }

  // The least-key candidate, smallest id among equal keys; nullopt when
  // no resource is a candidate.
  template <typename IsCandidate, typename Key>
  static std::optional<core::ResourceId> ArgMin(size_t n,
                                                IsCandidate is_candidate,
                                                Key key) {
    std::optional<core::ResourceId> best;
    double best_key = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (!is_candidate(i)) continue;
      const double k = key(i);
      if (!best.has_value() || k < best_key) {
        best = static_cast<core::ResourceId>(i);
        best_key = k;
      }
    }
    return best;
  }

  // Section IV-D, Algorithm 4: the smallest MA score, among the
  // resources with at least omega posts (the others have no score).
  std::optional<core::ResourceId> MostUnstable(
      const std::vector<int64_t>& x) const {
    return ArgMin(
        initial_.size(),
        [&](size_t i) { return HasPostsLeft(i, x) && Posts(i, x) >= omega_; },
        [&](size_t i) { return MaScore(i, Posts(i, x)); });
  }

  const core::PostStore& initial_;
  const core::PostStore& future_;
  const std::vector<core::ResourceReference>& references_;
  const int omega_;
  const int64_t under_tagged_threshold_;
};

}  // namespace testing
}  // namespace incentag

#endif  // INCENTAG_TESTS_TESTING_PAPER_REFERENCE_H_

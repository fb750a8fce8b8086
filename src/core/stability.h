// Practically-stable rfds and stable points (paper Definition 8).
//
// phi_hat_i(omega, tau) = F_i(k*) where k* is the smallest k >= omega with
// m_i(k, omega) > tau. StabilityDetector consumes a post sequence
// incrementally and reports k* and the snapshot F_i(k*) the moment the
// condition first holds, so a caller can stop feeding it as soon as a
// resource proves stable.
#ifndef INCENTAG_CORE_STABILITY_H_
#define INCENTAG_CORE_STABILITY_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/core/ma_tracker.h"
#include "src/core/post_store.h"
#include "src/core/rfd.h"
#include "src/core/types.h"

namespace incentag {
namespace core {

// Parameters (omega, tau) of Definition 8. The paper uses strict values
// (omega_s = 20, tau_s = 0.9999) for dataset preparation and a small omega
// (default 5) inside the MU / FP-MU strategies.
struct StabilityParams {
  int omega = 20;
  double tau = 0.9999;
};

// One row of a stability trace: the values plotted in the paper's Figure 3.
struct StabilityTracePoint {
  int64_t k = 0;                  // post index
  double adjacent_similarity = 0.0;  // s(F(k-1), F(k))
  double ma_score = 0.0;             // m(k, omega); 0 while undefined
  bool ma_defined = false;
};

// Incremental detector of the practically-stable rfd.
class StabilityDetector {
 public:
  // params.omega must pass ValidateOmega (allocation.h); a CHECK fails
  // otherwise. The MA score averages omega - 1 adjacent similarities.
  explicit StabilityDetector(StabilityParams params);

  // Feeds the next post. Returns true exactly once: on the post that makes
  // the resource practically stable (m(k, omega) > tau for the first time,
  // with k >= omega). Further posts return false and do not change the
  // recorded stable point / stable rfd.
  bool AddPost(PostView post);

  // True once the stable point has been reached.
  bool IsStable() const { return stable_point_.has_value(); }

  // The stable point k* (posts needed to reach stability). Requires
  // IsStable().
  int64_t stable_point() const { return *stable_point_; }

  // phi_hat = F(k*). Requires IsStable(). A detector that is done
  // scanning hands its snapshot over by move: std::move(d).stable_rfd().
  const RfdVector& stable_rfd() const& { return stable_rfd_; }
  RfdVector stable_rfd() && { return std::move(stable_rfd_); }

  // Number of posts consumed so far.
  int64_t posts() const { return counts_.posts(); }

  // The evolving counts (useful for callers that keep feeding posts after
  // stability, e.g. to build the ideal end-of-year rfd).
  const TagCounts& counts() const { return counts_; }

  // Current MA score if defined.
  std::optional<double> ma_score() const;

  const StabilityParams& params() const { return params_; }

 private:
  StabilityParams params_;
  TagCounts counts_;
  MaTracker ma_;
  std::optional<int64_t> stable_point_;
  RfdVector stable_rfd_;
};

// Runs the detector over a materialised sequence. Returns the detector in
// its final state (stable or not).
StabilityDetector ScanSequence(PostSequence posts, StabilityParams params);

// Produces the full (adjacent similarity, MA score) trace of a sequence —
// the data behind Figure 3 — together with the stable point under `params`.
// params.omega must pass ValidateOmega (CHECKed), as for
// StabilityDetector.
std::vector<StabilityTracePoint> StabilityTrace(PostSequence posts,
                                                StabilityParams params);

}  // namespace core
}  // namespace incentag

#endif  // INCENTAG_CORE_STABILITY_H_

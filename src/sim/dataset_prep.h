// Dataset preparation — the paper's Section V-A pipeline.
//
// From raw per-resource "year" post sequences it:
//   1. checks each resource for practical stability under the strict
//      parameters (omega_s, tau_s) and keeps only resources whose sequence
//      reaches a stable rfd — these phi_hat_i / k*_i become the evaluation
//      references (the paper kept 5,000 such URLs);
//   2. splits each kept sequence at a "January" cut: the prefix becomes the
//      initial posts c_i visible to every strategy, the suffix becomes the
//      future posts that completed post tasks consume.
//
// The January cut mirrors the paper's skew: the cut size is proportional to
// the resource's year volume (with jitter), so popular resources start with
// 150+ posts while the tail starts under-tagged.
#ifndef INCENTAG_SIM_DATASET_PREP_H_
#define INCENTAG_SIM_DATASET_PREP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/allocation.h"
#include "src/core/post_store.h"
#include "src/core/post_stream.h"
#include "src/core/stability.h"
#include "src/core/types.h"
#include "src/sim/generator.h"
#include "src/util/status.h"

namespace incentag {
namespace sim {

struct PrepConfig {
  // Strict stability parameters for reference preparation. The paper uses
  // omega_s = 20, tau_s = 0.9999 on the real corpus; the defaults here are
  // recalibrated for the synthetic corpus' smaller scale (see
  // EXPERIMENTS.md) so that, as in the paper, nearly every resource —
  // including the low-volume tail — passes the stability filter. Both
  // remain configurable.
  core::StabilityParams stability{/*omega=*/15, /*tau=*/0.997};
  // Fraction of a resource's year posts that fall before the cut.
  // Calibrated so the January-to-stable-point ratio matches the paper's
  // (29.7 initial posts vs a 112-post average stable point).
  double january_fraction = 0.20;
  // Lognormal sigma jittering each resource's cut size. Large enough that
  // a visible share of the tail starts below the strategies' MA window
  // (the paper's dataset has >1,000 of 5,000 URLs at <= 10 posts, many
  // below omega = 5 — the resources MU is blind to).
  double january_jitter_sigma = 0.55;
  uint64_t seed = 7;
  // Keep at most this many stable resources (0 = keep all). Keeping is
  // first-come in resource order, which preserves the showcase pages.
  int64_t max_keep = 0;
};

// The evaluation-ready dataset: index-aligned vectors over kept resources.
//
// Footprint. The posts are two flat stores (core::PostStore): 4 bytes per
// tag, 4 per post and 4 per resource each, with no allocation per post.
// At n=2000 (seed 1) the 100,782 kept posts carry 155,671 tags, ~1.0 MB
// in all. The sim::Corpus a dataset is prepared from holds ~2.1 MB more at
// that size (see the footprint note in generator.h); the dataset keeps no
// pointer into it, so a caller may free the corpus once it is prepared.
struct PreparedDataset {
  core::PostStore initial_posts;  // the "January" prefixes
  core::PostStore future_posts;   // the rest of the year
  std::vector<core::ResourceReference> references;
  std::vector<int64_t> year_length;
  std::vector<double> popularity;
  std::vector<std::string> urls;
  // Kept-resource index -> id in the source corpus / dump.
  std::vector<core::ResourceId> source_ids;

  int64_t scanned = 0;
  int64_t dropped_unstable = 0;

  size_t size() const { return initial_posts.size(); }

  // A campaign's view of the future posts: it reads `future_posts` in
  // place, so any number of campaigns share one copy of the posts. The
  // dataset must outlive every campaign that reads it.
  core::VectorPostStream MakeStream() const {
    return core::VectorPostStream(&future_posts);
  }
};

// Prepares a dataset from a generated corpus in one pass of two steps.
//  - Scan, in parallel: util::DefaultThreadCount() threads take resources
//    by index a few at a time. Each samples a resource's year once in
//    full into a flat tag buffer and runs the stability scan over it up to
//    the stable point; an unstable year is dropped there.
//  - Keep, on the calling thread, in resource order as the scan completes:
//    draws each kept resource's January cut from the one sequential rng
//    and appends the flat buffer's two halves to the dataset's January and
//    future stores. With max_keep the scan stops soon after the cap is
//    reached.
// The output is byte-identical whatever the thread count or the order the
// threads finish in. The corpus is only read, so several preparations may
// share one corpus concurrently. Returns InvalidArgument for a stability
// omega outside core::ValidateOmega's range, a january_fraction outside
// (0, 1) or NaN, or a non-finite january_jitter_sigma.
util::Result<PreparedDataset> PrepareFromCorpus(const Corpus& corpus,
                                                const PrepConfig& config);

// Prepares a dataset from externally supplied sequences (e.g. a parsed
// dump) on the calling thread, with the same keep step and validation as
// PrepareFromCorpus. `urls` may be empty; popularity defaults to the year
// volume.
util::Result<PreparedDataset> PrepareFromSequences(
    const core::PostStore& year_posts, const std::vector<std::string>& urls,
    const PrepConfig& config);

}  // namespace sim
}  // namespace incentag

#endif  // INCENTAG_SIM_DATASET_PREP_H_

// Resource-resource similarity over rfds (paper Section V-C).
//
// "Given the tagging information of resources, one popular method to measure
// resources' similarity is to compute the cosine similarity of resources'
// rfd's." These helpers build rfd snapshots from post prefixes and compute
// pairwise similarities for the top-k case studies (Tables VI/VII) and the
// ranking-accuracy experiment (Figure 7).
#ifndef INCENTAG_IR_SIMILARITY_H_
#define INCENTAG_IR_SIMILARITY_H_

#include <cstdint>
#include <vector>

#include "src/core/post_store.h"
#include "src/core/rfd.h"
#include "src/core/types.h"

namespace incentag {
namespace ir {

// Builds one rfd snapshot per resource from the first `counts[i]` posts of
// each sequence. counts may be empty, meaning "use the whole sequence".
std::vector<core::RfdVector> BuildRfds(
    const core::PostStore& sequences, const std::vector<int64_t>& counts = {});

// Cosine similarities of `subject` against every resource in `rfds`
// (subject's own entry is set to 1).
std::vector<double> SimilaritiesTo(const std::vector<core::RfdVector>& rfds,
                                   core::ResourceId subject);

// All pairwise similarities (i < j), flattened in row-major order:
// index(i, j) = i*n - i*(i+1)/2 + (j - i - 1). Used for ranking accuracy.
std::vector<double> AllPairSimilarities(
    const std::vector<core::RfdVector>& rfds);

}  // namespace ir
}  // namespace incentag

#endif  // INCENTAG_IR_SIMILARITY_H_

#include "src/ir/similarity.h"

#include <cassert>

namespace incentag {
namespace ir {

std::vector<core::RfdVector> BuildRfds(const core::PostStore& sequences,
                                       const std::vector<int64_t>& counts) {
  assert(counts.empty() || counts.size() == sequences.size());
  std::vector<core::RfdVector> rfds;
  rfds.reserve(sequences.size());
  for (size_t i = 0; i < sequences.size(); ++i) {
    const core::PostSequence posts = sequences[i];
    const int64_t limit =
        counts.empty() ? static_cast<int64_t>(posts.size()) : counts[i];
    core::TagCounts tag_counts;
    for (int64_t k = 0; k < limit && k < static_cast<int64_t>(posts.size());
         ++k) {
      tag_counts.AddPost(posts[static_cast<size_t>(k)]);
    }
    rfds.push_back(tag_counts.Snapshot());
  }
  return rfds;
}

std::vector<double> SimilaritiesTo(const std::vector<core::RfdVector>& rfds,
                                   core::ResourceId subject) {
  assert(subject < rfds.size());
  std::vector<double> sims(rfds.size(), 0.0);
  for (size_t i = 0; i < rfds.size(); ++i) {
    sims[i] = (i == subject) ? 1.0 : core::Cosine(rfds[subject], rfds[i]);
  }
  return sims;
}

std::vector<double> AllPairSimilarities(
    const std::vector<core::RfdVector>& rfds) {
  const size_t n = rfds.size();
  std::vector<double> sims;
  sims.reserve(n * (n - 1) / 2);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      sims.push_back(core::Cosine(rfds[i], rfds[j]));
    }
  }
  return sims;
}

}  // namespace ir
}  // namespace incentag

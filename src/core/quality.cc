#include "src/core/quality.h"

#include <cassert>

namespace incentag {
namespace core {

double SequenceQuality(PostSequence posts, int64_t k,
                       const RfdVector& reference) {
  assert(k >= 0 && k <= static_cast<int64_t>(posts.size()));
  TagCounts counts;
  for (int64_t i = 0; i < k; ++i) counts.AddPost(posts[static_cast<size_t>(i)]);
  return Cosine(counts, reference);
}

}  // namespace core
}  // namespace incentag

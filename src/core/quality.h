// Tagging quality (paper Definitions 9 and 10).
//
//   q_i(k)   = s(F_i(k), phi_hat_i)          — per-resource quality
//   q(R, k)  = (1/n) * sum_i q_i(k_i)        — set quality
//
// QualityTracker maintains q_i(k) incrementally against a fixed reference
// stable rfd: adding a post updates the dot product with the (unit-norm)
// reference in O(|post| * log |phi_hat|), so the allocation engine can
// report set quality at every budget checkpoint without rescanning.
#ifndef INCENTAG_CORE_QUALITY_H_
#define INCENTAG_CORE_QUALITY_H_

#include <cmath>
#include <cstdint>
#include <string>

#include "src/core/post_store.h"
#include "src/core/rfd.h"
#include "src/core/types.h"
#include "src/util/wire.h"

namespace incentag {
namespace core {

class QualityTracker {
 public:
  // `reference` is phi_hat_i; the pointer must outlive the tracker.
  explicit QualityTracker(const RfdVector* reference)
      : reference_(reference) {}

  // Mirrors a post that was already applied to some TagCounts; the tracker
  // only needs the post itself plus the resulting norm.
  void AddPost(PostView post, double new_norm_squared) {
    for (TagId tag : post.tags) {
      dot_ += reference_->Weight(tag);
    }
    norm_sq_ = new_norm_squared;
    ++posts_;
  }

  // q_i(k): cosine between the accumulated counts and the reference.
  // 0 when no posts have been seen (Eq. 16) or the reference is empty.
  double Quality() const {
    if (posts_ == 0 || norm_sq_ <= 0.0 || dot_ <= 0.0) return 0.0;
    return dot_ / std::sqrt(norm_sq_);
  }

  int64_t posts() const { return posts_; }
  // ||h||^2 as mirrored from the TagCounts.
  double norm_squared() const { return norm_sq_; }
  const RfdVector& reference() const { return *reference_; }

  // Resumable-state round trip (campaign snapshots, journal format v2).
  // The incrementally accumulated dot product restores bit-exactly; the
  // reference pointer is re-attached by the constructor, not serialized.
  void Serialize(std::string* out) const {
    util::wire::PutDouble(out, dot_);
    util::wire::PutDouble(out, norm_sq_);
    util::wire::PutI64(out, posts_);
  }
  bool Restore(util::wire::Reader* in) {
    return in->GetDouble(&dot_) && in->GetDouble(&norm_sq_) &&
           in->GetI64(&posts_);
  }

 private:
  const RfdVector* reference_;
  double dot_ = 0.0;      // dot(h, phi_hat); phi_hat is unit-norm
  double norm_sq_ = 0.0;  // ||h||^2 mirrored from the TagCounts
  int64_t posts_ = 0;
};

// One-shot q_i(k) for a materialised prefix: replays `posts` into counts
// and returns the cosine against `reference`.
double SequenceQuality(PostSequence posts, int64_t k,
                       const RfdVector& reference);

}  // namespace core
}  // namespace incentag

#endif  // INCENTAG_CORE_QUALITY_H_

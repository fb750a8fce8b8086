// Relative tag frequency distributions (rfds) and their similarities
// (paper Definitions 3-5 and the cosine similarity of Appendix A).
//
// Two representations are provided:
//
//  * TagCounts — the mutable accumulator h_i(t, k) for a resource that is
//    still receiving posts. Because cosine similarity is scale-invariant,
//    similarities are computed directly on the integer count vector; the
//    normalisation of Definition 4 never has to be materialised. TagCounts
//    maintains the running squared norm ||h||^2 so that the *adjacent
//    similarity* s(F(k-1), F(k)) of Definition 7 is produced in O(|post|)
//    when a post is added (the identity behind Appendix C's complexity
//    bound for MU).
//
//  * RfdVector — an immutable, unit-normalised snapshot used for reference
//    (practically-)stable rfds and for similarity queries. Entries are kept
//    sorted by TagId for deterministic iteration.
#ifndef INCENTAG_CORE_RFD_H_
#define INCENTAG_CORE_RFD_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/core/tag_count_map.h"
#include "src/core/types.h"
#include "src/util/wire.h"

namespace incentag {
namespace core {

class RfdVector;

// Mutable per-resource tag count state: h_i(t, k) for all t after k posts.
class TagCounts {
 public:
  TagCounts() = default;

  // Number of posts received (k).
  int64_t posts() const { return posts_; }
  // Sum over tags of h(t): the Definition-4 normaliser.
  int64_t total_tags() const { return total_tags_; }
  // Number of distinct tags with h(t) > 0.
  size_t distinct_tags() const { return counts_.size(); }
  // ||h||^2 = sum over tags of h(t)^2.
  double norm_squared() const { return static_cast<double>(norm_sq_); }

  // h_i(t, k) (Definition 3).
  int64_t Count(TagId tag) const;
  // f_i(t, k) (Definition 4): h(t) / total_tags, or 0 when k == 0.
  double RelativeFrequency(TagId tag) const;

  // Appends one post and returns the adjacent similarity
  // s(F(k-1), F(k)) — by Appendix A this is 0 when k-1 == 0.
  // `post` is a set: sorted, without duplicate tags.
  double AddPost(PostView post);

  // Unit-normalised snapshot of the current rfd F_i(k).
  RfdVector Snapshot() const;

  // Read-only access to the underlying counts (iteration order is
  // unspecified; use Snapshot() when determinism matters).
  const TagCountMap& counts() const { return counts_; }

  // Resumable-state round trip (campaign snapshots, journal format v2).
  // Counts are written sorted by tag so the encoding is deterministic;
  // Restore replaces the accumulator's state bit-exactly. Restore returns
  // false on a malformed buffer.
  void Serialize(std::string* out) const;
  bool Restore(util::wire::Reader* in);

 private:
  // Flat open-addressing map (src/core/tag_count_map.h): AddPost is the
  // hottest function of a campaign run, and node-based hashing dominated
  // its profile.
  TagCountMap counts_;
  int64_t posts_ = 0;
  int64_t total_tags_ = 0;
  int64_t norm_sq_ = 0;
};

// Immutable unit-L2-norm sparse rfd, sorted by TagId.
class RfdVector {
 public:
  RfdVector() = default;

  // Builds a unit-normalised vector from (tag, weight) pairs. Weights must
  // be non-negative and not all zero unless the list is empty; duplicate
  // tags are summed.
  static RfdVector FromWeights(std::vector<std::pair<TagId, double>> weights);

  // Builds a vector from entries already in unit form and keeps their
  // weights bit for bit: a saved reference loads back exactly as it was
  // written. Entries must be sorted by TagId, distinct, with positive
  // weights; the caller vouches for their norm.
  static RfdVector FromUnitEntries(
      std::vector<std::pair<TagId, double>> entries);

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }
  const std::vector<std::pair<TagId, double>>& entries() const {
    return entries_;
  }

  // Unit-norm weight of `tag` (0 if absent). O(1): references are built
  // once per dataset but probed per applied tag by every campaign's
  // QualityTracker, so lookups go through a flat hash index built at
  // construction (weights are never 0 for present entries — FromWeights
  // drops them — so 0 marks an empty slot).
  double Weight(TagId tag) const {
    if (lookup_.empty()) return 0.0;
    const size_t mask = lookup_.size() - 1;
    for (size_t i = FlatHashBucket(tag, mask);; i = (i + 1) & mask) {
      const auto& [slot_tag, weight] = lookup_[i];
      if (weight == 0.0) return 0.0;
      if (slot_tag == tag) return weight;
    }
  }

 private:
  // Fills lookup_ from entries_.
  void BuildLookup();

  std::vector<std::pair<TagId, double>> entries_;  // sorted by TagId
  // Open-addressing (tag, weight) index over entries_; power-of-two size.
  std::vector<std::pair<TagId, double>> lookup_;
};

// Cosine similarity (Appendix A, Eq. 16). All overloads return a value in
// [0, 1] and define the similarity involving an empty vector as 0.
double Cosine(const TagCounts& a, const TagCounts& b);
double Cosine(const TagCounts& a, const RfdVector& b);
double Cosine(const RfdVector& a, const RfdVector& b);

}  // namespace core
}  // namespace incentag

#endif  // INCENTAG_CORE_RFD_H_

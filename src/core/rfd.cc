#include "src/core/rfd.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace incentag {
namespace core {

int64_t TagCounts::Count(TagId tag) const { return counts_.Count(tag); }

double TagCounts::RelativeFrequency(TagId tag) const {
  if (total_tags_ == 0) return 0.0;  // Definition 4, k == 0 case.
  return static_cast<double>(Count(tag)) / static_cast<double>(total_tags_);
}

double TagCounts::AddPost(PostView post) {
  assert(!post.empty());
  // The new count vector is h' = h + e_P where e_P is the indicator of the
  // post's tag set. Then
  //   dot(h, h')   = ||h||^2 + sum_{t in P} h(t)
  //   ||h'||^2     = ||h||^2 + sum_{t in P} (2 h(t) + 1)
  // and cos(F(k-1), F(k)) = cos(h, h') because cosine ignores scaling.
  const double old_norm_sq = static_cast<double>(norm_sq_);
  int64_t overlap = 0;  // sum over post tags of the old h(t)
  for (TagId tag : post.tags) {
    const int64_t old_count = counts_.Increment(tag);
    overlap += old_count;
    norm_sq_ += 2 * old_count + 1;
  }
  total_tags_ += static_cast<int64_t>(post.tags.size());
  ++posts_;
  if (old_norm_sq == 0.0) return 0.0;  // s(F(0), F(1)) = 0 by Eq. 16.
  const double dot = old_norm_sq + static_cast<double>(overlap);
  return dot /
         (std::sqrt(old_norm_sq) * std::sqrt(static_cast<double>(norm_sq_)));
}

void TagCounts::Serialize(std::string* out) const {
  util::wire::PutI64(out, posts_);
  util::wire::PutI64(out, total_tags_);
  util::wire::PutI64(out, norm_sq_);
  std::vector<TagCountMap::value_type> sorted(counts_.begin(),
                                              counts_.end());
  std::sort(sorted.begin(), sorted.end());
  util::wire::PutU32(out, static_cast<uint32_t>(sorted.size()));
  for (const auto& [tag, count] : sorted) {
    util::wire::PutU32(out, tag);
    // A 64-bit wire field, wider than the map's slots: snapshot bytes do
    // not depend on the slot width.
    util::wire::PutI64(out, count);
  }
}

bool TagCounts::Restore(util::wire::Reader* in) {
  uint32_t num_tags = 0;
  if (!in->GetI64(&posts_) || !in->GetI64(&total_tags_) ||
      !in->GetI64(&norm_sq_) || !in->GetU32(&num_tags)) {
    return false;
  }
  // Each entry is 12 wire bytes; a count that cannot fit in the
  // remaining buffer is corruption, and must be rejected BEFORE the
  // reserve — a crafted/corrupt u32 would otherwise provoke a
  // multi-GiB allocation (abort) instead of the documented graceful
  // snapshot_status degradation.
  if (in->remaining() / 12 < num_tags) return false;
  TagId previous = 0;
  counts_.clear();
  counts_.reserve(num_tags);
  for (uint32_t i = 0; i < num_tags; ++i) {
    TagId tag = 0;
    int64_t count = 0;
    // A count past the map's 32-bit slots is corruption too (see
    // TagCountMap): reject it rather than wrap it.
    if (!in->GetU32(&tag) || !in->GetI64(&count) || count <= 0 ||
        count > TagCountMap::kMaxCount) {
      return false;
    }
    // Serialize writes the tags ascending, so an unordered or repeated
    // tag is corruption; accepting it would not serialize back.
    if (i > 0 && tag <= previous) return false;
    previous = tag;
    counts_.Set(tag, count);
  }
  return true;
}

RfdVector TagCounts::Snapshot() const {
  std::vector<std::pair<TagId, double>> weights;
  weights.reserve(counts_.size());
  for (const auto& [tag, count] : counts_) {
    weights.emplace_back(tag, static_cast<double>(count));
  }
  return RfdVector::FromWeights(std::move(weights));
}

RfdVector RfdVector::FromWeights(
    std::vector<std::pair<TagId, double>> weights) {
  std::sort(weights.begin(), weights.end());
  // Merge duplicates.
  size_t out = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    assert(weights[i].second >= 0.0);
    if (out > 0 && weights[out - 1].first == weights[i].first) {
      weights[out - 1].second += weights[i].second;
    } else {
      weights[out++] = weights[i];
    }
  }
  weights.resize(out);
  // Drop zero weights so empty() reflects an all-zero vector.
  std::erase_if(weights, [](const auto& e) { return e.second == 0.0; });
  double norm_sq = 0.0;
  for (const auto& [tag, w] : weights) norm_sq += w * w;
  RfdVector v;
  if (norm_sq > 0.0) {
    const double inv = 1.0 / std::sqrt(norm_sq);
    for (auto& [tag, w] : weights) w *= inv;
    v.entries_ = std::move(weights);
    // Flat hash index for O(1) Weight probes (same scheme as
    // TagCountMap — see FlatHashBucket/FlatHashCapacityFor).
    const size_t capacity = FlatHashCapacityFor(v.entries_.size());
    v.lookup_.assign(capacity, {0, 0.0});
    const size_t mask = capacity - 1;
    for (const auto& entry : v.entries_) {
      for (size_t i = FlatHashBucket(entry.first, mask);;
           i = (i + 1) & mask) {
        if (v.lookup_[i].second == 0.0) {
          v.lookup_[i] = entry;
          break;
        }
      }
    }
  }
  return v;
}

double Cosine(const TagCounts& a, const TagCounts& b) {
  if (a.posts() == 0 || b.posts() == 0) return 0.0;
  // Iterate the smaller map and probe the larger one.
  const TagCounts* small = &a;
  const TagCounts* large = &b;
  if (small->distinct_tags() > large->distinct_tags()) {
    std::swap(small, large);
  }
  double dot = 0.0;
  for (const auto& [tag, count] : small->counts()) {
    const int64_t other = large->Count(tag);
    if (other != 0) dot += static_cast<double>(int64_t{count} * other);
  }
  if (dot == 0.0) return 0.0;
  return dot / (std::sqrt(a.norm_squared()) * std::sqrt(b.norm_squared()));
}

double Cosine(const TagCounts& a, const RfdVector& b) {
  if (a.posts() == 0 || b.empty()) return 0.0;
  double dot = 0.0;
  // b is unit-norm, so cos = dot(h_a, b) / ||h_a||.
  for (const auto& [tag, w] : b.entries()) {
    int64_t count = a.Count(tag);
    if (count != 0) dot += static_cast<double>(count) * w;
  }
  if (dot == 0.0) return 0.0;
  return dot / std::sqrt(a.norm_squared());
}

double Cosine(const RfdVector& a, const RfdVector& b) {
  if (a.empty() || b.empty()) return 0.0;
  // Sorted-merge over the two entry lists.
  double dot = 0.0;
  auto ia = a.entries().begin();
  auto ib = b.entries().begin();
  while (ia != a.entries().end() && ib != b.entries().end()) {
    if (ia->first < ib->first) {
      ++ia;
    } else if (ib->first < ia->first) {
      ++ib;
    } else {
      dot += ia->second * ib->second;
      ++ia;
      ++ib;
    }
  }
  // Both unit-norm already.
  return dot;
}

}  // namespace core
}  // namespace incentag

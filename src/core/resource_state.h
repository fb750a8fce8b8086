// ResourceState: the online, strategy-visible state of one resource.
//
// The allocation framework (paper Algorithm 1) lets strategies observe
// "previous posts (e.g., the number of posts that have already been given to
// a resource so far, and their tags' frequencies) as well as the new posts
// submitted by taggers". ResourceState is exactly that observable state:
// post count, tag counts / rfd, and the MA score — and nothing that requires
// ground truth (stable rfds stay private to the evaluation).
//
// Footprint: campaigns hold no ResourceState. The dataset's trajectory
// table (initial_state.h) keeps one per resource every kKeepEvery rows,
// to replay from when a snapshot needs a resource's bytes; campaigns
// read 16-byte rows of the table instead. Inline a state is 104 bytes on
// x86-64: TagCounts (56: the flat map's header plus three int64 totals)
// and MaTracker (48). Out of line it owns the map's 8-byte slots (a power
// of two >= 8, kept under 0.7 load) and the tracker's omega - 1 doubles.
// It holds no posts: AddPost reads a PostView into the dataset's flat
// PostStore (post_store.h), where no post owns an allocation.
#ifndef INCENTAG_CORE_RESOURCE_STATE_H_
#define INCENTAG_CORE_RESOURCE_STATE_H_

#include <cstdint>

#include "src/core/ma_tracker.h"
#include "src/core/rfd.h"
#include "src/core/types.h"

namespace incentag {
namespace core {

class ResourceState {
 public:
  // omega is the MA window (the strategies' parameter, default 5 in the
  // paper's experiments).
  explicit ResourceState(int omega) : ma_(omega) {}

  // Applies one post; updates counts and MA. Returns the adjacent
  // similarity s(F(k-1), F(k)).
  double AddPost(PostView post) {
    double sim = counts_.AddPost(post);
    ma_.AddAdjacentSimilarity(sim);
    return sim;
  }

  // Number of posts received so far (c_i + x_i during a run).
  int64_t posts() const { return counts_.posts(); }

  const TagCounts& counts() const { return counts_; }
  const MaTracker& ma() const { return ma_; }

  // True once the MA score m(k, omega) is defined (k >= omega).
  bool has_ma_score() const { return ma_.HasScore(); }
  // Requires has_ma_score().
  double ma_score() const { return ma_.Score(); }

  // Snapshot bytes (campaign snapshots, journal format v2). Restore
  // returns false on a malformed buffer or an omega mismatch.
  void Serialize(std::string* out) const {
    counts_.Serialize(out);
    ma_.Serialize(out);
  }
  bool Restore(util::wire::Reader* in) {
    return counts_.Restore(in) && ma_.Restore(in);
  }

 private:
  TagCounts counts_;
  MaTracker ma_;
};

// See "Footprint" above; x86-64 layout.
static_assert(sizeof(ResourceState) <= 104);

}  // namespace core
}  // namespace incentag

#endif  // INCENTAG_CORE_RESOURCE_STATE_H_

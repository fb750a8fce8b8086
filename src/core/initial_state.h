// InitialState: a dataset's resource trajectories, shared by every
// campaign on that dataset.
//
// Algorithm 1 starts each campaign from c_i, the posts every resource
// received before the campaign began, and a campaign's j-th completed
// task on resource i applies the dataset's post future_posts[i][j - 1]
// (every campaign on the dataset borrows that one read-only store). A
// resource's observable state — its post count, its MA score m_i(k, omega)
// (Definition 7) and its quality q_i(k) (Definition 9) — depends only on
// that post prefix, so resource i after j applied posts is the same in
// every campaign. InitialState replays each resource's future once and
// keeps one 16-byte Row per prefix: row(i, 0) is January, row(i, j) the
// state after j future posts. A campaign keeps only its allocation
// x_i = j and reads the rest from here; it never copies per-resource
// state.
//
// Building. Construction replays nothing. A resource's trajectory is
// replayed when a campaign first needs it, and its rows never change
// after. Begin needs every trajectory from January (BuildFromJanuary). A
// restored campaign needs resource i only from its allocation a_i on, and
// its snapshot carries the state at a_i: where the trajectory is not
// built yet, Attach seeds it with that state and replays only the posts
// after a_i. Recovering a lone campaign so costs its snapshot's decode
// plus its remaining posts, not the dataset's whole future. A later
// BuildFromJanuary replays the seeded trajectory's prefix and fails
// (Corruption) unless the replay reaches the seed byte for byte.
//
// Snapshots (journal format v1) carry every resource's full ResourceState
// and QualityTracker bytes. The table keeps the full state at every
// kKeepEvery-th row and at a seed; SerializeAt rebuilds the bytes at any
// row from the nearest kept state at or below it, replaying fewer than
// kKeepEvery posts.
//
// Footprint. The table borrows the dataset's two PostStores (post_store.h:
// one flat tag array each, 4 bytes per tag and 4 per post, no allocation
// per post) and owns only its rows, kept states and per-resource
// offsets.
//
// Threads. Building runs under the table's mutex. A row or kept state is
// written once, before the call that makes it readable returns, and is
// never written again; a campaign reads only rows at or past the point it
// attached at, so reads take no lock. The dataset pointers must outlive
// the table and every runtime that borrows it.
#ifndef INCENTAG_CORE_INITIAL_STATE_H_
#define INCENTAG_CORE_INITIAL_STATE_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/allocation.h"
#include "src/core/post_store.h"
#include "src/core/quality.h"
#include "src/core/resource_state.h"
#include "src/core/types.h"
#include "src/util/mutex.h"
#include "src/util/status.h"

namespace incentag {
namespace core {

// True once a resource with `posts` posts has reached its stable point
// k*_i (a resource without one is never over-tagged).
inline bool IsOverTagged(const ResourceReference& reference, int64_t posts) {
  return reference.stable_point > 0 && posts >= reference.stable_point;
}

class InitialState {
 public:
  // One point of a resource's trajectory.
  struct Row {
    double ma_score;  // m_i(k, omega), NaN while k < omega
    double quality;   // q_i(k)
  };

  // Rows between two kept full states (see SerializeAt).
  static constexpr int64_t kKeepEvery = 32;

  // `omega` must pass ValidateOmega; the two stores and `references`
  // hold the same number of resources.
  InitialState(const PostStore* initial_posts, const PostStore* future_posts,
               const std::vector<ResourceReference>* references, int omega);
  ~InitialState();

  InitialState(const InitialState&) = delete;
  InitialState& operator=(const InitialState&) = delete;

  // True when this state was built from exactly these inputs (the
  // dataset is identified by address, as the runtime's pointers are).
  bool BuiltFor(const PostStore* initial_posts, const PostStore* future_posts,
                const std::vector<ResourceReference>* references,
                int omega) const {
    return initial_posts == initial_posts_ && future_posts == future_posts_ &&
           references == references_ && omega == omega_;
  }

  size_t num_resources() const { return initial_posts_->size(); }
  const std::vector<ResourceReference>& references() const {
    return *references_;
  }

  // Resource i's post count before the campaign (c_i).
  int64_t initial_posts(size_t i) const {
    return static_cast<int64_t>((*initial_posts_)[i].size());
  }
  // Future posts resource i can receive; row(i, j) exists for j in
  // [0, future_length(i)].
  int64_t future_length(size_t i) const {
    return static_cast<int64_t>((*future_posts_)[i].size());
  }

  // True once row(i, j) is readable: rows are built from some point of
  // the trajectory to its end, so this stays true.
  bool Covers(size_t i, int64_t j) const {
    return j >= tracks_[i].begin.load(std::memory_order_acquire);
  }
  // Resource i after its initial posts and its first j future posts.
  // Requires Covers(i, j).
  const Row& row(size_t i, int64_t j) const {
    assert(Covers(i, j));
    return rows_[offsets_[i] + static_cast<size_t>(j)];
  }

  // Makes every row of every resource readable, replaying from January
  // what is not built yet (once; later calls return at once). Corruption
  // when a trajectory a snapshot seeded (Attach) is not what its posts
  // produce; that trajectory then stays readable from its seed only.
  util::Status BuildFromJanuary() const;

  // Makes rows [j, future_length(i)] of resource i readable, given its
  // state and quality tracker after j future posts as decoded from a
  // snapshot. Where the trajectory is built at j they must equal its
  // rebuild byte for byte; where it is not, they must be consistent (post
  // counts, tag-count totals) and seed it. Else Corruption. Requires
  // 0 <= j <= future_length(i).
  util::Status Attach(size_t i, int64_t j, ResourceState state,
                      QualityTracker tracker) const;

  // Appends resource i's ResourceState bytes to *state and its
  // QualityTracker bytes to *tracker, as they stand after j future posts.
  // Requires Covers(i, j). Costs a copy of the nearest kept state and the
  // replay of fewer than kKeepEvery posts.
  void SerializeAt(size_t i, int64_t j, std::string* state,
                   std::string* tracker) const;

 private:
  // A resource's full state at one row.
  struct Kept {
    ResourceState state;
    QualityTracker tracker;
  };
  // One resource's trajectory. Written under mu_; `seed` and `seeded_at`
  // only while the trajectory is unbuilt, before `begin` publishes it.
  struct Track {
    // Rows [begin, future_length] are readable; future_length + 1 while
    // nothing is built.
    std::atomic<int64_t> begin{0};
    // The rows below `begin`, if any, are replayed from January.
    bool from_january = false;
    // The snapshot state the trajectory was seeded with, at row
    // seeded_at; null when it was built from January.
    std::unique_ptr<const Kept> seed;
    int64_t seeded_at = -1;
  };

  // Replays resource i's prefix below its seed (or its whole trajectory)
  // from January; Corruption when the replay misses the seed.
  util::Status BuildTrackLocked(size_t i) const REQUIRES(mu_);
  // Writes rows [from, to) of resource i, and a kept state at every
  // multiple of kKeepEvery among them, from *walker standing at row
  // `from`; leaves *walker at row `to` (at the last row when `to` is
  // past it).
  void WalkLocked(size_t i, int64_t from, int64_t to, Kept* walker) const
      REQUIRES(mu_);
  Kept January(size_t i) const;
  // Resource i's kept state slot for row j (a multiple of kKeepEvery).
  std::unique_ptr<const Kept>& KeptSlot(size_t i, int64_t j) const {
    return kept_[kept_offsets_[i] + static_cast<size_t>(j / kKeepEvery)];
  }

  const PostStore* initial_posts_;
  const PostStore* future_posts_;
  const std::vector<ResourceReference>* references_;
  int omega_;
  // Resource i's rows are rows_[offsets_[i] .. offsets_[i + 1]); its kept
  // states kept_[kept_offsets_[i] ..], one per kKeepEvery rows.
  std::vector<size_t> offsets_;
  std::vector<size_t> kept_offsets_;
  std::unique_ptr<Row[]> rows_;
  std::unique_ptr<Track[]> tracks_;
  mutable std::vector<std::unique_ptr<const Kept>> kept_;
  mutable util::Mutex mu_;
  mutable bool from_january_ GUARDED_BY(mu_) = false;
};

}  // namespace core
}  // namespace incentag

#endif  // INCENTAG_CORE_INITIAL_STATE_H_

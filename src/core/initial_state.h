// InitialState: a dataset's time-zero ("January") state, built once and
// read by every campaign on that dataset.
//
// Algorithm 1 starts each campaign from c_i, the posts every resource
// received before the campaign began. For one dataset and one MA window
// omega that start is the same data for every campaign, so it is built
// once: InitialState replays the initial posts and keeps the result
// immutably — every resource's observable ResourceState, plus the
// evaluation's time-zero accumulators (quality trackers, per-resource
// qualities, their sum in index order, and the over-tagged count).
//
// A CampaignRuntime borrows it (campaign_runtime.h): untouched resources
// read their state straight from here, a resource is copied into the
// runtime on its first applied post, and the evaluation accumulators are
// copied rather than replayed. The under-tagged count depends on each
// campaign's threshold, so runtimes recount it (CountUnderTagged).
//
// Nothing mutates an InitialState after construction, so any number of
// runtimes on any threads may read one concurrently. The dataset
// pointers must outlive it and every runtime that borrows it.
#ifndef INCENTAG_CORE_INITIAL_STATE_H_
#define INCENTAG_CORE_INITIAL_STATE_H_

#include <cstdint>
#include <vector>

#include "src/core/allocation.h"
#include "src/core/quality.h"
#include "src/core/resource_state.h"
#include "src/core/types.h"

namespace incentag {
namespace core {

// True once a resource with `posts` posts has reached its stable point
// k*_i (a resource without one is never over-tagged).
inline bool IsOverTagged(const ResourceReference& reference, int64_t posts) {
  return reference.stable_point > 0 && posts >= reference.stable_point;
}

class InitialState {
 public:
  // `omega` must pass ValidateOmega; the two vectors have equal size.
  InitialState(const std::vector<PostSequence>* initial_posts,
               const std::vector<ResourceReference>* references, int omega);

  InitialState(const InitialState&) = delete;
  InitialState& operator=(const InitialState&) = delete;

  // True when this state was built from exactly these inputs (the
  // dataset is identified by address, as the runtime's pointers are).
  bool BuiltFor(const std::vector<PostSequence>* initial_posts,
                const std::vector<ResourceReference>* references,
                int omega) const {
    return initial_posts == initial_posts_ && references == references_ &&
           omega == omega_;
  }

  size_t num_resources() const { return states_.size(); }
  const std::vector<ResourceReference>& references() const {
    return *references_;
  }

  // Resource i after its initial posts.
  const ResourceState& state(size_t i) const { return states_[i]; }

  // The evaluation at t = 0.
  const std::vector<QualityTracker>& trackers() const { return trackers_; }
  const std::vector<double>& qualities() const { return qualities_; }
  // Sum of qualities() in index order (bit-exact with a replay).
  double quality_sum() const { return quality_sum_; }
  int64_t over_tagged() const { return over_tagged_; }
  // Resources with <= `threshold` initial posts.
  int64_t CountUnderTagged(int64_t threshold) const;

 private:
  const std::vector<PostSequence>* initial_posts_;
  const std::vector<ResourceReference>* references_;
  int omega_;
  std::vector<ResourceState> states_;
  std::vector<QualityTracker> trackers_;
  std::vector<double> qualities_;
  double quality_sum_ = 0.0;
  int64_t over_tagged_ = 0;
};

}  // namespace core
}  // namespace incentag

#endif  // INCENTAG_CORE_INITIAL_STATE_H_

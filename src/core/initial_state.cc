#include "src/core/initial_state.h"

#include <cassert>

namespace incentag {
namespace core {

InitialState::InitialState(const std::vector<PostSequence>* initial_posts,
                           const std::vector<ResourceReference>* references,
                           int omega)
    : initial_posts_(initial_posts), references_(references), omega_(omega) {
  assert(ValidateOmega(omega).ok());
  assert(initial_posts->size() == references->size());
  const size_t n = initial_posts->size();
  states_.reserve(n);
  trackers_.reserve(n);
  qualities_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    ResourceState& state = states_.emplace_back(omega);
    QualityTracker& tracker =
        trackers_.emplace_back(&(*references)[i].stable_rfd);
    for (const Post& post : (*initial_posts)[i]) {
      state.AddPost(post);
      tracker.AddPost(post, state.counts().norm_squared());
    }
    qualities_.push_back(tracker.Quality());
    quality_sum_ += qualities_.back();
    if (IsOverTagged((*references)[i], state.posts())) ++over_tagged_;
  }
}

int64_t InitialState::CountUnderTagged(int64_t threshold) const {
  int64_t count = 0;
  for (const ResourceState& state : states_) {
    if (state.posts() <= threshold) ++count;
  }
  return count;
}

}  // namespace core
}  // namespace incentag

#include "src/core/initial_state.h"

#include <limits>

namespace incentag {
namespace core {

namespace {

// Applies `post` to a resource's observable state and its quality tracker.
void Apply(PostView post, ResourceState* state, QualityTracker* tracker) {
  state->AddPost(post);
  tracker->AddPost(post, state->counts().norm_squared());
}

InitialState::Row RowOf(const ResourceState& state,
                        const QualityTracker& tracker) {
  return {state.has_ma_score() ? state.ma_score()
                               : std::numeric_limits<double>::quiet_NaN(),
          tracker.Quality()};
}

// Whether a decoded state could be some resource's state after `posts`
// posts: every part counts those posts, and the tag counts add up to
// their totals. Counts are bounded by `posts`, so the squares fit.
bool Consistent(const ResourceState& state, const QualityTracker& tracker,
                int64_t posts) {
  if (state.posts() != posts || state.ma().posts() != posts ||
      tracker.posts() != posts) {
    return false;
  }
  int64_t total = 0;
  int64_t norm_squared = 0;
  for (const auto& [tag, count] : state.counts().counts()) {
    if (count > posts) return false;
    total += count;
    norm_squared += static_cast<int64_t>(count) * count;
  }
  const double norm = static_cast<double>(norm_squared);
  return total == state.counts().total_tags() &&
         norm == state.counts().norm_squared() &&
         norm == tracker.norm_squared();
}

bool SameBytes(const ResourceState& a_state, const QualityTracker& a_tracker,
               const ResourceState& b_state,
               const QualityTracker& b_tracker) {
  std::string a;
  std::string b;
  a_state.Serialize(&a);
  a_tracker.Serialize(&a);
  b_state.Serialize(&b);
  b_tracker.Serialize(&b);
  return a == b;
}

}  // namespace

InitialState::InitialState(const PostStore* initial_posts,
                           const PostStore* future_posts,
                           const std::vector<ResourceReference>* references,
                           int omega)
    : initial_posts_(initial_posts),
      future_posts_(future_posts),
      references_(references),
      omega_(omega) {
  assert(ValidateOmega(omega).ok());
  assert(initial_posts->size() == references->size());
  assert(future_posts->size() == references->size());
  const size_t n = initial_posts->size();
  offsets_.reserve(n + 1);
  kept_offsets_.reserve(n + 1);
  tracks_ = std::make_unique<Track[]>(n);
  size_t num_rows = 0;
  size_t num_kept = 0;
  for (size_t i = 0; i < n; ++i) {
    offsets_.push_back(num_rows);
    kept_offsets_.push_back(num_kept);
    const int64_t length = future_length(i);
    num_rows += static_cast<size_t>(length) + 1;
    num_kept += static_cast<size_t>(length / kKeepEvery) + 1;
    tracks_[i].begin.store(length + 1, std::memory_order_relaxed);
  }
  offsets_.push_back(num_rows);
  kept_offsets_.push_back(num_kept);
  rows_ = std::make_unique<Row[]>(num_rows);
  kept_.resize(num_kept);
}

InitialState::~InitialState() = default;

InitialState::Kept InitialState::January(size_t i) const {
  Kept january{ResourceState(omega_),
               QualityTracker(&(*references_)[i].stable_rfd)};
  for (PostView post : (*initial_posts_)[i]) {
    Apply(post, &january.state, &january.tracker);
  }
  return january;
}

void InitialState::WalkLocked(size_t i, int64_t from, int64_t to,
                              Kept* walker) const {
  const PostSequence future = (*future_posts_)[i];
  const int64_t last = future_length(i);
  for (int64_t j = from; j < to; ++j) {
    if (j % kKeepEvery == 0) KeptSlot(i, j) = std::make_unique<Kept>(*walker);
    rows_[offsets_[i] + static_cast<size_t>(j)] =
        RowOf(walker->state, walker->tracker);
    if (j < last) {
      Apply(future[static_cast<size_t>(j)], &walker->state, &walker->tracker);
    }
  }
}

util::Status InitialState::BuildTrackLocked(size_t i) const {
  Track& track = tracks_[i];
  if (track.from_january) return util::Status::OK();
  Kept walker = January(i);
  const int64_t begin = track.begin.load(std::memory_order_relaxed);
  WalkLocked(i, 0, begin, &walker);
  if (track.seed != nullptr &&
      !SameBytes(walker.state, walker.tracker, track.seed->state,
                 track.seed->tracker)) {
    return util::Status::Corruption(
        "a snapshot seeded resource " + std::to_string(i) +
        " with a state its posts do not reach");
  }
  track.from_january = true;
  track.begin.store(0, std::memory_order_release);
  return util::Status::OK();
}

util::Status InitialState::BuildFromJanuary() const {
  util::MutexLock lock(&mu_);
  if (from_january_) return util::Status::OK();
  for (size_t i = 0; i < num_resources(); ++i) {
    INCENTAG_RETURN_IF_ERROR(BuildTrackLocked(i));
  }
  from_january_ = true;
  return util::Status::OK();
}

util::Status InitialState::Attach(size_t i, int64_t j, ResourceState state,
                                  QualityTracker tracker) const {
  assert(j >= 0 && j <= future_length(i));
  util::MutexLock lock(&mu_);
  Track& track = tracks_[i];
  const int64_t begin = track.begin.load(std::memory_order_relaxed);
  if (begin > j && begin <= future_length(i)) {
    // Seeded past j: fill the prefix from January first.
    INCENTAG_RETURN_IF_ERROR(BuildTrackLocked(i));
  }
  if (Covers(i, j)) {
    std::string want;
    std::string got;
    SerializeAt(i, j, &want, &want);
    state.Serialize(&got);
    tracker.Serialize(&got);
    if (want != got) {
      return util::Status::Corruption(
          "resource state differs from the dataset's trajectory");
    }
    return util::Status::OK();
  }
  if (!Consistent(state, tracker, initial_posts(i) + j)) {
    return util::Status::Corruption("inconsistent resource state");
  }
  auto seed =
      std::make_unique<const Kept>(Kept{std::move(state), std::move(tracker)});
  Kept walker = *seed;
  WalkLocked(i, j, future_length(i) + 1, &walker);
  track.seed = std::move(seed);
  track.seeded_at = j;
  track.begin.store(j, std::memory_order_release);
  return util::Status::OK();
}

void InitialState::SerializeAt(size_t i, int64_t j, std::string* state,
                               std::string* tracker) const {
  assert(Covers(i, j));
  const Track& track = tracks_[i];
  // The nearest kept state at or below j: the seed when it lies between
  // j's slot and j (that slot may not be built), else the slot.
  int64_t at = j - j % kKeepEvery;
  const Kept* from;
  if (track.seed != nullptr && track.seeded_at <= j && track.seeded_at >= at) {
    from = track.seed.get();
    at = track.seeded_at;
  } else {
    from = KeptSlot(i, at).get();
  }
  if (at == j) {
    from->state.Serialize(state);
    from->tracker.Serialize(tracker);
    return;
  }
  Kept walker = *from;
  const PostSequence future = (*future_posts_)[i];
  for (int64_t k = at; k < j; ++k) {
    Apply(future[static_cast<size_t>(k)], &walker.state, &walker.tracker);
  }
  walker.state.Serialize(state);
  walker.tracker.Serialize(tracker);
}

}  // namespace core
}  // namespace incentag

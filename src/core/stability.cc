#include "src/core/stability.h"

#include "src/core/allocation.h"
#include "src/util/logging.h"

namespace incentag {
namespace core {

namespace {

// The window both entry points require, checked before a MaTracker sizes
// its ring from it: 1 would divide by zero, 0 would size a ring of -1.
int CheckedOmega(int omega) {
  INCENTAG_CHECK(ValidateOmega(omega).ok());
  return omega;
}

}  // namespace

StabilityDetector::StabilityDetector(StabilityParams params)
    : params_(params), ma_(CheckedOmega(params.omega)) {}

bool StabilityDetector::AddPost(PostView post) {
  double sim = counts_.AddPost(post);
  ma_.AddAdjacentSimilarity(sim);
  if (!stable_point_.has_value() && ma_.HasScore() &&
      ma_.Score() > params_.tau) {
    stable_point_ = counts_.posts();
    stable_rfd_ = counts_.Snapshot();
    return true;
  }
  return false;
}

std::optional<double> StabilityDetector::ma_score() const {
  if (!ma_.HasScore()) return std::nullopt;
  return ma_.Score();
}

StabilityDetector ScanSequence(PostSequence posts, StabilityParams params) {
  StabilityDetector detector(params);
  for (PostView post : posts) detector.AddPost(post);
  return detector;
}

std::vector<StabilityTracePoint> StabilityTrace(PostSequence posts,
                                                StabilityParams params) {
  std::vector<StabilityTracePoint> trace;
  trace.reserve(posts.size());
  TagCounts counts;
  MaTracker ma(CheckedOmega(params.omega));
  for (PostView post : posts) {
    double sim = counts.AddPost(post);
    ma.AddAdjacentSimilarity(sim);
    StabilityTracePoint point;
    point.k = counts.posts();
    point.adjacent_similarity = sim;
    point.ma_defined = ma.HasScore();
    point.ma_score = point.ma_defined ? ma.Score() : 0.0;
    trace.push_back(point);
  }
  return trace;
}

}  // namespace core
}  // namespace incentag

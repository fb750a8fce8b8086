#include "src/core/ma_tracker.h"

#include <algorithm>
#include <cassert>

namespace incentag {
namespace core {

MaTracker::MaTracker(int omega)
    : ring_(std::make_unique<double[]>(static_cast<size_t>(omega - 1))),
      omega_(omega) {
  assert(omega >= 2);
}

MaTracker::MaTracker(const MaTracker& other)
    : posts_(other.posts_),
      last_sim_(other.last_sim_),
      window_sum_(other.window_sum_),
      ring_(std::make_unique<double[]>(other.ring_size())),
      omega_(other.omega_),
      next_(other.next_),
      filled_(other.filled_) {
  std::copy(other.ring_.get(), other.ring_.get() + ring_size(), ring_.get());
}

void MaTracker::AddAdjacentSimilarity(double sim) {
  ++posts_;
  last_sim_ = sim;
  // The window for m(k, w) covers adjacent similarities at posts
  // j = k-w+2 .. k: exactly the last w-1 values. Overwrite the oldest.
  if (filled_ == ring_size()) {
    window_sum_ -= ring_[next_];
  } else {
    ++filled_;
  }
  ring_[next_] = sim;
  window_sum_ += sim;
  next_ = (next_ + 1) % ring_size();
}

double MaTracker::Score() const {
  assert(HasScore());
  return window_sum_ / static_cast<double>(omega_ - 1);
}

void MaTracker::Serialize(std::string* out) const {
  util::wire::PutU32(out, static_cast<uint32_t>(omega_));
  util::wire::PutI64(out, posts_);
  util::wire::PutDouble(out, last_sim_);
  util::wire::PutDouble(out, window_sum_);
  // next/filled keep their 64-bit wire fields.
  util::wire::PutU64(out, next_);
  util::wire::PutU64(out, filled_);
  for (uint32_t i = 0; i < ring_size(); ++i) {
    util::wire::PutDouble(out, ring_[i]);
  }
}

bool MaTracker::Restore(util::wire::Reader* in) {
  uint32_t omega = 0;
  uint64_t next = 0;
  uint64_t filled = 0;
  if (!in->GetU32(&omega) || static_cast<int>(omega) != omega_ ||
      !in->GetI64(&posts_) || !in->GetDouble(&last_sim_) ||
      !in->GetDouble(&window_sum_) || !in->GetU64(&next) ||
      !in->GetU64(&filled)) {
    return false;
  }
  if (next >= ring_size() || filled > ring_size()) return false;
  next_ = static_cast<uint32_t>(next);
  filled_ = static_cast<uint32_t>(filled);
  for (uint32_t i = 0; i < ring_size(); ++i) {
    if (!in->GetDouble(&ring_[i])) return false;
  }
  return true;
}

}  // namespace core
}  // namespace incentag

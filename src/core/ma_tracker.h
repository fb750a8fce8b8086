// Moving Average (MA) score m_i(k, omega) — paper Definition 7.
//
//   m_i(k, w) = 1/(w-1) * sum_{j = k-w+2 .. k} s(F(j-1), F(j))
//
// i.e. the mean of the last (w-1) adjacent similarities, defined once the
// resource has received at least w posts. MaTracker keeps the last (w-1)
// adjacent similarities in a ring buffer with a running sum — the queue
// observation from Appendix C — so feeding one similarity costs O(1).
//
// The ring is a bare unique_ptr<double[]> of omega - 1 slots (its length
// comes from omega_; no size or capacity is stored) and the indices are
// 32-bit: 48 bytes a tracker on x86-64. Copying a tracker copies its
// ring. A dataset's trajectory table (initial_state.h) keeps a tracker
// per resource every InitialState::kKeepEvery rows and copies one to
// replay a resource's posts; campaigns hold none.
#ifndef INCENTAG_CORE_MA_TRACKER_H_
#define INCENTAG_CORE_MA_TRACKER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "src/util/wire.h"

namespace incentag {
namespace core {

class MaTracker {
 public:
  // omega must be >= 2 (Definition 7).
  explicit MaTracker(int omega);

  MaTracker(const MaTracker& other);
  MaTracker& operator=(const MaTracker&) = delete;
  MaTracker(MaTracker&&) noexcept = default;
  MaTracker& operator=(MaTracker&&) noexcept = default;

  int omega() const { return omega_; }
  // Number of posts observed so far (k).
  int64_t posts() const { return posts_; }

  // Records the adjacent similarity produced by the k-th post,
  // s(F(k-1), F(k)). Call once per post, in order, starting with k = 1.
  void AddAdjacentSimilarity(double sim);

  // True once k >= omega, i.e. m(k, omega) is defined.
  bool HasScore() const { return posts_ >= omega_; }

  // m_i(k, omega); requires HasScore().
  double Score() const;

  // The most recent adjacent similarity (0 before the first post).
  double LastAdjacentSimilarity() const { return last_sim_; }

  // Resumable-state round trip (campaign snapshots, journal format v2).
  // The ring buffer and running sum restore bit-exactly so the restored
  // Score() equals the live one to the last bit. Restore fails on a
  // malformed buffer or an omega mismatch.
  void Serialize(std::string* out) const;
  bool Restore(util::wire::Reader* in);

 private:
  uint32_t ring_size() const { return static_cast<uint32_t>(omega_ - 1); }

  int64_t posts_ = 0;
  double last_sim_ = 0.0;
  double window_sum_ = 0.0;
  std::unique_ptr<double[]> ring_;  // omega - 1 slots
  int32_t omega_;
  uint32_t next_ = 0;    // ring slot to overwrite
  uint32_t filled_ = 0;  // number of valid ring entries
};

// One tracker per kept state of a trajectory table (see above); x86-64
// layout.
static_assert(sizeof(MaTracker) <= 48);

}  // namespace core
}  // namespace incentag

#endif  // INCENTAG_CORE_MA_TRACKER_H_

// PostStream: the source of future posts during an allocation run.
//
// When the engine assigns a post task to resource i (paper Algorithm 1,
// steps 5-6), the completed task materialises as "the next post resource i
// would receive" — in the paper's evaluation, the next post of i's 2007
// sequence after the January cut-off. PostStream abstracts that source so
// the engine works identically over a materialised dataset
// (VectorPostStream) and over the lazily generated synthetic streams of
// src/sim.
//
// ReplayablePostStream additionally exposes random access to the future,
// which the offline-optimal DP planner requires ("this solution assumes
// that all the posts ... are known in advance", Section III-D).
#ifndef INCENTAG_CORE_POST_STREAM_H_
#define INCENTAG_CORE_POST_STREAM_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/core/types.h"
#include "src/util/status.h"

namespace incentag {
namespace core {

class PostStream {
 public:
  virtual ~PostStream() = default;

  // Number of resources the stream serves.
  virtual size_t num_resources() const = 0;

  // True if resource i can supply at least one more post.
  virtual bool HasNext(ResourceId i) = 0;

  // Consumes and returns the next post of resource i. Requires HasNext(i).
  // The reference stays valid until the next call for the same resource.
  virtual const Post& Next(ResourceId i) = 0;

  // Number of posts already consumed for resource i.
  virtual int64_t Consumed(ResourceId i) const = 0;

  // Advances resource i's cursor by `k` posts without observing them.
  // The default draws and discards, which is correct for any
  // deterministic stream; streams with cheap random access
  // (VectorPostStream) override it with an O(1) seek. A negative `k` is InvalidArgument. A failure (stream too short
  // for the requested skip) leaves the cursor position unspecified;
  // callers treat it as unrecoverable.
  virtual util::Status Skip(ResourceId i, int64_t k) {
    if (k < 0) return NegativeSkip();
    for (int64_t step = 0; step < k; ++step) {
      if (!HasNext(i)) {
        return util::Status::OutOfRange(
            "stream ran dry fast-forwarding resource " + std::to_string(i));
      }
      Next(i);
    }
    return util::Status::OK();
  }

 protected:
  static util::Status NegativeSkip() {
    return util::Status::InvalidArgument("cannot skip a negative count");
  }
};

// A PostStream whose future is fully known ahead of time.
class ReplayablePostStream : public PostStream {
 public:
  // Returns the post that the k-th future Next(i) call will yield
  // (0-based, counted from the stream's initial state, independent of the
  // current cursor). Requires k < Available(i).
  virtual const Post& Peek(ResourceId i, int64_t k) = 0;

  // Total number of future posts resource i can supply (from the initial
  // state, independent of the current cursor).
  virtual int64_t Available(ResourceId i) = 0;

  // Resets all cursors to the initial state.
  virtual void Reset() = 0;
};

// Replayable stream over per-resource post vectors (the materialised
// "rest of the year" of a prepared dataset). The posts are read-only; only
// the cursors belong to the stream, so any number of streams may read one
// vector at once, each from its own position. The cursors are allocated
// on the first Next or Skip: a CampaignRuntime reads the stream's store()
// through a trajectory table (initial_state.h) and keeps its own cursor,
// the allocation, so a campaign's stream never moves and costs no
// per-resource memory. The runtime takes this stream type only.
class VectorPostStream final : public ReplayablePostStream {
 public:
  // Owns `sequences`.
  explicit VectorPostStream(std::vector<PostSequence> sequences)
      : owned_(std::make_unique<const std::vector<PostSequence>>(
            std::move(sequences))),
        sequences_(owned_.get()) {}

  // Reads `*sequences` in place. It must outlive the stream and must not
  // change while the stream is alive.
  explicit VectorPostStream(const std::vector<PostSequence>* sequences)
      : sequences_(sequences) {}

  size_t num_resources() const override { return sequences_->size(); }

  bool HasNext(ResourceId i) override { return Consumed(i) < Available(i); }

  const Post& Next(ResourceId i) override {
    return (*sequences_)[i][static_cast<size_t>(Cursors()[i]++)];
  }

  int64_t Consumed(ResourceId i) const override {
    return cursors_.empty() ? 0 : cursors_[i];
  }

  util::Status Skip(ResourceId i, int64_t k) override {
    if (k < 0) return NegativeSkip();
    if (Consumed(i) + k > Available(i)) {
      return util::Status::OutOfRange(
          "stream ran dry fast-forwarding resource " + std::to_string(i));
    }
    Cursors()[i] += k;
    return util::Status::OK();
  }

  const Post& Peek(ResourceId i, int64_t k) override {
    return (*sequences_)[i][static_cast<size_t>(k)];
  }

  int64_t Available(ResourceId i) override {
    return static_cast<int64_t>((*sequences_)[i].size());
  }

  // Frees the cursors: every resource is back at its first post.
  void Reset() override { std::vector<int64_t>().swap(cursors_); }

  // The posts this stream reads (its own or borrowed ones).
  const std::vector<PostSequence>& store() const { return *sequences_; }
  // Whether store() is the stream's own copy, freed with the stream.
  bool owns_store() const { return owned_ != nullptr; }

 private:
  std::vector<int64_t>& Cursors() {
    if (cursors_.empty()) cursors_.assign(sequences_->size(), 0);
    return cursors_;
  }

  // Set by the owning constructor only. On the heap, so `sequences_`
  // stays valid when the stream is moved.
  std::unique_ptr<const std::vector<PostSequence>> owned_;
  const std::vector<PostSequence>* sequences_;
  // Empty until the first Next or Skip; then one cursor per resource.
  std::vector<int64_t> cursors_;
};

}  // namespace core
}  // namespace incentag

#endif  // INCENTAG_CORE_POST_STREAM_H_

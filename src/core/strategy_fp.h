// Fewest Posts First (FP) — paper Section IV-C, Algorithm 3.
//
// Always gives the next post task to the resource with the fewest posts
// (c_i + x_i). The priority queue of the paper is realised as an
// IndexedHeap so the chosen resource's key is updated in place after each
// task: O((n + B) log n) time and O(n) space as Table V states. The space
// is 20 bytes per resource: the heap's 16 and a 4-byte pending count (a
// resource never has 2^31 tasks outstanding; snapshots keep the count in
// a 64-bit field and refuse one outside int32).
//
// Ties break toward the smaller resource id, making runs deterministic.
#ifndef INCENTAG_CORE_STRATEGY_FP_H_
#define INCENTAG_CORE_STRATEGY_FP_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "src/core/strategy.h"
#include "src/util/indexed_heap.h"

namespace incentag {
namespace core {

class FewestPostsStrategy : public Strategy {
 public:
  std::string_view name() const override { return "FP"; }

  void Init(const StrategyContext& ctx) override {
    ctx_ = &ctx;
    pending_.assign(ctx.num_resources(), 0);
    heap_ = std::make_unique<util::IndexedHeap>(ctx.num_resources());
    for (ResourceId i = 0; i < ctx.num_resources(); ++i) {
      heap_->Push(i, static_cast<double>(ctx.state(i).posts()));
    }
  }

  ResourceId Choose() override {
    if (heap_->empty()) return kInvalidResource;
    return static_cast<ResourceId>(heap_->Top());
  }

  // FP orders by posts *including pending assignments* (the paper's
  // Algorithm 3 keys on c[i] + x[i], where x counts assigned tasks), so
  // a batch spreads across the level instead of piling onto one resource.
  void OnAssigned(ResourceId chosen) override {
    ++pending_[chosen];
    Rekey(chosen);
  }

  void Update(ResourceId chosen) override {
    if (pending_[chosen] > 0) --pending_[chosen];
    Rekey(chosen);
  }

  void OnExhausted(ResourceId i) override {
    if (heap_->Contains(i)) heap_->Remove(i);
  }

  // Heap membership + pending counts suffice: the heap key is always
  // posts + pending, and IndexedHeap's (priority, id) order makes the
  // rebuilt heap pick identically to the serialized one.
  void SerializeState(std::string* out) const override {
    const size_t n = pending_.size();
    util::wire::PutU64(out, static_cast<uint64_t>(n));
    for (size_t i = 0; i < n; ++i) {
      util::wire::PutU8(out, heap_->Contains(i) ? 1 : 0);
      util::wire::PutI64(out, pending_[i]);
    }
  }

  util::Status RestoreState(const StrategyContext& ctx,
                            std::string_view state) override {
    ctx_ = &ctx;
    util::wire::Reader in(state);
    uint64_t n = 0;
    if (!in.GetU64(&n) || n != ctx.num_resources()) {
      return util::Status::Corruption("malformed FP strategy state");
    }
    pending_.assign(ctx.num_resources(), 0);
    heap_ = std::make_unique<util::IndexedHeap>(ctx.num_resources());
    for (ResourceId i = 0; i < ctx.num_resources(); ++i) {
      bool in_heap = false;
      int64_t pending = 0;
      if (!in.GetBool(&in_heap) || !in.GetI64(&pending)) {
        return util::Status::Corruption("short FP strategy state");
      }
      if (pending < 0 || pending > std::numeric_limits<int32_t>::max()) {
        return util::Status::Corruption("FP pending count out of range");
      }
      pending_[i] = static_cast<int32_t>(pending);
      if (in_heap) {
        heap_->Push(i, static_cast<double>(ctx.state(i).posts() +
                                           pending_[i]));
      }
    }
    if (!in.exhausted()) {
      return util::Status::Corruption("trailing bytes in FP strategy state");
    }
    return util::Status::OK();
  }

 private:
  void Rekey(ResourceId i) {
    if (heap_->Contains(i)) {
      heap_->Update(i, static_cast<double>(ctx_->state(i).posts() +
                                           pending_[i]));
    }
  }

  const StrategyContext* ctx_ = nullptr;
  // Tasks assigned to each resource and not yet completed.
  std::vector<int32_t> pending_;
  std::unique_ptr<util::IndexedHeap> heap_;
};

}  // namespace core
}  // namespace incentag

#endif  // INCENTAG_CORE_STRATEGY_FP_H_

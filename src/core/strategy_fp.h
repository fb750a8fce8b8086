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
//
// Given a CostModel, it is FP-$, the greedy companion to the Section
// III-C variable-reward extension. With heterogeneous task costs, plain FP
// can spend the budget on resources that are expensive to reward. FP-$
// keeps FP's primary ordering (Figure 5's argument is unchanged: the
// marginal quality gain is largest at the fewest posts) and breaks ties
// toward the cheaper resource, so a level of equally-tagged resources is
// filled in ascending cost order. With uniform costs it chooses exactly
// as FP does. The snapshot format is the same with or without costs.
#ifndef INCENTAG_CORE_STRATEGY_FP_H_
#define INCENTAG_CORE_STRATEGY_FP_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "src/core/cost_model.h"
#include "src/core/strategy.h"
#include "src/util/indexed_heap.h"

namespace incentag {
namespace core {

class FewestPostsStrategy : public Strategy {
 public:
  // A cost model, when given, must outlive the strategy.
  explicit FewestPostsStrategy(const CostModel* costs = nullptr)
      : costs_(costs) {}

  std::string_view name() const override {
    return costs_ == nullptr ? "FP" : "FP-$";
  }

  void Init(const StrategyContext& ctx) override {
    ctx_ = &ctx;
    pending_.assign(ctx.num_resources(), 0);
    heap_ = std::make_unique<util::IndexedHeap>(ctx.num_resources());
    for (ResourceId i = 0; i < ctx.num_resources(); ++i) {
      heap_->Push(i, Priority(i));
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

  // For FP-MU, which runs FP as its warm-up stage: whether `i` is still
  // a candidate, its tasks in flight, and dropping those once they are
  // known to go unfilled (returns how many were dropped).
  bool Contains(ResourceId i) const { return heap_->Contains(i); }
  int32_t pending(ResourceId i) const { return pending_[i]; }
  int32_t DropPending(ResourceId i) { return std::exchange(pending_[i], 0); }
  bool HasPending() const {
    return std::any_of(pending_.begin(), pending_.end(),
                       [](int32_t p) { return p != 0; });
  }
  // Heap membership, one bit per resource: all FP-MU keeps of FP once
  // its warm-up is over.
  std::vector<bool> Members() const {
    std::vector<bool> members(pending_.size());
    for (size_t i = 0; i < members.size(); ++i) members[i] = heap_->Contains(i);
    return members;
  }

  // Heap membership + pending counts suffice: the heap key is a pure
  // function of posts, pending and the cost model, and IndexedHeap's
  // (priority, id) order makes the rebuilt heap pick identically to the
  // serialized one.
  void SerializeState(std::string* out) const override {
    const size_t n = pending_.size();
    util::wire::PutU64(out, static_cast<uint64_t>(n));
    for (size_t i = 0; i < n; ++i) {
      util::wire::PutU8(out, heap_->Contains(i) ? 1 : 0);
      util::wire::PutI64(out, pending_[i]);
    }
  }

  // The blob SerializeState writes for heap membership `members` and no
  // task pending.
  static void SerializeMembers(const std::vector<bool>& members,
                               std::string* out) {
    util::wire::PutU64(out, static_cast<uint64_t>(members.size()));
    for (bool member : members) {
      util::wire::PutU8(out, member ? 1 : 0);
      util::wire::PutI64(out, 0);
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
      if (in_heap) heap_->Push(i, Priority(i));
    }
    if (!in.exhausted()) {
      return util::Status::Corruption("trailing bytes in FP strategy state");
    }
    return util::Status::OK();
  }

 private:
  // Without costs the key is posts + pending. With costs it is the
  // lexicographic (posts + pending, cost) packed into one double: costs
  // are clamped into [0, kCostRange), and posts * kCostRange stays well
  // under 2^53 for any realistic run, so the encoding is exact.
  static constexpr int64_t kCostRange = int64_t{1} << 20;

  double Priority(ResourceId i) const {
    const double posts =
        static_cast<double>(ctx_->state(i).posts() + pending_[i]);
    if (costs_ == nullptr) return posts;
    return posts * kCostRange +
           static_cast<double>(std::min(costs_->cost(i), kCostRange - 1));
  }

  void Rekey(ResourceId i) {
    if (heap_->Contains(i)) heap_->Update(i, Priority(i));
  }

  const CostModel* costs_;
  const StrategyContext* ctx_ = nullptr;
  // Tasks assigned to each resource and not yet completed.
  std::vector<int32_t> pending_;
  std::unique_ptr<util::IndexedHeap> heap_;
};

}  // namespace core
}  // namespace incentag

#endif  // INCENTAG_CORE_STRATEGY_FP_H_

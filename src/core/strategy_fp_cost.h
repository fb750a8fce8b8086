// Cost-aware Fewest Posts First — the greedy companion to the Section
// III-C variable-reward extension.
//
// With heterogeneous task costs, plain FP can burn the budget on the
// cheapest-to-identify but most expensive-to-reward resources. This
// strategy keeps FP's primary ordering (fewest posts first — Figure 5's
// argument is unchanged: the marginal quality gain is largest there) and
// breaks ties toward the cheaper resource, so a level of equally-tagged
// resources is filled in ascending cost order. With uniform costs it
// behaves exactly like FewestPostsStrategy.
#ifndef INCENTAG_CORE_STRATEGY_FP_COST_H_
#define INCENTAG_CORE_STRATEGY_FP_COST_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "src/core/cost_model.h"
#include "src/core/strategy.h"
#include "src/util/indexed_heap.h"

namespace incentag {
namespace core {

class CostAwareFpStrategy : public Strategy {
 public:
  // The cost model must outlive the strategy.
  explicit CostAwareFpStrategy(const CostModel* costs) : costs_(costs) {}

  std::string_view name() const override { return "FP-$"; }

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

  void OnAssigned(ResourceId chosen) override {
    ++pending_[chosen];
    if (heap_->Contains(chosen)) heap_->Update(chosen, Priority(chosen));
  }

  void Update(ResourceId chosen) override {
    if (pending_[chosen] > 0) --pending_[chosen];
    if (heap_->Contains(chosen)) heap_->Update(chosen, Priority(chosen));
  }

  void OnExhausted(ResourceId i) override {
    if (heap_->Contains(i)) heap_->Remove(i);
  }

  // Same shape as FP: membership + pending rebuild the heap exactly
  // (Priority() is a pure function of posts, pending and the cost model).
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
      return util::Status::Corruption("malformed FP-$ strategy state");
    }
    pending_.assign(ctx.num_resources(), 0);
    heap_ = std::make_unique<util::IndexedHeap>(ctx.num_resources());
    for (ResourceId i = 0; i < ctx.num_resources(); ++i) {
      bool in_heap = false;
      int64_t pending = 0;
      if (!in.GetBool(&in_heap) || !in.GetI64(&pending)) {
        return util::Status::Corruption("short FP-$ strategy state");
      }
      if (pending < 0 || pending > std::numeric_limits<int32_t>::max()) {
        return util::Status::Corruption("FP-$ pending count out of range");
      }
      pending_[i] = static_cast<int32_t>(pending);
      if (in_heap) heap_->Push(i, Priority(i));
    }
    if (!in.exhausted()) {
      return util::Status::Corruption("trailing bytes in FP-$ strategy state");
    }
    return util::Status::OK();
  }

 private:
  // Lexicographic (posts, cost) packed into one double. Costs are clamped
  // into [0, kCostRange); posts * kCostRange stays well under 2^53 for any
  // realistic run, so the encoding is exact.
  static constexpr double kCostRange = 1 << 20;

  double Priority(ResourceId i) const {
    const double cost = static_cast<double>(
        std::min<int64_t>(costs_->cost(i), (1 << 20) - 1));
    return static_cast<double>(ctx_->state(i).posts() + pending_[i]) *
               kCostRange +
           cost;
  }

  const CostModel* costs_;
  const StrategyContext* ctx_ = nullptr;
  // Tasks assigned to each resource and not yet completed; 64-bit on
  // the wire, like FP's.
  std::vector<int32_t> pending_;
  std::unique_ptr<util::IndexedHeap> heap_;
};

}  // namespace core
}  // namespace incentag

#endif  // INCENTAG_CORE_STRATEGY_FP_COST_H_

// Most Unstable First (MU) — paper Section IV-D, Algorithm 4.
//
// Chooses the resource with the smallest MA score: presumably the one whose
// rfd needs stabilising the most. Resources that have received fewer than
// omega posts have no MA score and are ignored (the weakness that motivates
// FP-MU). The incremental MA maintenance of Appendix C lives in MaTracker;
// this class only orders resources, so each decision costs O(log n).
#ifndef INCENTAG_CORE_STRATEGY_MU_H_
#define INCENTAG_CORE_STRATEGY_MU_H_

#include <memory>

#include "src/core/strategy.h"
#include "src/util/indexed_heap.h"

namespace incentag {
namespace core {

class MostUnstableStrategy : public Strategy {
 public:
  std::string_view name() const override { return "MU"; }

  void Init(const StrategyContext& ctx) override {
    InitOver(ctx, [](ResourceId) { return true; });
  }

  // Init over the resources `member(i)` accepts only: FP-MU starts MU
  // from the resources its warm-up stage has not seen exhausted.
  template <typename Member>
  void InitOver(const StrategyContext& ctx, Member member) {
    ctx_ = &ctx;
    heap_ = std::make_unique<util::IndexedHeap>(ctx.num_resources());
    for (ResourceId i = 0; i < ctx.num_resources(); ++i) {
      // Algorithm 4 INIT: only resources with at least omega posts.
      if (member(i) && ctx.state(i).has_ma_score()) {
        heap_->Push(i, ctx.state(i).ma_score());
      }
    }
  }

  ResourceId Choose() override {
    if (heap_->empty()) return kInvalidResource;
    return static_cast<ResourceId>(heap_->Top());
  }

  void Update(ResourceId chosen) override {
    // The chosen resource had >= omega posts and just gained one more, so
    // its MA score is still defined. (Guard: it may have been removed by
    // OnExhausted between assignment and completion.)
    if (heap_->Contains(chosen)) {
      heap_->Update(chosen, ctx_->state(chosen).ma_score());
    }
  }

  void OnExhausted(ResourceId i) override {
    if (heap_->Contains(i)) heap_->Remove(i);
  }

  // Membership is the only non-derivable state: a member's heap key is
  // always its current MA score (Update rekeys the only resource whose
  // score can have changed), so the rebuilt heap picks identically.
  void SerializeState(std::string* out) const override {
    const size_t n = heap_->capacity();
    util::wire::PutU64(out, static_cast<uint64_t>(n));
    for (size_t i = 0; i < n; ++i) {
      util::wire::PutU8(out, heap_->Contains(i) ? 1 : 0);
    }
  }

  util::Status RestoreState(const StrategyContext& ctx,
                            std::string_view state) override {
    ctx_ = &ctx;
    util::wire::Reader in(state);
    uint64_t n = 0;
    if (!in.GetU64(&n) || n != ctx.num_resources()) {
      return util::Status::Corruption("malformed MU strategy state");
    }
    heap_ = std::make_unique<util::IndexedHeap>(ctx.num_resources());
    for (ResourceId i = 0; i < ctx.num_resources(); ++i) {
      bool in_heap = false;
      if (!in.GetBool(&in_heap)) {
        return util::Status::Corruption("short MU strategy state");
      }
      if (in_heap) {
        if (!ctx.state(i).has_ma_score()) {
          return util::Status::Corruption(
              "MU strategy state lists a member without an MA score");
        }
        heap_->Push(i, ctx.state(i).ma_score());
      }
    }
    if (!in.exhausted()) {
      return util::Status::Corruption("trailing bytes in MU strategy state");
    }
    return util::Status::OK();
  }

 private:
  const StrategyContext* ctx_ = nullptr;
  std::unique_ptr<util::IndexedHeap> heap_;
};

}  // namespace core
}  // namespace incentag

#endif  // INCENTAG_CORE_STRATEGY_MU_H_

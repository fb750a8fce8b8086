// Free Choice (FC) — paper Section IV-A.
//
// Taggers freely decide which resource to tag; CHOOSE simply returns the
// tagger's pick. FC is the baseline that models existing collaborative
// tagging systems, where attention concentrates on popular resources.
//
// The picker is injected as a callback so that core stays independent of
// the crowd model: src/sim/crowd.h supplies a popularity-biased picker.
#ifndef INCENTAG_CORE_STRATEGY_FC_H_
#define INCENTAG_CORE_STRATEGY_FC_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "src/core/strategy.h"

namespace incentag {
namespace core {

class FreeChoiceStrategy : public Strategy {
 public:
  // `picker` models one tagger choosing a resource; it is called once per
  // post task and must return a valid ResourceId.
  explicit FreeChoiceStrategy(std::function<ResourceId()> picker)
      : picker_(std::move(picker)) {}

  std::string_view name() const override { return "FC"; }

  void Init(const StrategyContext& ctx) override {
    exhausted_.assign(ctx.num_resources(), false);
    num_exhausted_ = 0;
  }

  ResourceId Choose() override {
    // Taggers never pick a resource that cannot accept posts any more; we
    // model that by redrawing (bounded, then giving up).
    if (num_exhausted_ == exhausted_.size()) return kInvalidResource;
    for (int attempt = 0; attempt < kMaxRedraws; ++attempt) {
      ResourceId pick = Draw();
      if (!exhausted_[pick]) return pick;
    }
    // Popularity weights may make redraws futile; fall back to scanning.
    for (ResourceId i = 0; i < exhausted_.size(); ++i) {
      if (!exhausted_[i]) return i;
    }
    return kInvalidResource;
  }

  void Update(ResourceId /*chosen*/) override {}

  void OnExhausted(ResourceId i) override {
    if (!exhausted_[i]) {
      exhausted_[i] = true;
      ++num_exhausted_;
    }
  }

  // The picker (typically sim::CrowdModel's seeded RNG) is opaque, so its
  // position is captured as the number of draws made and restored by
  // fast-forwarding a freshly seeded picker that many draws — cheap, and
  // it works for any deterministic picker without an RNG-state API.
  void SerializeState(std::string* out) const override {
    util::wire::PutU64(out, picks_);
    util::wire::PutU64(out, static_cast<uint64_t>(exhausted_.size()));
    for (size_t i = 0; i < exhausted_.size(); ++i) {
      util::wire::PutU8(out, exhausted_[i] ? 1 : 0);
    }
  }

  util::Status RestoreState(const StrategyContext& ctx,
                            std::string_view state) override {
    Init(ctx);
    util::wire::Reader in(state);
    uint64_t picks = 0;
    uint64_t n = 0;
    if (!in.GetU64(&picks) || !in.GetU64(&n) || n != exhausted_.size()) {
      return util::Status::Corruption("malformed FC strategy state");
    }
    for (size_t i = 0; i < exhausted_.size(); ++i) {
      bool flag = false;
      if (!in.GetBool(&flag)) {
        return util::Status::Corruption("short FC strategy state");
      }
      if (flag) {
        exhausted_[i] = true;
        ++num_exhausted_;
      }
    }
    if (!in.exhausted()) {
      return util::Status::Corruption("trailing bytes in FC strategy state");
    }
    if (picks > MaxPicks(ctx, exhausted_.size())) {
      return util::Status::Corruption("FC draw count exceeds the budget's");
    }
    while (picks_ < picks) Draw();
    return util::Status::OK();
  }

 private:
  static constexpr int kMaxRedraws = 64;

  // The most draws a campaign over n resources makes. Choose() draws at
  // most kMaxRedraws times (its scan fallback draws none), and one
  // CampaignRuntime::DrawBatch call makes at most batch_size + 1 Choose()
  // calls (one per task it assigns, and one that ends the batch) plus one
  // per resource it marks exhausted. The runtime draws a batch only once
  // the previous one is applied, and applying a non-empty batch either
  // spends at least one budget unit (every cost is at least 1) or refunds
  // its first task, which marks that task's resource exhausted. With a
  // resources marked at an apply and d at a draw (a + d <= n: each is
  // marked once), there are at most budget + a + 1 DrawBatch calls, and so
  // at most (budget + a + 1) * (batch_size + 1) + d <= (budget + n + 1) *
  // (batch_size + 1) Choose() calls. FC does not see OnAssigned, so one
  // batch may send every task to one resource and refund all but its
  // first: the bound must not assume a batch spends its size. Saturates
  // where the product would not fit.
  static uint64_t MaxPicks(const StrategyContext& ctx, size_t n) {
    constexpr uint64_t kNoBound = std::numeric_limits<uint64_t>::max();
    const uint64_t budget =
        ctx.budget > 0 ? static_cast<uint64_t>(ctx.budget) : 0;
    const uint64_t per_call =
        (ctx.batch_size > 1 ? static_cast<uint64_t>(ctx.batch_size) : 1) + 1;
    if (budget > kNoBound / 4 || n > kNoBound / 4) return kNoBound;
    const uint64_t calls = budget + n + 1;
    if (calls > kNoBound / kMaxRedraws / per_call) return kNoBound;
    return kMaxRedraws * calls * per_call;
  }

  ResourceId Draw() {
    ++picks_;
    return picker_();
  }

  std::function<ResourceId()> picker_;
  std::vector<bool> exhausted_;
  size_t num_exhausted_ = 0;
  uint64_t picks_ = 0;
};

}  // namespace core
}  // namespace incentag

#endif  // INCENTAG_CORE_STRATEGY_FC_H_

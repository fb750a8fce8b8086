// Hybrid FP-MU — paper Section IV-E, Algorithm 5.
//
// Warm-up stage: run FP until every resource has at least omega posts (the
// warm-up budget is sum_i max(0, omega - c_i), clipped to B — computed in
// Init from the initial states). Afterwards switch to MU, whose MA scores
// are then defined for all resources.
//
// Because FP always raises the globally-smallest post count, spending
// exactly the warm-up budget levels every under-omega resource to omega
// before any resource is pushed past it; the switch point is therefore
// budget-based, exactly as in Algorithm 5.
#ifndef INCENTAG_CORE_STRATEGY_FPMU_H_
#define INCENTAG_CORE_STRATEGY_FPMU_H_

#include <algorithm>
#include <cstdint>

#include "src/core/strategy.h"
#include "src/core/strategy_fp.h"
#include "src/core/strategy_mu.h"

namespace incentag {
namespace core {

class HybridFpMuStrategy : public Strategy {
 public:
  std::string_view name() const override { return "FP-MU"; }

  void Init(const StrategyContext& ctx) override {
    ctx_ = &ctx;
    warmup_remaining_ = 0;
    for (ResourceId i = 0; i < ctx.num_resources(); ++i) {
      warmup_remaining_ += std::max<int64_t>(
          0, ctx.omega - ctx.state(i).posts());
    }
    fp_.Init(ctx);
    mu_initialized_ = false;
    fp_tasks_in_flight_ = 0;
  }

  ResourceId Choose() override {
    if (InWarmup()) return fp_.Choose();
    if (!mu_initialized_) {
      // All resources now have >= omega posts; MU sees them all.
      mu_.Init(*ctx_);
      mu_initialized_ = true;
    }
    return mu_.Choose();
  }

  // Warm-up budget is committed at assignment time: in batched operation
  // the whole warm-up can be handed out before any task completes, and
  // the switch to MU must not wait for the completions.
  void OnAssigned(ResourceId chosen) override {
    if (InWarmup()) {
      fp_.OnAssigned(chosen);
      --warmup_remaining_;
      ++fp_tasks_in_flight_;
    } else {
      mu_.OnAssigned(chosen);
    }
  }

  void Update(ResourceId chosen) override {
    // Completions arrive in assignment order; route them to the stage
    // that issued the assignment.
    if (fp_tasks_in_flight_ > 0) {
      fp_.Update(chosen);
      --fp_tasks_in_flight_;
    } else {
      mu_.Update(chosen);
    }
  }

  void OnExhausted(ResourceId i) override {
    if (InWarmup()) {
      fp_.OnExhausted(i);
      // The resource can no longer be warmed up; don't wait for it.
      const int64_t deficit =
          std::max<int64_t>(0, ctx_->omega - ctx_->state(i).posts());
      warmup_remaining_ -= std::min(warmup_remaining_, deficit);
    } else {
      mu_.OnExhausted(i);
    }
  }

  // Remaining warm-up post tasks (exposed for tests).
  int64_t warmup_remaining() const { return warmup_remaining_; }
  bool InWarmup() const { return warmup_remaining_ > 0; }

  // Stage counters plus the nested FP/MU blobs, each length-prefixed so
  // the sub-strategy encodings stay opaque here.
  void SerializeState(std::string* out) const override {
    util::wire::PutI64(out, warmup_remaining_);
    util::wire::PutI64(out, fp_tasks_in_flight_);
    util::wire::PutU8(out, mu_initialized_ ? 1 : 0);
    std::string fp_state;
    fp_.SerializeState(&fp_state);
    util::wire::PutString(out, fp_state);
    std::string mu_state;
    if (mu_initialized_) mu_.SerializeState(&mu_state);
    util::wire::PutString(out, mu_state);
  }

  util::Status RestoreState(const StrategyContext& ctx,
                            std::string_view state) override {
    ctx_ = &ctx;
    util::wire::Reader in(state);
    std::string_view fp_state;
    std::string_view mu_state;
    if (!in.GetI64(&warmup_remaining_) || !in.GetI64(&fp_tasks_in_flight_) ||
        !in.GetBool(&mu_initialized_) || !in.GetStringView(&fp_state) ||
        !in.GetStringView(&mu_state) || !in.exhausted()) {
      return util::Status::Corruption("malformed FP-MU strategy state");
    }
    INCENTAG_RETURN_IF_ERROR(fp_.RestoreState(ctx, fp_state));
    if (mu_initialized_) {
      INCENTAG_RETURN_IF_ERROR(mu_.RestoreState(ctx, mu_state));
    } else if (!mu_state.empty()) {
      return util::Status::Corruption(
          "FP-MU strategy state carries an MU blob before the switch");
    }
    return util::Status::OK();
  }

 private:
  const StrategyContext* ctx_ = nullptr;
  FewestPostsStrategy fp_;
  MostUnstableStrategy mu_;
  int64_t warmup_remaining_ = 0;
  int64_t fp_tasks_in_flight_ = 0;
  bool mu_initialized_ = false;
};

}  // namespace core
}  // namespace incentag

#endif  // INCENTAG_CORE_STRATEGY_FPMU_H_

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
//
// Space: FP's 20 bytes per resource during the warm-up (strategy_fp.h).
// Once the warm-up is handed out and none of FP's tasks is still in
// flight, FP is freed. FP-MU then keeps one bit per resource, FP's heap
// membership, which MU starts from and FP's snapshot blob still carries,
// and MU's 16 bytes.
#ifndef INCENTAG_CORE_STRATEGY_FPMU_H_
#define INCENTAG_CORE_STRATEGY_FPMU_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

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
    fp_ = std::make_unique<FewestPostsStrategy>();
    fp_->Init(ctx);
    mu_initialized_ = false;
    fp_tasks_in_flight_ = 0;
    FreeFpOnceDone();
  }

  ResourceId Choose() override {
    if (InWarmup()) return fp_->Choose();
    if (!mu_initialized_) {
      // MU starts from FP's live members, never from one FP has seen
      // exhausted.
      mu_.InitOver(*ctx_, [this](ResourceId i) { return FpMember(i); });
      mu_initialized_ = true;
    }
    return mu_.Choose();
  }

  // Warm-up budget is committed at assignment time: in batched operation
  // the whole warm-up can be handed out before any task completes, and
  // the switch to MU must not wait for the completions.
  void OnAssigned(ResourceId chosen) override {
    if (InWarmup()) {
      fp_->OnAssigned(chosen);
      --warmup_remaining_;
      ++fp_tasks_in_flight_;
    } else {
      mu_.OnAssigned(chosen);
    }
  }

  // Completions arrive in assignment order, and every FP task was
  // assigned before the first MU task, so a resource with FP tasks in
  // flight completes those first. MU, once started, rekeys a member an
  // FP task lands on, so its keys stay the members' MA scores.
  void Update(ResourceId chosen) override {
    if (fp_ != nullptr && fp_->pending(chosen) > 0) {
      fp_->Update(chosen);
      --fp_tasks_in_flight_;
      if (mu_initialized_) mu_.Update(chosen);
      FreeFpOnceDone();
    } else {
      mu_.Update(chosen);
    }
  }

  // Both stages drop the resource while they are live. Its FP tasks in
  // flight go unfilled, and the runtime reports no completion for them.
  void OnExhausted(ResourceId i) override {
    if (fp_ != nullptr) {
      const int32_t unfilled = fp_->DropPending(i);
      fp_tasks_in_flight_ -= unfilled;
      fp_->OnExhausted(i);
      if (InWarmup()) {
        // The resource can no longer be warmed up; don't wait for it.
        const int64_t deficit = std::max<int64_t>(
            0, ctx_->omega - ctx_->state(i).posts() - unfilled);
        warmup_remaining_ -= std::min(warmup_remaining_, deficit);
      }
      FreeFpOnceDone();
    }
    if (mu_initialized_) mu_.OnExhausted(i);
  }

  // Remaining warm-up post tasks (exposed for tests).
  int64_t warmup_remaining() const { return warmup_remaining_; }
  bool InWarmup() const { return warmup_remaining_ > 0; }
  // Whether FP has been freed (exposed for tests).
  bool fp_freed() const { return fp_ == nullptr; }

  // Stage counters plus the nested FP/MU blobs, each length-prefixed so
  // the sub-strategy encodings stay opaque here. A freed FP's blob is
  // its membership with no task pending, as FP itself would write it.
  void SerializeState(std::string* out) const override {
    util::wire::PutI64(out, warmup_remaining_);
    util::wire::PutI64(out, fp_tasks_in_flight_);
    util::wire::PutU8(out, mu_initialized_ ? 1 : 0);
    std::string fp_state;
    if (fp_ != nullptr) {
      fp_->SerializeState(&fp_state);
    } else {
      FewestPostsStrategy::SerializeMembers(fp_members_, &fp_state);
    }
    util::wire::PutString(out, fp_state);
    std::string mu_state;
    if (mu_initialized_) mu_.SerializeState(&mu_state);
    util::wire::PutString(out, mu_state);
  }

  // Refuses the states no run reaches: MU started while warm-up remains,
  // or FP tasks pending once none is in flight.
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
    if (mu_initialized_ && InWarmup()) {
      return util::Status::Corruption(
          "FP-MU strategy state runs MU while warm-up remains");
    }
    fp_ = std::make_unique<FewestPostsStrategy>();
    INCENTAG_RETURN_IF_ERROR(fp_->RestoreState(ctx, fp_state));
    if (!FpLive() && fp_->HasPending()) {
      return util::Status::Corruption(
          "FP-MU strategy state has FP tasks pending and none in flight");
    }
    FreeFpOnceDone();
    if (mu_initialized_) {
      INCENTAG_RETURN_IF_ERROR(mu_.RestoreState(ctx, mu_state));
    } else if (!mu_state.empty()) {
      return util::Status::Corruption(
          "FP-MU strategy state carries an MU blob before the switch");
    }
    return util::Status::OK();
  }

 private:
  // FP still has a say: warm-up remains or one of its tasks is in flight.
  bool FpLive() const { return InWarmup() || fp_tasks_in_flight_ > 0; }

  bool FpMember(ResourceId i) const {
    return fp_ != nullptr ? fp_->Contains(i) : fp_members_[i];
  }

  // Keeps FP's membership and frees the rest of it once it has no say.
  void FreeFpOnceDone() {
    if (fp_ == nullptr || FpLive()) return;
    fp_members_ = fp_->Members();
    fp_.reset();
  }

  const StrategyContext* ctx_ = nullptr;
  // The warm-up stage; null once freed.
  std::unique_ptr<FewestPostsStrategy> fp_;
  // FP's heap membership once FP is freed.
  std::vector<bool> fp_members_;
  MostUnstableStrategy mu_;
  int64_t warmup_remaining_ = 0;
  int64_t fp_tasks_in_flight_ = 0;
  bool mu_initialized_ = false;
};

}  // namespace core
}  // namespace incentag

#endif  // INCENTAG_CORE_STRATEGY_FPMU_H_

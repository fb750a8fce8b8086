// Round Robin (RR) — paper Section IV-B, Algorithm 2.
//
// Chooses resources cyclically, ignoring their post counts and stability.
// O(1) per decision and O(n) space, as Table V states.
#ifndef INCENTAG_CORE_STRATEGY_RR_H_
#define INCENTAG_CORE_STRATEGY_RR_H_

#include <vector>

#include "src/core/strategy.h"

namespace incentag {
namespace core {

class RoundRobinStrategy : public Strategy {
 public:
  std::string_view name() const override { return "RR"; }

  void Init(const StrategyContext& ctx) override {
    n_ = ctx.num_resources();
    next_ = 0;
    exhausted_.assign(n_, false);
    num_exhausted_ = 0;
  }

  ResourceId Choose() override {
    if (num_exhausted_ == n_) return kInvalidResource;
    // Skip resources that ran out of posts; at most one full cycle.
    for (size_t step = 0; step < n_; ++step) {
      ResourceId candidate = static_cast<ResourceId>((next_ + step) % n_);
      if (!exhausted_[candidate]) {
        next_ = (next_ + step) % n_;  // OnAssigned advances past it.
        return candidate;
      }
    }
    return kInvalidResource;
  }

  // The cursor advances when the task is handed out, so a batch visits n
  // distinct resources instead of re-assigning the same one.
  void OnAssigned(ResourceId /*chosen*/) override {
    next_ = (next_ + 1) % n_;
  }

  void Update(ResourceId /*chosen*/) override {}

  void OnExhausted(ResourceId i) override {
    if (!exhausted_[i]) {
      exhausted_[i] = true;
      ++num_exhausted_;
    }
    next_ = (next_ + 1) % n_;
  }

  void SerializeState(std::string* out) const override {
    util::wire::PutU64(out, static_cast<uint64_t>(next_));
    util::wire::PutU64(out, static_cast<uint64_t>(n_));
    for (size_t i = 0; i < n_; ++i) {
      util::wire::PutU8(out, exhausted_[i] ? 1 : 0);
    }
  }

  util::Status RestoreState(const StrategyContext& ctx,
                            std::string_view state) override {
    Init(ctx);
    util::wire::Reader in(state);
    uint64_t next = 0;
    uint64_t n = 0;
    if (!in.GetU64(&next) || !in.GetU64(&n) || n != n_ ||
        (n_ != 0 && next >= n_)) {
      return util::Status::Corruption("malformed RR strategy state");
    }
    next_ = static_cast<size_t>(next);
    for (size_t i = 0; i < n_; ++i) {
      bool flag = false;
      if (!in.GetBool(&flag)) {
        return util::Status::Corruption("short RR strategy state");
      }
      if (flag) {
        exhausted_[i] = true;
        ++num_exhausted_;
      }
    }
    if (!in.exhausted()) {
      return util::Status::Corruption("trailing bytes in RR strategy state");
    }
    return util::Status::OK();
  }

 private:
  size_t n_ = 0;
  size_t next_ = 0;
  std::vector<bool> exhausted_;
  size_t num_exhausted_ = 0;
};

}  // namespace core
}  // namespace incentag

#endif  // INCENTAG_CORE_STRATEGY_RR_H_

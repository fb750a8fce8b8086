// The incentive-allocation strategy interface (paper Algorithm 1).
//
// The engine invests one reward unit at a time: it asks the strategy to
// CHOOSE a resource, presents the resource to a tagger (draws the next post
// from the stream), applies the post, then calls UPDATE so the strategy can
// refresh its bookkeeping. INIT runs once before the loop.
//
// Strategies observe the world exclusively through StrategyContext: the
// per-resource online states (post counts and MA scores). They never see
// reference stable rfds or unconsumed future posts — only the DP planner
// (dp_planner.h), which the paper calls "of theoretical interest only", is
// allowed those.
#ifndef INCENTAG_CORE_STRATEGY_H_
#define INCENTAG_CORE_STRATEGY_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/resource_state.h"
#include "src/core/types.h"
#include "src/util/status.h"
#include "src/util/wire.h"

namespace incentag {
namespace core {

// What a strategy sees of one resource: its post count and its MA score.
// A view is computed on every StrategyContext::state() call, never kept:
// it is the resource as it stands at that call, and a copy held across a
// completion goes stale.
class ResourceView {
 public:
  // `ma_score` is NaN while the score is undefined (posts < omega).
  ResourceView(int64_t posts, double ma_score)
      : posts_(posts), ma_score_(ma_score) {}

  // Number of posts received so far (c_i + x_i during a run).
  int64_t posts() const { return posts_; }
  // True once the MA score m(k, omega) is defined (k >= omega).
  bool has_ma_score() const { return !std::isnan(ma_score_); }
  // Requires has_ma_score().
  double ma_score() const { return ma_score_; }

 private:
  int64_t posts_;
  double ma_score_;
};

// Where a StrategyContext's views come from. A CampaignRuntime computes
// resource i's view from its allocation x_i and the dataset's trajectory
// table (campaign_runtime.h); ResourceStateViews computes it from a
// hand-driven ResourceState. Neither copies a view per resource.
class ViewSource {
 public:
  virtual size_t num_resources() const = 0;
  virtual ResourceView View(ResourceId i) const = 0;

 protected:
  ~ViewSource() = default;
};

// A ViewSource over caller-owned ResourceStates, for tests and benches
// that feed states themselves: a state's AddPost shows in its next view.
class ResourceStateViews final : public ViewSource {
 public:
  // `states` must outlive the views; it may grow between reads.
  explicit ResourceStateViews(const std::vector<ResourceState>* states)
      : states_(states) {}

  size_t num_resources() const override { return states_->size(); }
  ResourceView View(ResourceId i) const override {
    const ResourceState& state = (*states_)[i];
    return ResourceView(state.posts(),
                        state.has_ma_score()
                            ? state.ma_score()
                            : std::numeric_limits<double>::quiet_NaN());
  }

 private:
  const std::vector<ResourceState>* states_;
};

// Read-only view of the observable world, owned by the engine for the
// whole run. state(i) reads resource i as it stands: a completed post
// shows from the Update() that reports it on.
struct StrategyContext {
  const ViewSource* views = nullptr;
  // MA window omega used by MU / FP-MU (paper default: 5).
  int omega = 5;
  // The campaign's budget B and tasks per batch (at least 1); they bound
  // the state a restore accepts.
  int64_t budget = 0;
  int64_t batch_size = 1;

  size_t num_resources() const { return views->num_resources(); }
  ResourceView state(ResourceId i) const { return views->View(i); }
};

class Strategy {
 public:
  virtual ~Strategy() = default;

  // Short identifier used in reports ("FC", "RR", "FP", "MU", "FP-MU",
  // "DP").
  virtual std::string_view name() const = 0;

  // Called once before the budget loop with the initial states (the posts
  // already received, c_i). The context outlives the run.
  virtual void Init(const StrategyContext& ctx) = 0;

  // Returns the resource to receive the next post task, or
  // kInvalidResource when the strategy cannot choose (e.g. MU with no
  // MA-eligible resource); the engine then stops the run early.
  virtual ResourceId Choose() = 0;

  // Called immediately after Choose() when the task is *assigned* (budget
  // committed) but before any tagger completes it. In batched operation
  // (EngineOptions::batch_size > 1, modelling the Figure-2 crowdsourcing
  // flow where many tasks are posted concurrently) several assignments
  // happen before any completion, so bookkeeping that must see pending
  // tasks — FP's post counts, FP-MU's warm-up budget, a plan's remaining
  // allocation — belongs here. Default: nothing.
  virtual void OnAssigned(ResourceId /*chosen*/) {}

  // Called after the chosen resource's state has been updated with the
  // completed post task.
  virtual void Update(ResourceId chosen) = 0;

  // Called when the stream ran out of posts for `i` (only possible with
  // materialised datasets). The strategy must stop proposing `i`.
  virtual void OnExhausted(ResourceId i) = 0;

  // ---- resumable state (campaign snapshots, journal format v2) ----
  //
  // SerializeState appends the strategy's internal state to *out between
  // two engine steps; RestoreState is called INSTEAD of Init on a fresh
  // instance and must leave it behaving exactly as the serialized one —
  // the same Choose/Update sequence going forward, so a snapshot-restored
  // campaign is byte-identical to a journal replay. Heap-based strategies
  // need not serialize their heap layout: IndexedHeap orders by
  // (priority, id), so rebuilding from keys reproduces the same picks.
  //
  // The defaults cover a stateless strategy only: nothing serialized, and
  // RestoreState == Init (rejecting a non-empty blob). Every strategy
  // with internal counters, pending bookkeeping or an RNG must override
  // both.
  virtual void SerializeState(std::string* /*out*/) const {}
  virtual util::Status RestoreState(const StrategyContext& ctx,
                                    std::string_view state) {
    if (!state.empty()) {
      return util::Status::InvalidArgument(
          "strategy " + std::string(name()) +
          " does not implement RestoreState but was given state");
    }
    Init(ctx);
    return util::Status::OK();
  }
};

}  // namespace core
}  // namespace incentag

#endif  // INCENTAG_CORE_STRATEGY_H_

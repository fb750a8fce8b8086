#include "src/core/campaign_runtime.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <string_view>

#include "src/obs/metrics.h"
#include "src/util/logging.h"
#include "src/util/wire.h"

namespace incentag {
namespace core {

namespace internal {

// Incremental evaluation state for the whole resource set (the Section V
// metrics of allocation.h, maintained in O(1) per applied task). The
// per-resource qualities are the trajectory table's; only the four
// scalars are the campaign's own.
class Evaluation {
 public:
  Evaluation(const InitialState& initial, int64_t under_threshold)
      : initial_(initial), under_threshold_(under_threshold) {}

  // The time-zero evaluation, from every resource's January row: the
  // quality sum in index order (bit-exact with a replay), the over-tagged
  // count and the under-tagged count for this campaign's threshold.
  void StartAtJanuary() {
    for (size_t i = 0; i < initial_.num_resources(); ++i) {
      const int64_t posts = initial_.initial_posts(i);
      quality_sum_ += initial_.row(i, 0).quality;
      if (IsOverTagged(initial_.references()[i], posts)) ++over_tagged_;
      if (posts <= under_threshold_) ++under_tagged_;
    }
  }

  // Accounts for one completed post task on resource i, its j-th (j >= 1).
  void OnPostTask(size_t i, int64_t j) {
    const ResourceReference& reference = initial_.references()[i];
    const int64_t posts_after = initial_.initial_posts(i) + j;
    const int64_t posts_before = posts_after - 1;
    if (IsOverTagged(reference, posts_before)) {
      ++wasted_posts_;
    } else if (IsOverTagged(reference, posts_after)) {
      ++over_tagged_;  // crossed the stable point with this task
    }
    if (posts_before <= under_threshold_ && posts_after > under_threshold_) {
      --under_tagged_;
    }
    quality_sum_ += initial_.row(i, j).quality - initial_.row(i, j - 1).quality;
  }

  AllocationMetrics Snapshot(int64_t budget_used, size_t n) const {
    AllocationMetrics m;
    m.budget_used = budget_used;
    m.avg_quality = n == 0 ? 0.0 : quality_sum_ / static_cast<double>(n);
    m.over_tagged = over_tagged_;
    m.wasted_posts = wasted_posts_;
    m.under_tagged = under_tagged_;
    return m;
  }

  // Resumable-state round trip of the scalars (campaign snapshots).
  // quality_sum_ is an order-dependent float accumulation, so it is
  // serialized bit-exactly rather than recomputed.
  void Serialize(std::string* out) const {
    util::wire::PutDouble(out, quality_sum_);
    util::wire::PutI64(out, over_tagged_);
    util::wire::PutI64(out, under_tagged_);
    util::wire::PutI64(out, wasted_posts_);
  }
  bool Restore(util::wire::Reader* in) {
    return in->GetDouble(&quality_sum_) && in->GetI64(&over_tagged_) &&
           in->GetI64(&under_tagged_) && in->GetI64(&wasted_posts_);
  }

 private:
  const InitialState& initial_;
  int64_t under_threshold_;
  double quality_sum_ = 0.0;
  int64_t over_tagged_ = 0;
  int64_t under_tagged_ = 0;
  int64_t wasted_posts_ = 0;
};

}  // namespace internal

CampaignRuntime::CampaignRuntime(
    EngineOptions options, const PostStore* initial_posts,
    const std::vector<ResourceReference>* references)
    : options_(std::move(options)),
      initial_posts_(initial_posts),
      references_(references) {
  assert(initial_posts_ != nullptr && references_ != nullptr);
  assert(initial_posts_->size() == references_->size());
  assert(std::is_sorted(options_.checkpoints.begin(),
                        options_.checkpoints.end()));
}

CampaignRuntime::~CampaignRuntime() = default;

int64_t CampaignRuntime::CostOf(ResourceId i) const {
  return options_.costs == nullptr ? 1 : options_.costs->cost(i);
}

void CampaignRuntime::RecordCheckpointsThrough(int64_t budget_used) {
  // With non-unit costs the spend can jump past a checkpoint; record the
  // first state at or beyond it.
  bool recorded = false;
  while (next_checkpoint_ < options_.checkpoints.size() &&
         options_.checkpoints[next_checkpoint_] <= budget_used) {
    if (!recorded) {
      checkpoints_.push_back(
          eval_->Snapshot(budget_used, initial_posts_->size()));
      recorded = true;
    }
    ++next_checkpoint_;
  }
}

util::Status CampaignRuntime::AttachInitialState(
    const VectorPostStream& stream,
    std::shared_ptr<const InitialState> initial) {
  const size_t n = initial_posts_->size();
  if (stream.num_resources() != n) {
    return util::Status::InvalidArgument(
        "stream resource count does not match the engine's");
  }
  if (options_.costs != nullptr && options_.costs->num_resources() != n) {
    return util::Status::InvalidArgument(
        "cost model resource count does not match the engine's");
  }
  INCENTAG_RETURN_IF_ERROR(ValidateOmega(options_.omega));
  if (initial == nullptr) {
    initial = std::make_shared<const InitialState>(
        initial_posts_, &stream.store(), references_, options_.omega);
  } else if (!initial->BuiltFor(initial_posts_, &stream.store(), references_,
                                options_.omega)) {
    return util::Status::InvalidArgument(
        "initial state was built for another dataset, post store or omega");
  }
  initial_ = std::move(initial);
  return util::Status::OK();
}

util::Status CampaignRuntime::Begin(
    Strategy* strategy, const VectorPostStream* stream,
    std::shared_ptr<const InitialState> initial) {
  if (options_.budget < 0) {
    return util::Status::InvalidArgument("budget must be non-negative");
  }
  INCENTAG_RETURN_IF_ERROR(AttachInitialState(*stream, std::move(initial)));
  util::Status built = initial_->BuildFromJanuary();
  if (!built.ok()) {
    initial_.reset();
    return built;
  }
  strategy_ = strategy;

  // Every resource starts at its January row.
  const size_t n = initial_posts_->size();
  allocation_.assign(n, 0);
  exhausted_.assign(n, false);
  eval_ = std::make_unique<internal::Evaluation>(
      *initial_, options_.under_tagged_threshold);
  eval_->StartAtJanuary();

  ctx_.views = this;
  ctx_.omega = options_.omega;
  ctx_.budget = options_.budget;
  ctx_.batch_size = std::max<int64_t>(1, options_.batch_size);

  timer_.Restart();
  strategy_->Init(ctx_);
  RecordCheckpointsThrough(0);
  return util::Status::OK();
}

util::Status CampaignRuntime::DrawBatch(std::vector<ResourceId>* batch) {
  INCENTAG_CHECK(eval_ != nullptr);  // between Begin and Finish
  batch->clear();
  if (done()) return util::Status::OK();
  const size_t n = initial_posts_->size();
  const int64_t batch_size = ctx_.batch_size;

  // Commit up to batch_size tasks on current (stale) information. Budget
  // for the batch is reserved as it is handed out.
  int64_t committed = 0;
  while (static_cast<int64_t>(batch->size()) < batch_size) {
    ResourceId chosen = strategy_->Choose();
    if (chosen == kInvalidResource) break;
    if (chosen >= n) {
      return util::Status::Internal("strategy chose an invalid resource id");
    }
    const int64_t task_cost = CostOf(chosen);
    // A resource is unusable if its future posts ran out or its reward
    // amount no longer fits in the total remaining budget (budgets only
    // shrink, so both conditions are permanent).
    if (Exhausted(chosen) ||
        task_cost > options_.budget - spent_) {
      if (exhausted_[chosen]) {
        return util::Status::Internal(
            "strategy re-proposed an exhausted resource");
      }
      exhausted_[chosen] = true;
      strategy_->OnExhausted(chosen);
      continue;  // no reward units consumed; ask again
    }
    // Affordable overall but not within this batch's reservation: close
    // the batch and retry after its completions (refunds may free budget).
    if (task_cost > options_.budget - spent_ - committed) break;
    strategy_->OnAssigned(chosen);
    committed += task_cost;
    batch->push_back(chosen);
  }
  if (batch->empty()) stopped_early_ = true;
  return util::Status::OK();
}

void CampaignRuntime::ApplyCompletionBatch(const ResourceId* chosen,
                                           size_t count) {
  INCENTAG_CHECK(eval_ != nullptr);  // between Begin and Finish
  // Hoisted invariants: the cost model is fixed at Begin, and
  // next_checkpoint_ only advances — once every checkpoint is recorded
  // the whole RecordCheckpointsThrough call is dead weight per task.
  const CostModel* costs = options_.costs;
  const bool checkpoints_pending =
      next_checkpoint_ < options_.checkpoints.size();
  const int64_t tasks_before = tasks_completed_;
  const int64_t spent_before = spent_;
  for (size_t k = 0; k < count; ++k) {
    const ResourceId resource = chosen[k];
    // A task whose resource ran dry mid-batch is unfilled; its reserved
    // budget is released.
    if (Exhausted(resource)) {
      if (!exhausted_[resource]) {
        exhausted_[resource] = true;
        strategy_->OnExhausted(resource);
      }
      continue;
    }
    // The post itself is the table's: only the allocation moves.
    const int64_t j = ++allocation_[resource];
    eval_->OnPostTask(resource, j);
    strategy_->Update(resource);
    ++tasks_completed_;
    spent_ += costs == nullptr ? 1 : costs->cost(resource);
    if (checkpoints_pending) RecordCheckpointsThrough(spent_);
  }
  // Batch-level, not per-task: one striped add per quantum keeps the
  // per-task loop free of shared-line traffic.
  static obs::Counter* tasks_applied = obs::Registry::Default().GetCounter(
      "incentag_core_tasks_applied_total",
      "Completed tasks applied to campaign state");
  static obs::Counter* budget_spent = obs::Registry::Default().GetCounter(
      "incentag_core_budget_spent_total",
      "Budget units spent across all campaigns");
  tasks_applied->Add(tasks_completed_ - tasks_before);
  budget_spent->Add(spent_ - spent_before);
}

AllocationMetrics CampaignRuntime::Metrics() const {
  INCENTAG_CHECK(eval_ != nullptr);  // between Begin and Finish
  return eval_->Snapshot(spent_, initial_posts_->size());
}

namespace {

// Bumped when the resumable-state layout changes incompatibly; a
// mismatch makes recovery fall back to full journal replay rather than
// guess at old bytes.
constexpr uint32_t kRuntimeStateVersion = 1;

void PutMetrics(std::string* out, const AllocationMetrics& m) {
  util::wire::PutI64(out, m.budget_used);
  util::wire::PutDouble(out, m.avg_quality);
  util::wire::PutI64(out, m.over_tagged);
  util::wire::PutI64(out, m.wasted_posts);
  util::wire::PutI64(out, m.under_tagged);
}

bool GetMetrics(util::wire::Reader* in, AllocationMetrics* m) {
  return in->GetI64(&m->budget_used) && in->GetDouble(&m->avg_quality) &&
         in->GetI64(&m->over_tagged) && in->GetI64(&m->wasted_posts) &&
         in->GetI64(&m->under_tagged);
}

// A resource whose snapshot state seeds the table (InitialState::Attach).
struct Seed {
  size_t i;
  ResourceState state;
  QualityTracker tracker;
};

// Reads a blob's per-resource section: every resource's state, the
// resource count, every quality tracker, every quality. Where `initial`
// is built at a resource's allocation the bytes must equal its rebuild;
// the other resources are decoded into *seeds, in index order.
util::Status ReadResources(const InitialState& initial,
                           const std::vector<int64_t>& allocation, int omega,
                           util::wire::Reader* in, std::vector<Seed>* seeds) {
  const size_t n = allocation.size();
  std::string expected;
  std::string expected_trackers;
  std::vector<size_t> tracker_ends;  // per built resource, in order
  for (size_t i = 0; i < n; ++i) {
    if (initial.Covers(i, allocation[i])) {
      expected.clear();
      initial.SerializeAt(i, allocation[i], &expected, &expected_trackers);
      tracker_ends.push_back(expected_trackers.size());
      if (!in->SkipExpected(expected)) {
        return util::Status::Corruption(
            "resource state differs from the dataset's trajectory");
      }
      continue;
    }
    Seed& seed = seeds->emplace_back(
        Seed{i, ResourceState(omega),
             QualityTracker(&initial.references()[i].stable_rfd)});
    if (!seed.state.Restore(in)) {
      return util::Status::Corruption("malformed resource state");
    }
  }
  uint64_t encoded_n = 0;
  if (!in->GetU64(&encoded_n) || encoded_n != n) {
    return util::Status::Corruption("runtime state quality tracker count");
  }
  auto seed = seeds->begin();
  auto tracker_end = tracker_ends.begin();
  size_t tracker_begin = 0;
  for (size_t i = 0; i < n; ++i) {
    if (seed != seeds->end() && seed->i == i) {
      if (!(seed++)->tracker.Restore(in)) {
        return util::Status::Corruption("malformed quality tracker");
      }
      continue;
    }
    const std::string_view want = std::string_view(expected_trackers)
                                      .substr(tracker_begin,
                                              *tracker_end - tracker_begin);
    tracker_begin = *tracker_end++;
    if (!in->SkipExpected(want)) {
      return util::Status::Corruption(
          "quality tracker differs from the dataset's trajectory");
    }
  }
  seed = seeds->begin();
  for (size_t i = 0; i < n; ++i) {
    double quality = 0.0;
    if (!in->GetDouble(&quality)) {
      return util::Status::Corruption("short runtime state qualities");
    }
    const double want = seed != seeds->end() && seed->i == i
                            ? (seed++)->tracker.Quality()
                            : initial.row(i, allocation[i]).quality;
    if (std::bit_cast<uint64_t>(quality) != std::bit_cast<uint64_t>(want)) {
      return util::Status::Corruption(
          "resource quality differs from its state");
    }
  }
  return util::Status::OK();
}

}  // namespace

util::Status CampaignRuntime::SerializeResumableState(
    std::string* out) const {
  if (eval_ == nullptr || strategy_ == nullptr) {
    return util::Status::FailedPrecondition(
        "runtime state can only be serialized between Begin and Finish");
  }
  const size_t n = initial_posts_->size();
  util::wire::PutU32(out, kRuntimeStateVersion);
  util::wire::PutU64(out, static_cast<uint64_t>(n));
  util::wire::PutI64(out, spent_);
  util::wire::PutI64(out, tasks_completed_);
  util::wire::PutU8(out, stopped_early_ ? 1 : 0);
  util::wire::PutU64(out, static_cast<uint64_t>(next_checkpoint_));
  for (int64_t x : allocation_) util::wire::PutI64(out, x);
  for (size_t i = 0; i < n; ++i) {
    util::wire::PutU8(out, exhausted_[i] ? 1 : 0);
  }
  util::wire::PutU32(out, static_cast<uint32_t>(checkpoints_.size()));
  for (const AllocationMetrics& m : checkpoints_) PutMetrics(out, m);
  // Every resource's state and quality tracker at its allocation, then
  // its quality, then the evaluation's scalars.
  std::string trackers;
  for (size_t i = 0; i < n; ++i) {
    initial_->SerializeAt(i, allocation_[i], out, &trackers);
  }
  util::wire::PutU64(out, static_cast<uint64_t>(n));
  out->append(trackers);
  for (size_t i = 0; i < n; ++i) {
    util::wire::PutDouble(out, initial_->row(i, allocation_[i]).quality);
  }
  eval_->Serialize(out);
  // Format v1's stream cursors: a campaign's cursor is its allocation.
  for (int64_t x : allocation_) util::wire::PutI64(out, x);
  std::string strategy_state;
  strategy_->SerializeState(&strategy_state);
  util::wire::PutString(out, strategy_state);
  return util::Status::OK();
}

util::Status CampaignRuntime::RestoreResumableState(
    std::string_view state, Strategy* strategy,
    const VectorPostStream* stream,
    std::shared_ptr<const InitialState> initial) {
  if (eval_ != nullptr) {
    return util::Status::FailedPrecondition(
        "RestoreResumableState replaces Begin on a fresh runtime");
  }
  INCENTAG_RETURN_IF_ERROR(AttachInitialState(*stream, std::move(initial)));
  const size_t n = initial_posts_->size();
  util::wire::Reader in(state);
  uint32_t version = 0;
  uint64_t encoded_n = 0;
  uint64_t next_checkpoint = 0;
  if (!in.GetU32(&version) || version != kRuntimeStateVersion) {
    return util::Status::Corruption("unsupported runtime state version");
  }
  if (!in.GetU64(&encoded_n) || encoded_n != n) {
    return util::Status::Corruption(
        "runtime state resource count does not match the dataset");
  }
  if (!in.GetI64(&spent_) || !in.GetI64(&tasks_completed_) ||
      !in.GetBool(&stopped_early_) || !in.GetU64(&next_checkpoint)) {
    return util::Status::Corruption("short runtime state header");
  }
  if (next_checkpoint > options_.checkpoints.size()) {
    return util::Status::Corruption(
        "runtime state checkpoint cursor out of range");
  }
  next_checkpoint_ = static_cast<size_t>(next_checkpoint);

  allocation_.assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (!in.GetI64(&allocation_[i])) {
      return util::Status::Corruption("short runtime state allocation");
    }
    if (allocation_[i] < 0 || allocation_[i] > initial_->future_length(i)) {
      return util::Status::Corruption(
          "runtime state allocation exceeds the resource's future posts");
    }
  }
  exhausted_.assign(n, false);
  for (size_t i = 0; i < n; ++i) {
    bool flag = false;
    if (!in.GetBool(&flag)) {
      return util::Status::Corruption("short runtime state exhausted set");
    }
    exhausted_[i] = flag;
  }
  uint32_t num_checkpoints = 0;
  if (!in.GetU32(&num_checkpoints) ||
      num_checkpoints > options_.checkpoints.size() + 1) {
    return util::Status::Corruption("runtime state checkpoint count");
  }
  checkpoints_.clear();
  checkpoints_.reserve(num_checkpoints);
  for (uint32_t i = 0; i < num_checkpoints; ++i) {
    AllocationMetrics m;
    if (!GetMetrics(&in, &m)) {
      return util::Status::Corruption("short runtime state checkpoints");
    }
    checkpoints_.push_back(m);
  }

  // The per-resource section; the seeds attach once the whole blob has
  // parsed.
  std::vector<Seed> seeds;
  INCENTAG_RETURN_IF_ERROR(ReadResources(*initial_, allocation_,
                                         options_.omega, &in, &seeds));
  eval_ = std::make_unique<internal::Evaluation>(
      *initial_, options_.under_tagged_threshold);
  if (!eval_->Restore(&in)) {
    eval_.reset();
    return util::Status::Corruption("malformed runtime evaluation state");
  }

  // Format v1's stream cursors: each must be the allocation.
  for (size_t i = 0; i < n; ++i) {
    int64_t consumed = 0;
    if (!in.GetI64(&consumed) || consumed != allocation_[i]) {
      eval_.reset();
      return util::Status::Corruption(
          "runtime stream cursor differs from the allocation");
    }
  }

  std::string_view strategy_state;
  if (!in.GetStringView(&strategy_state) || !in.exhausted()) {
    eval_.reset();
    return util::Status::Corruption("malformed runtime strategy state");
  }
  for (Seed& seed : seeds) {
    util::Status attached =
        initial_->Attach(seed.i, allocation_[seed.i], std::move(seed.state),
                         std::move(seed.tracker));
    if (!attached.ok()) {
      eval_.reset();
      return attached;
    }
  }
  strategy_ = strategy;
  ctx_.views = this;
  ctx_.omega = options_.omega;
  ctx_.budget = options_.budget;
  ctx_.batch_size = std::max<int64_t>(1, options_.batch_size);
  timer_.Restart();
  util::Status restored = strategy_->RestoreState(ctx_, strategy_state);
  if (!restored.ok()) {
    eval_.reset();
    strategy_ = nullptr;
    return restored;
  }
  return util::Status::OK();
}

RunReport CampaignRuntime::Finish() {
  INCENTAG_CHECK(eval_ != nullptr);  // after Begin, at most once
  RunReport report;
  report.strategy_name = std::string(strategy_->name());
  report.elapsed_seconds = timer_.ElapsedSeconds();
  report.allocation = std::move(allocation_);
  report.checkpoints = std::move(checkpoints_);
  report.budget_spent = spent_;
  report.stopped_early = stopped_early_;
  report.final_metrics = eval_->Snapshot(spent_, initial_posts_->size());
  if (report.checkpoints.empty() ||
      report.checkpoints.back().budget_used != spent_) {
    report.checkpoints.push_back(report.final_metrics);
  }
  // The campaign is over: free its per-resource state (swapping with an
  // empty container releases the storage; clear() would keep it).
  std::vector<bool>().swap(exhausted_);
  eval_.reset();
  initial_.reset();
  return report;
}

}  // namespace core
}  // namespace incentag

// Fleet-wide metrics registry: lock-free sharded counters, gauges and
// fixed-boundary histograms (ISSUE 6).
//
// The service runs millions of completions/sec across worker, tagger,
// sink and compactor threads; its telemetry must cost nothing on that
// hot path. The write side is therefore striped: every Counter/Histogram
// is spread over kStripes cache-line-aligned cells, a thread is pinned to stripe
// (thread ordinal % kStripes), and an increment is one relaxed atomic
// add on a line no other stripe touches. Aggregation (summing the
// stripes) happens only at scrape time, in Registry::Snapshot().
//
// Usage — call sites cache the handle in a function-local static, so the
// registry mutex is paid once per site, not per increment:
//
//   static obs::Counter* tasks = obs::Registry::Default().GetCounter(
//       "incentag_core_tasks_applied_total", "Completions applied");
//   tasks->Add(batch_size);
//
// Metric objects live as long as their Registry (the Default() registry
// leaks deliberately — instrumented code may run during static
// teardown). Naming conventions and cardinality rules: src/obs/README.md.
//
// Compile-time kill switch: building with INCENTAG_OBS_DISABLED turns
// every Add/Observe/Set into a no-op (registration still works, values
// stay 0) for embedders that want the instrumented code paths without
// the atomics. bench_micro_obs measures both variants.
#ifndef INCENTAG_OBS_METRICS_H_
#define INCENTAG_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/export.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace incentag {
namespace obs {

#ifdef INCENTAG_OBS_DISABLED
inline constexpr bool kMetricsEnabled = false;
#else
inline constexpr bool kMetricsEnabled = true;
#endif

// Stripes per metric. A power of two so the pin is a mask, sized to keep
// same-stripe collisions rare at the worker counts the service runs
// (collisions only cost a shared cache line, never correctness).
inline constexpr size_t kStripes = 16;

// Monotonic wall clock in nanoseconds (steady_clock), shared by the
// latency histograms and the trace ring so spans and metrics agree.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// The calling thread's stripe: threads take the next ordinal on first
// use, so a fixed pool spreads evenly instead of hashing ids.
inline size_t ThreadStripe() {
  static std::atomic<size_t> next_ordinal{0};
  thread_local const size_t stripe =
      next_ordinal.fetch_add(1, std::memory_order_relaxed) & (kStripes - 1);
  return stripe;
}

namespace internal {
// One striped cell; the alignment keeps stripes on distinct cache lines
// so concurrent increments never false-share.
struct alignas(64) CounterCell {
  std::atomic<int64_t> value{0};
};

// fetch_add for atomic<double> via CAS — portable to standard libraries
// without C++20 floating-point fetch_add. Uncontended in practice: each
// stripe has one writer thread almost always.
inline void AtomicAddDouble(std::atomic<double>* target, double delta) {
  double current = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(current, current + delta,
                                        std::memory_order_relaxed)) {
  }
}
}  // namespace internal

// Monotonically increasing sum. Hot-path Add is one relaxed atomic add
// on the caller's stripe; Value() sums the stripes (approximate while
// writers run, exact once they quiesce — standard scrape semantics).
class Counter {
 public:
  void Add(int64_t delta) {
    if constexpr (kMetricsEnabled) {
      cells_[ThreadStripe()].value.fetch_add(delta,
                                             std::memory_order_relaxed);
    } else {
      (void)delta;
    }
  }
  void Increment() { Add(1); }

  int64_t Value() const {
    int64_t sum = 0;
    for (const auto& cell : cells_) {
      sum += cell.value.load(std::memory_order_relaxed);
    }
    return sum;
  }

  const std::string& name() const { return name_; }
  const std::string& labels() const { return labels_; }

 private:
  friend class Registry;
  Counter(std::string name, std::string labels, std::string help)
      : name_(std::move(name)),
        labels_(std::move(labels)),
        help_(std::move(help)) {}

  const std::string name_;
  const std::string labels_;
  const std::string help_;
  internal::CounterCell cells_[kStripes];
};

// A settable instantaneous value (depths, in-flight counts). Not
// striped: Set is last-writer-wins by nature, and Add-style gauges see
// far fewer writes than the hot-path counters.
class Gauge {
 public:
  void Set(int64_t value) {
    if constexpr (kMetricsEnabled) {
      value_.store(value, std::memory_order_relaxed);
    } else {
      (void)value;
    }
  }
  void Add(int64_t delta) {
    if constexpr (kMetricsEnabled) {
      value_.fetch_add(delta, std::memory_order_relaxed);
    } else {
      (void)delta;
    }
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  Gauge(std::string name, std::string labels, std::string help)
      : name_(std::move(name)),
        labels_(std::move(labels)),
        help_(std::move(help)) {}

  const std::string name_;
  const std::string labels_;
  const std::string help_;
  std::atomic<int64_t> value_{0};
};

// Fixed-boundary histogram: Observe finds the bucket for `value` among
// the ascending upper bounds set at registration (values past the last
// bound land in an implicit +Inf bucket) and does one relaxed add on the
// caller's stripe; the running sum is a per-stripe atomic double.
class Histogram {
 public:
  void Observe(double value);

  // Aggregated copy (buckets summed across stripes).
  HistogramSample Snapshot() const;

  uint64_t Count() const;
  double Sum() const;
  const std::vector<double>& bounds() const { return bounds_; }

 private:
  friend class Registry;
  Histogram(std::string name, std::string labels, std::string help,
            std::vector<double> bounds);

  struct alignas(64) Stripe {
    std::unique_ptr<std::atomic<uint64_t>[]> buckets;  // bounds+1 slots
    std::atomic<double> sum{0.0};
  };

  const std::string name_;
  const std::string labels_;
  const std::string help_;
  const std::vector<double> bounds_;
  Stripe stripes_[kStripes];
};

// Bucket-bound builders. Exponential is the workhorse: latencies span
// microseconds to seconds, sizes span 1 to thousands.
std::vector<double> ExponentialBounds(double start, double factor,
                                      int count);
// 1us .. ~67s in powers of two — the shared latency layout, so every
// duration histogram (fsync, quantum, queue wait, compaction) is
// directly comparable.
std::vector<double> LatencyBoundsSeconds();
// 1 .. 8192 in powers of two, for batch-size histograms.
std::vector<double> BatchSizeBounds();

// Owns every metric it hands out; get-or-create keyed by name+labels, so
// repeated registration from independent call sites converges on one
// instrument. Registration takes a mutex (cache the pointer — see the
// header comment); returned pointers stay valid for the registry's
// lifetime and are never unregistered.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // The process-wide registry every built-in instrumentation site uses.
  // Leaked on purpose: never destroyed, so increments during static
  // teardown stay safe.
  static Registry& Default();

  Counter* GetCounter(std::string_view name, std::string_view help,
                      std::string_view labels = {}) EXCLUDES(mu_);
  Gauge* GetGauge(std::string_view name, std::string_view help,
                  std::string_view labels = {}) EXCLUDES(mu_);
  // `bounds` applies on first registration of this name+labels; later
  // calls return the existing histogram unchanged.
  Histogram* GetHistogram(std::string_view name, std::string_view help,
                          std::vector<double> bounds,
                          std::string_view labels = {}) EXCLUDES(mu_);

  MetricsSnapshot Snapshot() const EXCLUDES(mu_);

 private:
  // One entry per registered metric, in registration order (exactly one
  // of the pointers is set).
  struct Entry {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* FindLocked(std::string_view name, std::string_view labels) const
      REQUIRES(mu_);

  mutable util::Mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_ GUARDED_BY(mu_);
};

// Observes the wall time of a scope into a histogram — the idiom for
// step/fsync/compaction durations. Null histogram = disabled site.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram)
      : histogram_(histogram), start_ns_(NowNs()) {}
  ~ScopedTimer() {
    if (histogram_ != nullptr) {
      histogram_->Observe(static_cast<double>(NowNs() - start_ns_) * 1e-9);
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* histogram_;
  uint64_t start_ns_;
};

}  // namespace obs
}  // namespace incentag

#endif  // INCENTAG_OBS_METRICS_H_

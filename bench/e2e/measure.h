// Measurement plumbing for the end-to-end benchmark: raw-sample
// percentiles, deltas of the program's obs instruments over timed
// phases, the benchmark's own spans, and the metric table it prints.
#ifndef INCENTAG_BENCH_E2E_MEASURE_H_
#define INCENTAG_BENCH_E2E_MEASURE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/export.h"
#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace incentag {
namespace e2e {

// ------------------------------------------------------------ percentiles

// A nearest-rank percentile of raw samples. `resolved` holds when at
// least 10 samples lie strictly beyond the rank — the rule for which tail
// percentile a sample count can support (p95 needs 200 samples, p99 1000).
struct Percentile {
  double value = 0.0;
  size_t samples = 0;
  bool resolved = false;
};

Percentile NearestRank(std::vector<double> samples, double q);
double Median(std::vector<double> samples);

// ------------------------------------------------------------ obs deltas

// Sums of obs instruments over one or more timed phases: Begin() before a
// phase, End() after it; counts accumulate across phases. Histograms keep
// only count, sum and exact per-bucket counts — never the interpolated
// Quantile, which guesses inside a bucket.
class ObsDelta {
 public:
  void Begin();
  void End();

  // Counter delta by name + labels; an empty `labels` sums every series
  // of that name.
  int64_t Counter(std::string_view name, std::string_view labels = {}) const;
  uint64_t HistCount(std::string_view name,
                     std::string_view labels = {}) const;
  double HistSum(std::string_view name, std::string_view labels = {}) const;
  // Mean of one histogram series over the phases; 0 when it saw nothing.
  double HistMean(std::string_view name, std::string_view labels = {}) const;
  // Observations in buckets whose lower edge is at least `lower_edge`
  // (i.e. values > lower_edge). Exact when `lower_edge` is a bucket bound.
  uint64_t HistCountAbove(std::string_view name, double lower_edge) const;

 private:
  struct Hist {
    std::vector<double> bounds;
    std::vector<uint64_t> counts;
    uint64_t count = 0;
    double sum = 0.0;
  };
  static std::string Key(std::string_view name, std::string_view labels);

  obs::MetricsSnapshot start_;
  std::map<std::string, int64_t> counters_;
  std::map<std::string, Hist> hists_;
};

// ------------------------------------------------------------ spans

// The benchmark's own spans around every call it makes into a layer,
// kept in memory per thread and written out at exit. Parents come from a
// per-thread stack of open spans; `request` ties one tagger's pull and
// post together. Disabled recorders cost one branch per span.
struct SpanRecord {
  const char* name = nullptr;   // string literal
  const char* layer = nullptr;  // string literal
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  uint32_t tid = 0;
};

class SpanLog {
 public:
  static SpanLog& Get();

  // Toggle only while no other thread records spans (between rounds).
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Opens a span on the calling thread; Close() records it. Both are
  // no-ops while disabled (Open returns 0).
  uint64_t Open();
  void Close(uint64_t id, const char* name, const char* layer,
             uint64_t start_ns, uint64_t request);

  std::vector<SpanRecord> Collect() const;

 private:
  struct ThreadBuffer {
    uint32_t tid = 0;
    std::vector<SpanRecord> spans;
    std::vector<uint64_t> stack;
  };
  ThreadBuffer* ThisThread();

  bool enabled_ = false;
  mutable util::Mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_ GUARDED_BY(mu_);
};

// RAII span; latches the enabled state at construction.
class Span {
 public:
  Span(const char* name, const char* layer, uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  const char* layer_;
  uint64_t request_;
  uint64_t id_;
  uint64_t start_ns_;
};

// One event from the program's obs::Trace ring export.
struct RingEvent {
  std::string name;
  double ts_us = 0.0;
  double dur_us = 0.0;
  uint64_t tid = 0;
};

// Parses the traceEvents of obs::Trace::ExportChromeJson(). The export's
// layout is fixed by src/obs/trace.cc, so a field scan suffices.
std::vector<RingEvent> ParseRingExport(std::string_view json);

// A timed phase on the obs::NowNs clock.
struct Window {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

// Self time per layer over the spans and ring events that start inside
// `windows`: each one's duration minus the part of it covered by spans
// nested inside it on the same thread. Waits (queue_wait, wait_all) are
// not work and are left out.
std::map<std::string, double> SelfSecondsByLayer(
    const std::vector<SpanRecord>& spans, const std::vector<RingEvent>& ring,
    const std::vector<Window>& windows);

// Writes spans and ring events as one Chrome trace_event document.
util::Status WriteChromeTrace(const std::string& path,
                              const std::vector<SpanRecord>& spans,
                              std::string_view ring_export);

// ------------------------------------------------------------ metrics

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  // Raw-sample count behind a percentile or mean; -1 when not a sample
  // statistic.
  int64_t samples = -1;
  bool resolved = true;
};

class MetricTable {
 public:
  void Add(std::string name, double value, std::string unit);
  void AddPercentile(std::string name, const Percentile& p, std::string unit);
  void AddSampled(std::string name, double value, std::string unit,
                  size_t samples);
  const Metric* Find(std::string_view name) const;
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

// Shortest round-trip decimal form of `v` (all its digits, no padding).
std::string FormatDouble(double v);

}  // namespace e2e
}  // namespace incentag

#endif  // INCENTAG_BENCH_E2E_MEASURE_H_

#include "src/obs/metrics.h"

#include <algorithm>

namespace incentag {
namespace obs {

Histogram::Histogram(std::string name, std::string labels, std::string help,
                     std::vector<double> bounds)
    : name_(std::move(name)),
      labels_(std::move(labels)),
      help_(std::move(help)),
      bounds_([&bounds] {
        std::sort(bounds.begin(), bounds.end());
        bounds.erase(std::unique(bounds.begin(), bounds.end()),
                     bounds.end());
        return std::move(bounds);
      }()) {
  for (Stripe& stripe : stripes_) {
    stripe.buckets =
        std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
    for (size_t i = 0; i <= bounds_.size(); ++i) {
      stripe.buckets[i].store(0, std::memory_order_relaxed);
    }
  }
}

void Histogram::Observe(double value) {
  // First bound >= value; everything past the last bound is overflow.
  const size_t bucket = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  Stripe& stripe = stripes_[ThreadStripe()];
  stripe.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  internal::AtomicAddDouble(&stripe.sum, value);
}

HistogramSample Histogram::Snapshot() const {
  HistogramSample sample;
  sample.name = name_;
  sample.labels = labels_;
  sample.help = help_;
  sample.bounds = bounds_;
  sample.counts.assign(bounds_.size() + 1, 0);
  for (const Stripe& stripe : stripes_) {
    for (size_t i = 0; i <= bounds_.size(); ++i) {
      sample.counts[i] += stripe.buckets[i].load(std::memory_order_relaxed);
    }
    sample.sum += stripe.sum.load(std::memory_order_relaxed);
  }
  for (uint64_t c : sample.counts) sample.count += c;
  return sample;
}

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (const Stripe& stripe : stripes_) {
    for (size_t i = 0; i <= bounds_.size(); ++i) {
      total += stripe.buckets[i].load(std::memory_order_relaxed);
    }
  }
  return total;
}

double Histogram::Sum() const {
  double total = 0.0;
  for (const Stripe& stripe : stripes_) {
    total += stripe.sum.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<double> ExponentialBounds(double start, double factor,
                                      int count) {
  std::vector<double> bounds;
  bounds.reserve(static_cast<size_t>(count > 0 ? count : 0));
  double bound = start;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

std::vector<double> LatencyBoundsSeconds() {
  return ExponentialBounds(1e-6, 2.0, 27);  // 1us .. ~67s
}

std::vector<double> BatchSizeBounds() {
  return ExponentialBounds(1.0, 2.0, 14);  // 1 .. 8192
}

Registry& Registry::Default() {
  static Registry* registry = new Registry();  // leaked; see header
  return *registry;
}

Registry::Entry* Registry::FindLocked(std::string_view name,
                                      std::string_view labels) const {
  // Linear scan: registration happens once per call site (cached in a
  // static), so the registry stays small and scan cost is irrelevant.
  for (const auto& entry : entries_) {
    const std::string* entry_name = nullptr;
    const std::string* entry_labels = nullptr;
    if (entry->counter != nullptr) {
      entry_name = &entry->counter->name_;
      entry_labels = &entry->counter->labels_;
    } else if (entry->gauge != nullptr) {
      entry_name = &entry->gauge->name_;
      entry_labels = &entry->gauge->labels_;
    } else {
      entry_name = &entry->histogram->name_;
      entry_labels = &entry->histogram->labels_;
    }
    if (*entry_name == name && *entry_labels == labels) return entry.get();
  }
  return nullptr;
}

Counter* Registry::GetCounter(std::string_view name, std::string_view help,
                              std::string_view labels) {
  util::MutexLock lock(&mu_);
  if (Entry* existing = FindLocked(name, labels)) return existing->counter.get();
  auto entry = std::make_unique<Entry>();
  entry->counter.reset(new Counter(std::string(name), std::string(labels),
                                   std::string(help)));
  Counter* out = entry->counter.get();
  entries_.push_back(std::move(entry));
  return out;
}

Gauge* Registry::GetGauge(std::string_view name, std::string_view help,
                          std::string_view labels) {
  util::MutexLock lock(&mu_);
  if (Entry* existing = FindLocked(name, labels)) return existing->gauge.get();
  auto entry = std::make_unique<Entry>();
  entry->gauge.reset(
      new Gauge(std::string(name), std::string(labels), std::string(help)));
  Gauge* out = entry->gauge.get();
  entries_.push_back(std::move(entry));
  return out;
}

Histogram* Registry::GetHistogram(std::string_view name,
                                  std::string_view help,
                                  std::vector<double> bounds,
                                  std::string_view labels) {
  util::MutexLock lock(&mu_);
  if (Entry* existing = FindLocked(name, labels)) {
    return existing->histogram.get();
  }
  auto entry = std::make_unique<Entry>();
  entry->histogram.reset(new Histogram(std::string(name),
                                       std::string(labels),
                                       std::string(help),
                                       std::move(bounds)));
  Histogram* out = entry->histogram.get();
  entries_.push_back(std::move(entry));
  return out;
}

MetricsSnapshot Registry::Snapshot() const {
  util::MutexLock lock(&mu_);
  MetricsSnapshot snapshot;
  for (const auto& entry : entries_) {
    if (entry->counter != nullptr) {
      const Counter& c = *entry->counter;
      snapshot.counters.push_back(
          CounterSample{c.name_, c.labels_, c.help_, c.Value()});
    } else if (entry->gauge != nullptr) {
      const Gauge& g = *entry->gauge;
      snapshot.gauges.push_back(
          GaugeSample{g.name_, g.labels_, g.help_, g.Value()});
    } else {
      snapshot.histograms.push_back(entry->histogram->Snapshot());
    }
  }
  return snapshot;
}

}  // namespace obs
}  // namespace incentag

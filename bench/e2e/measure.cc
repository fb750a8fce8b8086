#include "bench/e2e/measure.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/obs/metrics.h"

namespace incentag {
namespace e2e {

// ------------------------------------------------------------ percentiles

Percentile NearestRank(std::vector<double> samples, double q) {
  Percentile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  out.value = samples[rank - 1];
  out.resolved = n - rank >= 10;
  return out;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

// ------------------------------------------------------------ obs deltas

std::string ObsDelta::Key(std::string_view name, std::string_view labels) {
  std::string key(name);
  key += '{';
  key += labels;
  key += '}';
  return key;
}

void ObsDelta::Begin() { start_ = obs::Registry::Default().Snapshot(); }

void ObsDelta::End() {
  const obs::MetricsSnapshot end = obs::Registry::Default().Snapshot();
  for (const obs::CounterSample& c : end.counters) {
    const obs::CounterSample* before = start_.FindCounter(c.name, c.labels);
    counters_[Key(c.name, c.labels)] +=
        c.value - (before == nullptr ? 0 : before->value);
  }
  for (const obs::HistogramSample& h : end.histograms) {
    const obs::HistogramSample* before =
        start_.FindHistogram(h.name, h.labels);
    Hist& acc = hists_[Key(h.name, h.labels)];
    if (acc.counts.empty()) {
      acc.bounds = h.bounds;
      acc.counts.assign(h.counts.size(), 0);
    }
    for (size_t i = 0; i < h.counts.size(); ++i) {
      acc.counts[i] +=
          h.counts[i] - (before == nullptr ? 0 : before->counts[i]);
    }
    acc.count += h.count - (before == nullptr ? 0 : before->count);
    acc.sum += h.sum - (before == nullptr ? 0.0 : before->sum);
  }
}

int64_t ObsDelta::Counter(std::string_view name,
                          std::string_view labels) const {
  if (!labels.empty()) {
    auto it = counters_.find(Key(name, labels));
    return it == counters_.end() ? 0 : it->second;
  }
  const std::string prefix = std::string(name) + "{";
  int64_t sum = 0;
  for (auto it = counters_.lower_bound(prefix);
       it != counters_.end() &&
       it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    sum += it->second;
  }
  return sum;
}

uint64_t ObsDelta::HistCount(std::string_view name,
                             std::string_view labels) const {
  auto it = hists_.find(Key(name, labels));
  return it == hists_.end() ? 0 : it->second.count;
}

double ObsDelta::HistSum(std::string_view name,
                         std::string_view labels) const {
  auto it = hists_.find(Key(name, labels));
  return it == hists_.end() ? 0.0 : it->second.sum;
}

double ObsDelta::HistMean(std::string_view name,
                          std::string_view labels) const {
  const uint64_t count = HistCount(name, labels);
  return count == 0 ? 0.0 : HistSum(name, labels) / static_cast<double>(count);
}

uint64_t ObsDelta::HistCountAbove(std::string_view name,
                                  double lower_edge) const {
  auto it = hists_.find(Key(name, {}));
  if (it == hists_.end()) return 0;
  const Hist& h = it->second;
  uint64_t above = 0;
  // Bucket i holds (bounds[i-1], bounds[i]]; the last slot is +Inf.
  for (size_t i = 0; i < h.counts.size(); ++i) {
    const double lower = i == 0 ? -INFINITY : h.bounds[i - 1];
    if (lower >= lower_edge) above += h.counts[i];
  }
  return above;
}

// ------------------------------------------------------------ spans

SpanLog& SpanLog::Get() {
  static SpanLog* log = new SpanLog();
  return *log;
}

SpanLog::ThreadBuffer* SpanLog::ThisThread() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<ThreadBuffer>();
    buffer = owned.get();
    util::MutexLock lock(&mu_);
    owned->tid = static_cast<uint32_t>(buffers_.size() + 1);
    buffers_.push_back(std::move(owned));
  }
  return buffer;
}

uint64_t SpanLog::Open() {
  if (!enabled_) return 0;
  static std::atomic<uint64_t> next_id{1};
  const uint64_t id = next_id.fetch_add(1, std::memory_order_relaxed);
  ThisThread()->stack.push_back(id);
  return id;
}

void SpanLog::Close(uint64_t id, const char* name, const char* layer,
                    uint64_t start_ns, uint64_t request) {
  if (id == 0) return;
  const uint64_t end_ns = obs::NowNs();
  ThreadBuffer* buffer = ThisThread();
  buffer->stack.pop_back();
  SpanRecord record;
  record.name = name;
  record.layer = layer;
  record.start_ns = start_ns;
  record.end_ns = end_ns;
  record.id = id;
  record.parent = buffer->stack.empty() ? 0 : buffer->stack.back();
  record.request = request;
  record.tid = buffer->tid;
  buffer->spans.push_back(record);
}

std::vector<SpanRecord> SpanLog::Collect() const {
  util::MutexLock lock(&mu_);
  std::vector<SpanRecord> out;
  for (const auto& buffer : buffers_) {
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return out;
}

Span::Span(const char* name, const char* layer, uint64_t request)
    : name_(name),
      layer_(layer),
      request_(request),
      id_(SpanLog::Get().Open()),
      start_ns_(id_ == 0 ? 0 : obs::NowNs()) {}

Span::~Span() {
  SpanLog::Get().Close(id_, name_, layer_, start_ns_, request_);
}

std::vector<RingEvent> ParseRingExport(std::string_view json) {
  std::vector<RingEvent> events;
  const std::string_view kName = "{\"name\":\"";
  size_t pos = 0;
  while ((pos = json.find(kName, pos)) != std::string_view::npos) {
    pos += kName.size();
    const size_t name_end = json.find('"', pos);
    if (name_end == std::string_view::npos) break;
    RingEvent event;
    event.name = std::string(json.substr(pos, name_end - pos));
    auto field = [&](std::string_view key) -> double {
      const size_t at = json.find(key, name_end);
      if (at == std::string_view::npos) return 0.0;
      return std::strtod(json.data() + at + key.size(), nullptr);
    };
    event.ts_us = field("\"ts\":");
    event.dur_us = field("\"dur\":");
    event.tid = static_cast<uint64_t>(field("\"tid\":"));
    events.push_back(std::move(event));
    pos = name_end;
  }
  return events;
}

namespace {

// The layer a ring span belongs to; null for waits.
const char* RingLayer(std::string_view name) {
  if (name == "quantum") return "service";
  if (name == "journal_append" || name == "fsync" || name == "compact") {
    return "persist";
  }
  return nullptr;  // queue_wait
}

}  // namespace

std::map<std::string, double> SelfSecondsByLayer(
    const std::vector<SpanRecord>& spans, const std::vector<RingEvent>& ring,
    const std::vector<Window>& windows) {
  auto inside = [&windows](double start_us) {
    for (const Window& w : windows) {
      if (start_us >= static_cast<double>(w.start_ns) / 1e3 &&
          start_us < static_cast<double>(w.end_ns) / 1e3) {
        return true;
      }
    }
    return false;
  };
  struct Interval {
    uint64_t tid;
    double start_us;
    double end_us;
    const char* layer;
    double children_us = 0.0;
  };
  std::vector<Interval> all;
  // Bench threads and program threads live in separate tid spaces.
  constexpr uint64_t kBenchTidBase = uint64_t{1} << 40;
  for (const SpanRecord& s : spans) {
    const double start_us = static_cast<double>(s.start_ns) / 1e3;
    if (std::string_view(s.name) == "wait_all" || !inside(start_us)) continue;
    all.push_back(Interval{kBenchTidBase + s.tid, start_us,
                           static_cast<double>(s.end_ns) / 1e3, s.layer});
  }
  for (const RingEvent& e : ring) {
    const char* layer = RingLayer(e.name);
    if (layer == nullptr || !inside(e.ts_us)) continue;
    all.push_back(Interval{e.tid, e.ts_us, e.ts_us + e.dur_us, layer});
  }
  std::sort(all.begin(), all.end(), [](const Interval& a, const Interval& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_us != b.start_us) return a.start_us < b.start_us;
    return a.end_us > b.end_us;
  });
  std::vector<Interval*> stack;
  for (Interval& cur : all) {
    while (!stack.empty() && (stack.back()->tid != cur.tid ||
                              stack.back()->end_us <= cur.start_us)) {
      stack.pop_back();
    }
    if (!stack.empty() && cur.end_us <= stack.back()->end_us) {
      stack.back()->children_us += cur.end_us - cur.start_us;
    }
    stack.push_back(&cur);
  }
  std::map<std::string, double> self;
  for (const Interval& i : all) {
    self[i.layer] +=
        std::max(0.0, i.end_us - i.start_us - i.children_us) / 1e6;
  }
  return self;
}

util::Status WriteChromeTrace(const std::string& path,
                              const std::vector<SpanRecord>& spans,
                              std::string_view ring_export) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return util::Status::IoError("cannot open " + path);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", file);
  bool first = true;
  for (const SpanRecord& s : spans) {
    std::fprintf(file,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                 "\"args\":{\"id\":%llu,\"parent\":%llu,\"request\":%llu}}",
                 first ? "" : ",", s.name, s.layer,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.tid,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
    first = false;
  }
  // The ring export is {"traceEvents":[...],"metadata":{...}}; splice
  // its events in as the program's own process (pid 0).
  const std::string_view open = "\"traceEvents\":[";
  const size_t begin = ring_export.find(open);
  const size_t end = ring_export.rfind("],\"metadata\"");
  if (begin != std::string_view::npos && end != std::string_view::npos &&
      end > begin + open.size()) {
    const std::string_view events =
        ring_export.substr(begin + open.size(), end - begin - open.size());
    if (!first) std::fputc(',', file);
    std::fwrite(events.data(), 1, events.size(), file);
  }
  std::fputs("]}\n", file);
  if (std::fclose(file) != 0) {
    return util::Status::IoError("short write to " + path);
  }
  return util::Status::OK();
}

// ------------------------------------------------------------ metrics

void MetricTable::Add(std::string name, double value, std::string unit) {
  metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
}

void MetricTable::AddPercentile(std::string name, const Percentile& p,
                                std::string unit) {
  metrics_.push_back(Metric{std::move(name), p.value, std::move(unit),
                            static_cast<int64_t>(p.samples), p.resolved});
}

void MetricTable::AddSampled(std::string name, double value, std::string unit,
                             size_t samples) {
  metrics_.push_back(Metric{std::move(name), value, std::move(unit),
                            static_cast<int64_t>(samples), samples > 0});
}

const Metric* MetricTable::Find(std::string_view name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string FormatDouble(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

}  // namespace e2e
}  // namespace incentag

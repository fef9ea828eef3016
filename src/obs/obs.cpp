#include "obs/obs.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/json.hpp"

namespace vpga::obs {
namespace {

thread_local ObsContext* tl_context = nullptr;

void append_double(std::string& out, double v) {
  out += json::format_double(v);  // shortest faithful form; non-finite -> "0"
}

}  // namespace

int histogram_bucket(double v) {
  if (!(v > 1.0)) return 0;  // v <= 1, NaN and negatives land in bucket 0
  double bound = 1.0;
  for (int i = 1; i < kHistogramBuckets; ++i) {
    bound *= 2.0;
    if (v <= bound) return i;
  }
  return kHistogramBuckets - 1;
}

double histogram_bucket_bound(int i) {
  if (i >= kHistogramBuckets - 1) return std::numeric_limits<double>::infinity();
  return std::ldexp(1.0, i);  // 2^i
}

void MetricsRegistry::add(std::string_view name, long long delta) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) {
    it->second += delta;
  } else {
    counters_.emplace(std::string(name), delta);
  }
}

void MetricsRegistry::set_gauge(std::string_view name, double value) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) {
    it->second = value;
  } else {
    gauges_.emplace(std::string(name), value);
  }
}

void MetricsRegistry::observe(std::string_view name, double value) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_.emplace(std::string(name), HistogramData{}).first;
  HistogramData& h = it->second;
  if (h.buckets.empty()) h.buckets.assign(kHistogramBuckets, 0);
  if (h.count == 0) {
    h.min = value;
    h.max = value;
  } else {
    h.min = std::min(h.min, value);
    h.max = std::max(h.max, value);
  }
  ++h.count;
  h.sum += value;
  ++h.buckets[static_cast<std::size_t>(histogram_bucket(value))];
}

long long MetricsRegistry::counter(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it != counters_.end() ? it->second : 0;
}

std::vector<std::pair<std::string, long long>> MetricsRegistry::counters() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return {counters_.begin(), counters_.end()};
}

std::vector<std::pair<std::string, double>> MetricsRegistry::gauges() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return {gauges_.begin(), gauges_.end()};
}

std::vector<std::pair<std::string, HistogramData>> MetricsRegistry::histograms() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return {histograms_.begin(), histograms_.end()};
}

int ObsReport::span_count(std::string_view name) const {
  int n = 0;
  for (const auto& s : spans) n += s.name == name ? 1 : 0;
  return n;
}

long long ObsReport::counter(std::string_view name) const {
  for (const auto& [k, v] : counters)
    if (k == name) return v;
  return 0;
}

const HistogramData* ObsReport::histogram(std::string_view name) const {
  for (const auto& [k, v] : histograms)
    if (k == name) return &v;
  return nullptr;
}

std::string ObsReport::chrome_trace_json() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& s : spans) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    json::append_string(out, s.name);
    out += ",\"cat\":\"vpga\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":";
    out += std::to_string(s.start_us);
    out += ",\"dur\":";
    out += std::to_string(s.dur_us);
    out += ",\"args\":{\"depth\":";
    out += std::to_string(s.depth);
    if (memtrack_enabled) {
      out += ",\"alloc_bytes\":";
      out += std::to_string(s.alloc_bytes);
      out += ",\"alloc_count\":";
      out += std::to_string(s.alloc_count);
      out += ",\"peak_live_bytes\":";
      out += std::to_string(s.peak_live_bytes);
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

std::string ObsReport::metrics_json() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [k, v] : counters) {
    if (!first) out += ',';
    first = false;
    json::append_string(out, k);
    out += ':';
    out += std::to_string(v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [k, v] : gauges) {
    if (!first) out += ',';
    first = false;
    json::append_string(out, k);
    out += ':';
    append_double(out, v);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [k, h] : histograms) {
    if (!first) out += ',';
    first = false;
    json::append_string(out, k);
    out += ":{\"count\":";
    out += std::to_string(h.count);
    out += ",\"sum\":";
    append_double(out, h.sum);
    out += ",\"min\":";
    append_double(out, h.min);
    out += ",\"max\":";
    append_double(out, h.max);
    out += ",\"buckets\":[";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(h.buckets[i]);
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

ObsReport ObsContext::report() const {
  ObsReport r;
  r.trace_enabled = trace_;
  r.metrics_enabled = metrics_;
  r.memtrack_enabled = memtrack_;
  r.spans = tracer_.spans();
  // Spans close children-first; re-sort parent-first for readable reports.
  std::stable_sort(r.spans.begin(), r.spans.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     return a.start_us != b.start_us ? a.start_us < b.start_us
                                                    : a.depth < b.depth;
                   });
  r.counters = metrics_registry_.counters();
  r.gauges = metrics_registry_.gauges();
  r.histograms = metrics_registry_.histograms();
  return r;
}

ObsContext* current() { return tl_context; }

ScopedObs::ScopedObs(ObsContext* ctx)
    : prev_(tl_context),
      mem_(ctx != nullptr && ctx->memtrack_on() ? &ctx->memtracker() : nullptr) {
  tl_context = ctx;
}
ScopedObs::~ScopedObs() { tl_context = prev_; }

void Span::publish_memory(const memtrack::FrameStats& mem) {
  // Dynamic "<span>.alloc_*" family: concatenated names are exempt from the
  // obs.metric-name literal check by construction (names.hpp). The string
  // building itself allocates and is attributed to the parent frame — the
  // bookkeeping cost of tracking, deliberately not hidden.
  MetricsRegistry& m = ctx_->metrics();
  m.add(name_ + ".alloc_bytes", mem.alloc_bytes);
  m.add(name_ + ".alloc_count", mem.alloc_count);
  const std::string peak_name = name_ + ".peak_live_bytes";
  if (m.counter(peak_name) < mem.peak_live_bytes) {
    // Counters are sums; peak is a max. Re-add the difference so repeated
    // spans of one name (e.g. stage.pack iterations) keep the true maximum.
    m.add(peak_name, mem.peak_live_bytes - m.counter(peak_name));
  } else {
    m.add(peak_name, 0);  // make sure the name exists even for a 0-peak span
  }
}

}  // namespace vpga::obs

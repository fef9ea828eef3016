#pragma once
/// \file obs.hpp
/// Flow-wide observability: RAII spans, named metrics, Chrome-trace export.
///
/// The flow's quality/runtime trade-offs are invisible in the final report
/// numbers alone; this subsystem records *how* each stage got there:
///
///   - Span      — RAII scoped timer; open spans nest, so the recorded set
///                 forms a trace tree exportable to Chrome trace-event JSON
///                 (load in chrome://tracing or https://ui.perfetto.dev).
///   - Metrics   — named counters, gauges and log2-bucketed histograms with
///                 thread-safe updates.
///   - ObsContext / ScopedObs — one context per flow run, bound to the
///                 current thread; instrumentation points anywhere in the
///                 stack (obs::span-via-Span, obs::count, obs::observe,
///                 obs::gauge) reach it through a thread-local pointer, so
///                 stage APIs need no plumbing and concurrent flow runs on
///                 separate threads never share trace state.
///
/// Zero overhead when disabled: with no context bound (or tracing/metrics
/// off) every instrumentation point is a single thread-local load plus a
/// branch — no clock read, no lock, no allocation. The naming scheme and the
/// export formats are documented in docs/OBSERVABILITY.md.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/concurrency.hpp"
#include "obs/events.hpp"
#include "obs/memtrack.hpp"

namespace vpga::obs {

// ---------------------------------------------------------------------------
// Trace
// ---------------------------------------------------------------------------

/// One closed span. `depth` is the nesting level at open time (0 = root).
/// The alloc_* fields are populated only when the run's memtrack option is
/// on (ObsReport::memtrack_enabled); attribution is innermost-span-only
/// except peak_live_bytes, which covers the span's whole subtree (see
/// memtrack.hpp).
struct SpanRecord {
  std::string name;
  std::int64_t start_us = 0;
  std::int64_t dur_us = 0;
  int depth = 0;
  long long alloc_bytes = 0;
  long long alloc_count = 0;
  long long peak_live_bytes = 0;
};

/// Collects spans of ONE thread's flow run. Not thread-safe by design: a
/// Tracer belongs to the ObsContext bound to exactly one thread (metrics, by
/// contrast, are thread-safe). Timestamps are steady-clock microseconds
/// relative to construction.
class Tracer {
 public:
  /// Span records a tracing context reserves up front: more than a flow
  /// records at the exact verify level. Growing the record list inside a
  /// span would bill that span for the trace's own bookkeeping, and one
  /// more span anywhere earlier in the run would move the bill elsewhere.
  static constexpr std::size_t kReservedSpans = 256;

  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  void reserve(std::size_t spans) { spans_.reserve(spans); }

  [[nodiscard]] std::int64_t now_us() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  int open_span() { return depth_++; }
  void close_span(std::string name, std::int64_t start_us, int depth,
                  const memtrack::FrameStats& mem = {}) {
    --depth_;
    spans_.push_back({std::move(name), start_us, now_us() - start_us, depth,
                      mem.alloc_bytes, mem.alloc_count, mem.peak_live_bytes});
  }

  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<SpanRecord> spans_;  // in close order; reports re-sort by start
  int depth_ = 0;
};

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Histograms use log2 buckets: bucket 0 holds v <= 1, bucket i holds
/// 2^(i-1) < v <= 2^i, the last bucket overflows to infinity.
inline constexpr int kHistogramBuckets = 40;
int histogram_bucket(double v);
/// Inclusive upper bound of bucket `i` (infinity for the last bucket).
double histogram_bucket_bound(int i);

struct HistogramData {
  long long count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::vector<long long> buckets;  // kHistogramBuckets entries once non-empty
};

/// Named counters/gauges/histograms. All updates take one uncontended mutex;
/// safe to share across threads (each flow run normally has its own registry,
/// but nothing breaks if a future driver shares one).
class MetricsRegistry {
 public:
  void add(std::string_view name, long long delta);
  void set_gauge(std::string_view name, double value);
  void observe(std::string_view name, double value);

  [[nodiscard]] long long counter(std::string_view name) const;

  // Snapshots (sorted by name).
  [[nodiscard]] std::vector<std::pair<std::string, long long>> counters() const;
  [[nodiscard]] std::vector<std::pair<std::string, double>> gauges() const;
  [[nodiscard]] std::vector<std::pair<std::string, HistogramData>> histograms() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, long long, std::less<>> counters_ FABRIC_GUARDED_BY(mu_);
  std::map<std::string, double, std::less<>> gauges_ FABRIC_GUARDED_BY(mu_);
  std::map<std::string, HistogramData, std::less<>> histograms_ FABRIC_GUARDED_BY(mu_);
};

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

/// Immutable snapshot of one context, carried in flow::FlowReport::obs.
struct ObsReport {
  bool trace_enabled = false;
  bool metrics_enabled = false;
  bool memtrack_enabled = false;
  std::vector<SpanRecord> spans;  // sorted by (start_us, depth)
  std::vector<std::pair<std::string, long long>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramData>> histograms;

  [[nodiscard]] int span_count(std::string_view name) const;
  [[nodiscard]] bool has_span(std::string_view name) const { return span_count(name) > 0; }
  /// Value of a counter, 0 when absent.
  [[nodiscard]] long long counter(std::string_view name) const;
  /// Histogram by name, nullptr when absent.
  [[nodiscard]] const HistogramData* histogram(std::string_view name) const;

  /// Chrome trace-event JSON ("X" complete events) for chrome://tracing or
  /// Perfetto.
  [[nodiscard]] std::string chrome_trace_json() const;
  /// All counters/gauges/histograms as one JSON object.
  [[nodiscard]] std::string metrics_json() const;
};

// ---------------------------------------------------------------------------
// Context binding
// ---------------------------------------------------------------------------

/// One flow run's trace + metrics. Bind with ScopedObs; instrumentation
/// points below reach the bound context through a thread-local pointer.
class ObsContext {
 public:
  ObsContext(bool trace, bool metrics, bool memtrack = false)
      : trace_(trace), metrics_(metrics), memtrack_(memtrack) {
    if (trace_) tracer_.reserve(Tracer::kReservedSpans);
  }

  [[nodiscard]] bool trace_on() const { return trace_; }
  [[nodiscard]] bool metrics_on() const { return metrics_; }
  [[nodiscard]] bool memtrack_on() const { return memtrack_; }
  [[nodiscard]] Tracer& tracer() { return tracer_; }
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_registry_; }
  [[nodiscard]] memtrack::MemTracker& memtracker() { return memtracker_; }

  [[nodiscard]] ObsReport report() const;

 private:
  bool trace_;
  bool metrics_;
  bool memtrack_;
  Tracer tracer_;
  MetricsRegistry metrics_registry_;
  memtrack::MemTracker memtracker_;
};

/// The context bound to the calling thread (nullptr = instrumentation off).
ObsContext* current();

/// RAII binding of a context to the current thread; restores the previous
/// binding on destruction, so contexts nest. Binding a context also rebinds
/// the thread's allocation tracker (the context's own when memtrack is on,
/// none otherwise), so a run's accounting never leaks into an enclosing one.
class ScopedObs {
 public:
  explicit ScopedObs(ObsContext* ctx);
  ~ScopedObs();
  ScopedObs(const ScopedObs&) = delete;
  ScopedObs& operator=(const ScopedObs&) = delete;

 private:
  ObsContext* prev_;
  memtrack::ScopedMemTrack mem_;
};

// ---------------------------------------------------------------------------
// Instrumentation points
// ---------------------------------------------------------------------------

/// RAII scoped timer + memory frame + flight-recorder boundary. With no
/// trace/memtrack-enabled context and the flight recorder off, constructing
/// one is a thread-local load plus branches — no clock read, no allocation.
/// With only the (always-on by default) flight recorder active, the name is
/// copied into a fixed on-Span buffer, still allocation-free.
class Span {
 public:
  explicit Span(std::string_view name) {
    const bool fly = flight::enabled();
    ObsContext* c = current();
    const bool tr = c != nullptr && c->trace_on();
    const bool mt = c != nullptr && c->memtrack_on();
    if (!fly && !tr && !mt) return;
    if (fly) {
      flight_ = true;
      const std::size_t len =
          name.size() < static_cast<std::size_t>(flight::kNameCapacity) - 1
              ? name.size()
              : static_cast<std::size_t>(flight::kNameCapacity) - 1;
      std::memcpy(fname_, name.data(), len);
      fname_[len] = '\0';
      flight::record(flight::EventKind::kSpanBegin, std::string_view(fname_, len));
    }
    if (tr || mt) {
      ctx_ = c;
      name_ = name;
    }
    if (tr) {
      tracer_ = &c->tracer();
      depth_ = tracer_->open_span();
      start_us_ = tracer_->now_us();
    }
    if (mt) {
      mem_ = &c->memtracker();
      mem_->push_frame();
    }
  }
  ~Span() {
    if (flight_) flight::record(flight::EventKind::kSpanEnd, fname_);
    memtrack::FrameStats mem;
    if (mem_ != nullptr) {
      mem = mem_->pop_frame();
      publish_memory(mem);
    }
    if (tracer_ != nullptr)
      tracer_->close_span(std::move(name_), start_us_, depth_, mem);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  /// Out of line: builds the "<span>.alloc_*" counter names (allocates, so
  /// only ever runs on the memtrack-enabled path).
  void publish_memory(const memtrack::FrameStats& mem);

  Tracer* tracer_ = nullptr;
  ObsContext* ctx_ = nullptr;
  memtrack::MemTracker* mem_ = nullptr;
  std::string name_;
  std::int64_t start_us_ = 0;
  int depth_ = 0;
  bool flight_ = false;
  char fname_[flight::kNameCapacity];  // set iff flight_; fixed to avoid allocation
};

/// Adds to a named counter (no-op without a metrics-enabled context). Metric
/// deltas of a metrics-enabled run also land in the flight recorder.
inline void count(std::string_view name, long long delta = 1) {
  ObsContext* c = current();
  if (c != nullptr && c->metrics_on()) {
    c->metrics().add(name, delta);
    flight::record(flight::EventKind::kMetric, name, delta);
  }
}

/// Sets a named gauge to its latest value.
inline void gauge(std::string_view name, double value) {
  ObsContext* c = current();
  if (c != nullptr && c->metrics_on()) {
    c->metrics().set_gauge(name, value);
    flight::record(flight::EventKind::kMetric, name, static_cast<std::int64_t>(value));
  }
}

/// Records one observation into a named histogram.
inline void observe(std::string_view name, double value) {
  ObsContext* c = current();
  if (c != nullptr && c->metrics_on()) {
    c->metrics().observe(name, value);
    flight::record(flight::EventKind::kMetric, name, static_cast<std::int64_t>(value));
  }
}

}  // namespace vpga::obs

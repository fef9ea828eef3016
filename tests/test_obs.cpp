// Tests for src/obs/: span nesting and trace export, metrics math, the
// zero-overhead disabled path, the JSON parser, and the flow-level contract
// that every stage of either flow records exactly the expected spans.

#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <new>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "designs/designs.hpp"
#include "flow/flow.hpp"
#include "obs/json.hpp"
#include "obs/memtrack.hpp"
#include "place/placement.hpp"
#include "synth/mapper.hpp"
#include "verify/cec.hpp"
#include "witness_helpers.hpp"

namespace vpga::obs {
namespace {

// --- Spans and trace export -------------------------------------------------

TEST(Span, RecordsNestingDepthAndOrder) {
  ObsContext ctx(/*trace=*/true, /*metrics=*/false);
  {
    const ScopedObs bind(&ctx);
    const Span outer("outer");
    {
      const Span inner_a("inner_a");
    }
    {
      const Span inner_b("inner_b");
      const Span leaf("leaf");
    }
  }
  const ObsReport rep = ctx.report();
  ASSERT_EQ(rep.spans.size(), 4u);
  // Sorted by start time: outer first despite closing last.
  EXPECT_EQ(rep.spans[0].name, "outer");
  EXPECT_EQ(rep.spans[0].depth, 0);
  EXPECT_EQ(rep.spans[1].name, "inner_a");
  EXPECT_EQ(rep.spans[1].depth, 1);
  EXPECT_EQ(rep.spans[2].name, "inner_b");
  EXPECT_EQ(rep.spans[2].depth, 1);
  EXPECT_EQ(rep.spans[3].name, "leaf");
  EXPECT_EQ(rep.spans[3].depth, 2);
  // Children are contained in their parents.
  for (int child : {1, 2}) {
    EXPECT_GE(rep.spans[child].start_us, rep.spans[0].start_us);
    EXPECT_LE(rep.spans[child].start_us + rep.spans[child].dur_us,
              rep.spans[0].start_us + rep.spans[0].dur_us);
  }
  EXPECT_EQ(rep.span_count("inner_a"), 1);
  EXPECT_TRUE(rep.has_span("leaf"));
  EXPECT_FALSE(rep.has_span("nonexistent"));
}

TEST(Span, RecordListGrowthIsNotBilledToTheOpenSpan) {
  // A tracing context reserves its span records, so what an open span is
  // billed for does not depend on how many spans closed before it.
  std::vector<long long> billed;
  for (const int before : {0, 1, 3, 7, 15, 31, 63}) {
    ObsContext ctx(true, true, true);
    const ScopedObs bind(&ctx);
    for (int i = 0; i < before; ++i) {
      const Span filler("filler");
    }
    {
      const Span probe("probe");
      const Span child("child");
    }
    const auto& spans = ctx.tracer().spans();
    const auto probe = std::find_if(spans.begin(), spans.end(),
                                    [](const SpanRecord& s) { return s.name == "probe"; });
    ASSERT_NE(probe, spans.end());
    billed.push_back(probe->alloc_count);
  }
  for (const long long count : billed) EXPECT_EQ(count, billed.front());
}

TEST(Span, ChromeTraceJsonParsesBack) {
  ObsContext ctx(true, false);
  {
    const ScopedObs bind(&ctx);
    const Span outer("outer \"quoted\"\n");
    const Span inner("inner");
  }
  const std::string trace = ctx.report().chrome_trace_json();
  json::Value v;
  std::string err;
  ASSERT_TRUE(json::parse(trace, v, &err)) << err << "\n" << trace;
  ASSERT_TRUE(v.is_object());
  const json::Value* events = v.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array.size(), 2u);
  const json::Value& first = events->array[0];
  EXPECT_EQ(first.find("name")->string, "outer \"quoted\"\n");
  EXPECT_EQ(first.find("ph")->string, "X");
  EXPECT_GE(first.find("dur")->number, 0.0);
  EXPECT_EQ(first.find("args")->find("depth")->number, 0.0);
  EXPECT_EQ(events->array[1].find("args")->find("depth")->number, 1.0);
}

TEST(Span, NoContextIsANoOp) {
  // Must not crash nor record anything, with or without a disabled context.
  const Span orphan("orphan");
  count("orphan.counter");
  ObsContext ctx(false, false);
  const ScopedObs bind(&ctx);
  const Span disabled("disabled");
  count("disabled.counter", 5);
  const ObsReport rep = ctx.report();
  EXPECT_TRUE(rep.spans.empty());
  EXPECT_TRUE(rep.counters.empty());
}

TEST(Span, ScopedObsRestoresPreviousBinding) {
  ObsContext outer_ctx(true, false);
  const ScopedObs outer_bind(&outer_ctx);
  {
    ObsContext inner_ctx(true, false);
    const ScopedObs inner_bind(&inner_ctx);
    EXPECT_EQ(current(), &inner_ctx);
  }
  EXPECT_EQ(current(), &outer_ctx);
}

// --- Metrics ----------------------------------------------------------------

TEST(Metrics, CountersAccumulateAndGaugesKeepLatest) {
  ObsContext ctx(false, true);
  const ScopedObs bind(&ctx);
  count("c.hits");
  count("c.hits", 4);
  count("c.other", 2);
  gauge("g.v", 1.5);
  gauge("g.v", 2.5);
  const ObsReport rep = ctx.report();
  EXPECT_EQ(rep.counter("c.hits"), 5);
  EXPECT_EQ(rep.counter("c.other"), 2);
  EXPECT_EQ(rep.counter("absent"), 0);
  ASSERT_EQ(rep.gauges.size(), 1u);
  EXPECT_EQ(rep.gauges[0].first, "g.v");
  EXPECT_DOUBLE_EQ(rep.gauges[0].second, 2.5);
}

TEST(Metrics, HistogramTracksCountSumMinMaxAndBuckets) {
  ObsContext ctx(false, true);
  const ScopedObs bind(&ctx);
  for (double v : {0.5, 1.0, 3.0, 1000.0}) observe("h", v);
  const ObsReport rep = ctx.report();
  const HistogramData* h = rep.histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 4);
  EXPECT_DOUBLE_EQ(h->sum, 1004.5);
  EXPECT_DOUBLE_EQ(h->min, 0.5);
  EXPECT_DOUBLE_EQ(h->max, 1000.0);
  ASSERT_EQ(static_cast<int>(h->buckets.size()), kHistogramBuckets);
  EXPECT_EQ(h->buckets[histogram_bucket(0.5)], 2);    // 0.5 and 1.0 share bucket 0
  EXPECT_EQ(h->buckets[histogram_bucket(3.0)], 1);    // 2 < 3 <= 4
  EXPECT_EQ(h->buckets[histogram_bucket(1000.0)], 1); // 512 < 1000 <= 1024
  long long total = 0;
  for (long long b : h->buckets) total += b;
  EXPECT_EQ(total, h->count);
}

TEST(Metrics, HistogramBucketMath) {
  EXPECT_EQ(histogram_bucket(0.0), 0);
  EXPECT_EQ(histogram_bucket(1.0), 0);
  EXPECT_EQ(histogram_bucket(1.5), 1);
  EXPECT_EQ(histogram_bucket(2.0), 1);
  EXPECT_EQ(histogram_bucket(2.1), 2);
  EXPECT_EQ(histogram_bucket(4.0), 2);
  EXPECT_EQ(histogram_bucket(1e30), kHistogramBuckets - 1);
  EXPECT_DOUBLE_EQ(histogram_bucket_bound(0), 1.0);
  EXPECT_DOUBLE_EQ(histogram_bucket_bound(3), 8.0);
}

TEST(Metrics, RegistryIsThreadSafe) {
  ObsContext ctx(false, true);
  constexpr int kThreads = 4;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&ctx] {
      const ScopedObs bind(&ctx);
      for (int i = 0; i < kIncrements; ++i) count("shared");
    });
  for (auto& w : workers) w.join();
  EXPECT_EQ(ctx.report().counter("shared"), kThreads * kIncrements);
}

TEST(Metrics, MetricsJsonParsesBack) {
  ObsContext ctx(false, true);
  const ScopedObs bind(&ctx);
  count("runs", 3);
  gauge("peak", 0.75);
  observe("sizes", 10.0);
  json::Value v;
  std::string err;
  ASSERT_TRUE(json::parse(ctx.report().metrics_json(), v, &err)) << err;
  EXPECT_EQ(v.find("counters")->find("runs")->number, 3.0);
  EXPECT_DOUBLE_EQ(v.find("gauges")->find("peak")->number, 0.75);
  const json::Value* h = v.find("histograms")->find("sizes");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->find("count")->number, 1.0);
  EXPECT_EQ(h->find("buckets")->array.size(), static_cast<std::size_t>(kHistogramBuckets));
}

// --- JSON string escapes: UTF-16 surrogate pairs ----------------------------
// The parser decodes \uD800-\uDBFF + \uDC00-\uDFFF pairs into one
// supplementary-plane code point and rejects lone halves (json.cpp).

TEST(Json, SurrogatePairDecodesToSupplementaryPlaneUtf8) {
  json::Value v;
  std::string err;
  // U+1D11E MUSICAL SYMBOL G CLEF = F0 9D 84 9E in UTF-8.
  ASSERT_TRUE(json::parse(R"("\uD834\uDD1E")", v, &err)) << err;
  EXPECT_EQ(v.string, "\xF0\x9D\x84\x9E");

  // Boundary pair: U+10000, the first supplementary code point.
  ASSERT_TRUE(json::parse(R"("\uD800\uDC00")", v, &err)) << err;
  EXPECT_EQ(v.string, "\xF0\x90\x80\x80");

  // Boundary pair: U+10FFFF, the last code point.
  ASSERT_TRUE(json::parse(R"("\uDBFF\uDFFF")", v, &err)) << err;
  EXPECT_EQ(v.string, "\xF4\x8F\xBF\xBF");
}

TEST(Json, LoneSurrogatesAreRejected) {
  json::Value v;
  std::string err;
  // High surrogate at end of string.
  EXPECT_FALSE(json::parse(R"("\uD834")", v, &err));
  EXPECT_NE(err.find("unpaired high surrogate"), std::string::npos);
  // High surrogate followed by a non-\u escape.
  EXPECT_FALSE(json::parse(R"("\uD834\n")", v, &err));
  // High surrogate followed by an ordinary character.
  EXPECT_FALSE(json::parse(R"("\uD834x")", v, &err));
  // Two high surrogates in a row (second half must be in DC00-DFFF).
  EXPECT_FALSE(json::parse(R"("\uD834\uD834")", v, &err));
  EXPECT_NE(err.find("invalid low surrogate"), std::string::npos);
  // Low surrogate with no preceding high half.
  EXPECT_FALSE(json::parse(R"("\uDD1E")", v, &err));
  EXPECT_NE(err.find("unpaired low surrogate"), std::string::npos);
}

TEST(Json, BasicPlaneEscapesStillDecodeDirectly) {
  json::Value v;
  std::string err;
  // Just below the surrogate range: U+D7FF, and just above: U+E000.
  ASSERT_TRUE(json::parse(R"("\uD7FF\uE000")", v, &err)) << err;
  EXPECT_EQ(v.string, "\xED\x9F\xBF\xEE\x80\x80");
}

// --- Shortest round-trip double formatting ----------------------------------
// json::format_double must print the shortest decimal string that strtods
// back to the exact same bits — "0.15", never "0.14999999999999999".

TEST(Json, FormatDoubleIsShortestRoundTrip) {
  EXPECT_EQ(json::format_double(0.15), "0.15");
  EXPECT_EQ(json::format_double(0.1), "0.1");
  EXPECT_EQ(json::format_double(0.0), "0");
  EXPECT_EQ(json::format_double(-2.5), "-2.5");
  EXPECT_EQ(json::format_double(1e30), "1e+30");
  // Values with no short representation still round-trip exactly.
  for (double v : {1.0 / 3.0, 2.0 / 7.0, 0.1 + 0.2, 546.2095801219772,
                   1.7976931348623157e308, -4.9e-324}) {
    const std::string s = json::format_double(v);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
  }
}

TEST(Json, FormatDoubleNeverEmitsNonFiniteTokens) {
  // JSON has no Infinity/NaN literals; the formatter degrades to 0.
  EXPECT_EQ(json::format_double(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(json::format_double(std::numeric_limits<double>::quiet_NaN()), "0");
}

// --- Disabled-path overhead -------------------------------------------------

TEST(Overhead, DisabledInstrumentationDoesNotAllocate) {
  // The library's own operator new hook (memtrack.cpp) is the allocation
  // counter: bind a tracker to this thread and watch its totals. The flight
  // recorder stays at its always-on default, so this also proves the
  // flight-on span path is allocation-free (names land in a fixed buffer).
  // Warm up any lazy thread-local initialization.
  { const Span warmup("warmup"); }
  count("warmup");
  memtrack::MemTracker tracker;
  const memtrack::ScopedMemTrack track(&tracker);

  const long long before = tracker.totals().alloc_count;
  for (int i = 0; i < 1000; ++i) {
    const Span s("hot.path.span.longer.than.sso.buffers");
    count("hot.path.counter", i);
    observe("hot.path.histogram", static_cast<double>(i));
    gauge("hot.path.gauge", static_cast<double>(i));
  }
  EXPECT_EQ(tracker.totals().alloc_count, before)
      << "instrumentation with no bound context must not allocate";

  ObsContext off(false, false);
  const ScopedObs bind(&off);  // rebinds the tracker slot to none...
  const memtrack::ScopedMemTrack retrack(&tracker);  // ...so bind it back
  const long long before_off = tracker.totals().alloc_count;
  for (int i = 0; i < 1000; ++i) {
    const Span s("hot.path.span");
    count("hot.path.counter", i);
  }
  EXPECT_EQ(tracker.totals().alloc_count, before_off)
      << "instrumentation with a fully disabled context must not allocate";
}

// --- Flow integration -------------------------------------------------------

designs::BenchmarkDesign small_design() {
  return {designs::make_ripple_adder(8), 8000.0, true};
}

TEST(FlowObs, FlowBRecordsEveryStageSpan) {
  flow::FlowOptions opts;
  opts.trace = true;
  opts.metrics = true;
  opts.pack_timing_iterations = 2;
  const auto rep =
      flow::run_flow(small_design(), core::PlbArchitecture::granular(), 'b', opts);
  EXPECT_TRUE(rep.obs.trace_enabled);
  EXPECT_TRUE(rep.obs.metrics_enabled);
  for (const char* stage : {"stage.verify", "stage.map", "stage.compact", "stage.buffer",
                            "stage.place", "stage.route", "stage.sta"})
    EXPECT_EQ(rep.obs.span_count(stage), 1) << stage;
  EXPECT_EQ(rep.obs.span_count("stage.pack"), 2);  // one per pack<->STA iteration
  EXPECT_EQ(rep.obs.counter("flow.pack_sta_iterations"), 2);

  // Packing and routing internals appear as nested children (greater depth).
  int stage_pack_depth = -1, stage_route_depth = -1;
  for (const auto& s : rep.obs.spans) {
    if (s.name == "stage.pack") stage_pack_depth = s.depth;
    if (s.name == "stage.route") stage_route_depth = s.depth;
  }
  for (const char* child : {"pack.lower_bound", "pack.attempt", "pack.fill"}) {
    ASSERT_TRUE(rep.obs.has_span(child)) << child;
    for (const auto& s : rep.obs.spans)
      if (s.name == child) EXPECT_GT(s.depth, stage_pack_depth) << child;
  }
  for (const char* child :
       {"route.decompose", "route.initial", "route.negotiate", "route.maze_repair"}) {
    ASSERT_TRUE(rep.obs.has_span(child)) << child;
    for (const auto& s : rep.obs.spans)
      if (s.name == child) EXPECT_GT(s.depth, stage_route_depth) << child;
  }

  // At least 10 distinct nonzero counters from the instrumented stages.
  int nonzero = 0;
  for (const auto& [name, value] : rep.obs.counters)
    if (value > 0) ++nonzero;
  EXPECT_GE(nonzero, 10);
  EXPECT_NE(rep.obs.histogram("pack.displacement_um"), nullptr);

  // Both export formats parse.
  json::Value v;
  std::string err;
  EXPECT_TRUE(json::parse(rep.obs.chrome_trace_json(), v, &err)) << err;
  EXPECT_TRUE(json::parse(rep.obs.metrics_json(), v, &err)) << err;
}

TEST(FlowObs, FlowAHasNoPackSpan) {
  flow::FlowOptions opts;
  opts.trace = true;
  const auto rep =
      flow::run_flow(small_design(), core::PlbArchitecture::lut_based(), 'a', opts);
  EXPECT_EQ(rep.obs.span_count("stage.pack"), 0);
  for (const char* stage :
       {"stage.map", "stage.compact", "stage.place", "stage.route", "stage.sta"})
    EXPECT_EQ(rep.obs.span_count(stage), 1) << stage;
}

/// True iff span `c` lies directly inside span `p`.
bool child_of(const SpanRecord& c, const SpanRecord& p) {
  return p.depth + 1 == c.depth && p.start_us <= c.start_us &&
         c.start_us + c.dur_us <= p.start_us + p.dur_us;
}

TEST(FlowObs, ExactRunNestsCecTierSpansUnderTheProof) {
  // Without the mapper's witnesses, the 2-port switch's post-map proof
  // settles points in the BDD tier and runs one SAT miter after a BDD
  // attempt outgrows its first budget, so both per-point tier spans appear,
  // each directly inside a verify.cec.
  const auto design = designs::make_network_switch(2, 8);
  const auto arch = core::PlbArchitecture::granular();
  const auto mapped =
      synth::tech_map(design.netlist, synth::cell_target(arch), synth::Objective::kDelay);
  ObsContext ctx(/*trace=*/true, /*metrics=*/false);
  {
    const ScopedObs bind(&ctx);
    verify::VerifyReport proof;
    verify::check_cec(design.netlist, strip_witnesses(mapped.netlist), "post-map", proof);
    EXPECT_FALSE(proof.has_errors()) << proof.summary();
  }
  const ObsReport direct = ctx.report();
  for (const char* tier : {"cec.bdd", "cec.miter"}) {
    ASSERT_TRUE(direct.has_span(tier)) << tier;
    for (const SpanRecord& s : direct.spans) {
      if (s.name != tier) continue;
      const bool nested =
          std::any_of(direct.spans.begin(), direct.spans.end(), [&s](const SpanRecord& p) {
            return p.name == "verify.cec" && child_of(s, p);
          });
      EXPECT_TRUE(nested) << tier << " at " << s.start_us << " us is not a child of verify.cec";
    }
  }

  // The witnessed exact flow settles every point by the witness rule: each
  // proof checks the claims inside its own cec.witness span and never
  // reaches the BDD or SAT tiers.
  flow::FlowOptions opts;
  opts.trace = true;
  opts.verify_level = verify::VerifyLevel::kExact;
  const auto rep = flow::run_flow(design, arch, 'a', opts);
  ASSERT_TRUE(rep.obs.has_span("verify.cec"));
  for (const SpanRecord& p : rep.obs.spans) {
    if (p.name != "verify.cec") continue;
    const bool witnessed =
        std::any_of(rep.obs.spans.begin(), rep.obs.spans.end(), [&p](const SpanRecord& s) {
          return s.name == "cec.witness" && child_of(s, p);
        });
    EXPECT_TRUE(witnessed) << "verify.cec at " << p.start_us << " us has no cec.witness child";
  }
  EXPECT_FALSE(rep.obs.has_span("cec.bdd"));
  EXPECT_FALSE(rep.obs.has_span("cec.miter"));
}

TEST(FlowObs, EveryProofTracesItsCorrespondenceAndSignatures) {
  // Register correspondence and the structural signatures are the front end
  // of every exact proof: in a sequential design's exact flow, each
  // verify.cec span holds exactly one of each as a direct child.
  flow::FlowOptions opts;
  opts.trace = true;
  opts.verify_level = verify::VerifyLevel::kExact;
  const auto rep = flow::run_flow(designs::make_firewire(4, 8),
                                  core::PlbArchitecture::granular(), 'a', opts);
  ASSERT_GT(rep.obs.span_count("verify.cec"), 0);
  for (const SpanRecord& p : rep.obs.spans) {
    if (p.name != "verify.cec") continue;
    for (const std::string_view child : {"cec.corr", "cec.signatures"}) {
      const auto children =
          std::count_if(rep.obs.spans.begin(), rep.obs.spans.end(),
                        [&](const SpanRecord& s) { return s.name == child && child_of(s, p); });
      EXPECT_EQ(children, 1) << child << " under verify.cec at " << p.start_us << " us";
    }
  }
  EXPECT_EQ(rep.obs.span_count("cec.corr"), rep.obs.span_count("verify.cec"));
  EXPECT_EQ(rep.obs.span_count("cec.signatures"), rep.obs.span_count("verify.cec"));
}

TEST(FlowObs, OneSubjectServesTheMapAndEveryPricingRound) {
  // The delay map and compaction's three pricing rounds cover one subject:
  // it is built once, inside stage.map, and its cuts are enumerated once and
  // matched by each of the four covers.
  flow::FlowOptions opts;
  opts.trace = true;
  opts.metrics = true;
  const auto design = small_design();
  const auto rep = flow::run_flow(design, core::PlbArchitecture::granular(), 'b', opts);
  ASSERT_EQ(rep.obs.span_count("map.subject"), 1);
  auto find = [&rep](std::string_view name) {
    const auto it = std::find_if(rep.obs.spans.begin(), rep.obs.spans.end(),
                                 [name](const SpanRecord& s) { return s.name == name; });
    return it == rep.obs.spans.end() ? SpanRecord{} : *it;
  };
  const SpanRecord subject = find("map.subject");
  EXPECT_TRUE(child_of(subject, find("stage.map")));
  const SpanRecord compact = find("stage.compact");
  EXPECT_FALSE(compact.start_us <= subject.start_us &&
               subject.start_us + subject.dur_us <= compact.start_us + compact.dur_us);
  EXPECT_EQ(rep.obs.span_count("map.tech_map"), 1);
  EXPECT_TRUE(child_of(find("map.tech_map"), find("stage.map")));

  const synth::Subject built(design.netlist);
  const auto cuts = static_cast<long long>(built.cuts().total_cuts());
  EXPECT_EQ(rep.obs.counter("map.cuts_enumerated"), cuts);
  EXPECT_EQ(rep.obs.counter("map.match_attempts"), 4 * cuts);
}

TEST(FlowObs, SubjectBuildsItsAigThenItsCuts) {
  // The subject's two halves have their own spans: map.aig (the AIG) and
  // map.cuts (its priority cuts), once each per flow, both directly inside
  // map.subject and in that order.
  flow::FlowOptions opts;
  opts.trace = true;
  opts.metrics = true;
  for (const char which : {'a', 'b'}) {
    const auto rep =
        flow::run_flow(small_design(), core::PlbArchitecture::granular(), which, opts);
    ASSERT_EQ(rep.obs.span_count("map.subject"), 1) << which;
    ASSERT_EQ(rep.obs.span_count("map.aig"), 1) << which;
    ASSERT_EQ(rep.obs.span_count("map.cuts"), 1) << which;
    auto find = [&rep](std::string_view name) {
      return *std::find_if(rep.obs.spans.begin(), rep.obs.spans.end(),
                           [name](const SpanRecord& s) { return s.name == name; });
    };
    const SpanRecord subject = find("map.subject");
    const SpanRecord aig = find("map.aig");
    const SpanRecord cuts = find("map.cuts");
    EXPECT_TRUE(child_of(aig, subject)) << which;
    EXPECT_TRUE(child_of(cuts, subject)) << which;
    EXPECT_LE(aig.start_us + aig.dur_us, cuts.start_us) << which;
  }
}

TEST(FlowObs, PlacementSpreadsOnceAndAnnealsTwice) {
  // The flow builds one Placer: a single spread (its median sweeps) inside
  // stage.place, then the uniform and the timing-driven anneal from it. Flow
  // b times the placement and every pack round but the last, flow a the
  // placement; both time the routed result once more.
  flow::FlowOptions opts;
  opts.trace = true;
  opts.metrics = true;
  for (const char which : {'a', 'b'}) {
    const auto rep =
        flow::run_flow(small_design(), core::PlbArchitecture::granular(), which, opts);
    EXPECT_EQ(rep.obs.span_count("place.median_sweeps"), 1) << which;
    EXPECT_EQ(rep.obs.span_count("place.anneal"), 2) << which;
    EXPECT_EQ(rep.obs.counter("place.median_sweeps"), place::PlacerOptions{}.median_sweeps)
        << which;
    const auto stage = std::find_if(rep.obs.spans.begin(), rep.obs.spans.end(),
                                    [](const SpanRecord& s) { return s.name == "stage.place"; });
    ASSERT_NE(stage, rep.obs.spans.end()) << which;
    for (const SpanRecord& s : rep.obs.spans) {
      if (s.name != "place.median_sweeps" && s.name != "place.anneal") continue;
      EXPECT_TRUE(child_of(s, *stage)) << which << ": " << s.name;
    }
    const int pack_rounds = which == 'b' ? opts.pack_timing_iterations : 0;
    EXPECT_EQ(rep.obs.counter("sta.analyses"), 2 + std::max(0, pack_rounds - 1)) << which;
  }
}

TEST(FlowObs, DisabledRunCarriesNoObservability) {
  const auto rep =
      flow::run_flow(small_design(), core::PlbArchitecture::granular(), 'b', {});
  EXPECT_FALSE(rep.obs.trace_enabled);
  EXPECT_TRUE(rep.obs.spans.empty());
  EXPECT_TRUE(rep.obs.counters.empty());
}

TEST(FlowObs, ParallelCompareMatchesSerial) {
  const auto design = small_design();
  flow::FlowOptions serial_opts;
  serial_opts.metrics = true;
  auto parallel_opts = serial_opts;
  parallel_opts.parallel_compare = true;
  const auto serial = flow::compare_architectures(design, serial_opts);
  const auto parallel = flow::compare_architectures(design, parallel_opts);
  const std::pair<const flow::FlowReport*, const flow::FlowReport*> runs[] = {
      {&serial.granular_a, &parallel.granular_a},
      {&serial.granular_b, &parallel.granular_b},
      {&serial.lut_a, &parallel.lut_a},
      {&serial.lut_b, &parallel.lut_b},
  };
  for (const auto& [s, p] : runs) {
    EXPECT_EQ(s->arch, p->arch);
    EXPECT_EQ(s->flow, p->flow);
    EXPECT_DOUBLE_EQ(s->die_area_um2, p->die_area_um2);
    EXPECT_DOUBLE_EQ(s->wirelength_um, p->wirelength_um);
    EXPECT_DOUBLE_EQ(s->critical_delay_ps, p->critical_delay_ps);
    EXPECT_DOUBLE_EQ(s->gate_count_nand2, p->gate_count_nand2);
    EXPECT_EQ(s->plbs, p->plbs);
    // Work counters are deterministic too: each parallel run bound its own
    // ObsContext, so nothing bled between the four threads.
    EXPECT_EQ(s->obs.counters, p->obs.counters);
  }
}

}  // namespace
}  // namespace vpga::obs

// Machine-readable flow bench: runs the paper suite (Tables 1/2 structure —
// four designs x {granular, LUT} x {flow a, flow b}) with tracing, metrics
// and memory tracking enabled and emits a BENCH_flow.json document (schema
// vpga.flow_bench.v2) with per-stage wall-clock, every flow counter, and
// per-stage memory columns (alloc_bytes / alloc_count / peak_live_bytes),
// so tools/flowscope can chart stage cost and allocation behavior over time.
//
//   flow_bench_json [--out BENCH_flow_current.json]
//
// The default output name leaves the committed snapshot alone; refreshing it
// is an explicit `--out BENCH_flow.json`.
//
// Doubles as the observability guard: exits nonzero if any expected stage
// span is missing from any run, if a run does not build exactly one mapping
// subject (one `map.subject` span, shared by the delay map and every
// compaction pricing round, with one `map.aig` and one `map.cuts` span for
// its two halves) or exactly one placement spread (one `place.median_sweeps`
// span, shared by both anneals), or if the emitted JSON does not parse back
// (obs/json.hpp). VPGA_BENCH_SCALE shrinks the designs as usual.
//
// v2 vs v1: adds the per-run "memory" object and moves the dynamic
// "<span>.alloc_*" counter family there (counters stay exact-comparable
// across machines; allocation sizes are libc-dependent and get their own
// tolerance in flowscope). Consumers accept both versions.

#include "flow_bench.hpp"

#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "obs/obs.hpp"

namespace {

using vpga::flow::FlowReport;

void append_num(std::string& out, double v) {
  out += vpga::obs::json::format_double(v);
}

/// The dynamic memtrack counter family ("<span>.alloc_bytes" etc.) is
/// reported under "memory", not "counters".
bool is_memory_counter(std::string_view name) {
  for (std::string_view suffix :
       {".alloc_bytes", ".alloc_count", ".peak_live_bytes"}) {
    if (name.size() > suffix.size() &&
        name.substr(name.size() - suffix.size()) == suffix)
      return true;
  }
  return false;
}

// Spans every flow must record exactly once: the stages (stage.pack repeats
// per pack<->STA iteration in flow b and never appears in flow a),
// map.subject, the one mapping subject that the delay map and every
// compaction pricing round share, with its two halves map.aig and map.cuts,
// and place.median_sweeps, the one placement spread that the uniform and the
// timing-driven anneal start from.
const std::vector<std::string>& required_spans() {
  static const std::vector<std::string> spans = {
      "stage.verify", "stage.map",   "stage.compact", "stage.buffer",
      "stage.place",  "stage.route", "stage.sta",     "map.subject",
      "map.aig",      "map.cuts",    "place.median_sweeps"};
  return spans;
}

int check_spans(const FlowReport& r, const std::string& label) {
  int bad = 0;
  for (const auto& s : required_spans()) {
    if (r.obs.span_count(s) != 1) {
      std::fprintf(stderr, "[flow_bench_json] FAIL %s: span %s appears %d times (want 1)\n",
                   label.c_str(), s.c_str(), r.obs.span_count(s));
      ++bad;
    }
  }
  const int packs = r.obs.span_count("stage.pack");
  if (r.flow == 'b' ? packs < 1 : packs != 0) {
    std::fprintf(stderr, "[flow_bench_json] FAIL %s: stage.pack appears %d times in flow %c\n",
                 label.c_str(), packs, r.flow);
    ++bad;
  }
  return bad;
}

void append_run(std::string& out, const FlowReport& r, const std::string& design) {
  out += "    {\"design\":";
  vpga::obs::json::append_string(out, design);
  out += ",\"arch\":";
  vpga::obs::json::append_string(out, r.arch);
  out += ",\"flow\":\"";
  out += r.flow;
  out += "\",";

  // Per-stage wall clock: sum of same-named span durations (stage.pack may
  // close several times), plus the run total from the root spans.
  std::map<std::string, std::int64_t> stage_us;
  std::int64_t total_us = 0;
  for (const auto& s : r.obs.spans) {
    if (s.name.rfind("stage.", 0) == 0) stage_us[s.name] += s.dur_us;
    if (s.depth == 0) total_us += s.dur_us;
  }
  out += "\"total_us\":";
  append_num(out, static_cast<double>(total_us));
  out += ",\"stages\":{";
  bool first = true;
  for (const auto& [name, us] : stage_us) {
    if (!first) out += ',';
    first = false;
    vpga::obs::json::append_string(out, name);
    out += ':';
    append_num(out, static_cast<double>(us));
  }
  out += "},\"counters\":{";
  first = true;
  for (const auto& [name, value] : r.obs.counters) {
    if (is_memory_counter(name)) continue;
    if (!first) out += ',';
    first = false;
    vpga::obs::json::append_string(out, name);
    out += ':';
    append_num(out, static_cast<double>(value));
  }
  // Memory columns (schema v2): one object per span family that recorded
  // allocations, e.g. "memory":{"stage.map":{"alloc_bytes":...}}. The
  // "flow" entry carries the run-wide totals.
  out += "},\"memory\":{";
  std::map<std::string, std::map<std::string, long long>> memory;
  for (const auto& [name, value] : r.obs.counters) {
    if (!is_memory_counter(name)) continue;
    const std::size_t dot = name.rfind('.');
    memory[name.substr(0, dot)][name.substr(dot + 1)] = value;
  }
  first = true;
  for (const auto& [span, fields] : memory) {
    if (!first) out += ',';
    first = false;
    vpga::obs::json::append_string(out, span);
    out += ":{";
    bool ffirst = true;
    for (const auto& [field, value] : fields) {
      if (!ffirst) out += ',';
      ffirst = false;
      vpga::obs::json::append_string(out, field);
      out += ':';
      append_num(out, static_cast<double>(value));
    }
    out += '}';
  }
  out += "},\"report\":{";
  out += "\"gate_count_nand2\":";
  append_num(out, r.gate_count_nand2);
  out += ",\"die_area_um2\":";
  append_num(out, r.die_area_um2);
  out += ",\"wirelength_um\":";
  append_num(out, r.wirelength_um);
  out += ",\"route_overflow_edges\":";
  append_num(out, r.route_overflow_edges);
  out += ",\"route_peak_congestion\":";
  append_num(out, r.route_peak_congestion);
  out += ",\"critical_delay_ps\":";
  append_num(out, r.critical_delay_ps);
  out += ",\"plbs\":";
  append_num(out, r.plbs);
  out += "}}";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vpga;
  std::string out_path = "BENCH_flow_current.json";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--out BENCH_flow_current.json]\n", argv[0]);
      return 2;
    }
  }

  flow::FlowOptions opts;
  opts.trace = true;
  opts.metrics = true;
  opts.memtrack = true;
  // Exact equivalence at every stage boundary: the profile doubles as the
  // regression baseline for the sat.*/cec.* counters.
  opts.verify_level = verify::VerifyLevel::kExact;
  const auto suite = benchharness::run_suite(opts);

  int missing = 0;
  std::string json = "{\"schema\":\"vpga.flow_bench.v2\",\"scale\":";
  append_num(json, benchharness::bench_scale());
  json += ",\"runs\":[\n";
  bool first = true;
  for (std::size_t i = 0; i < suite.designs.size(); ++i) {
    const auto& c = suite.designs[i];
    for (const FlowReport* r : {&c.granular_a, &c.granular_b, &c.lut_a, &c.lut_b}) {
      missing += check_spans(*r, suite.names[i] + "/" + r->arch + "/" + r->flow);
      if (!first) json += ",\n";
      first = false;
      append_run(json, *r, suite.names[i]);
    }
  }
  json += "\n]}\n";

  // The file must be valid JSON before anything downstream trusts it.
  obs::json::Value parsed;
  std::string err;
  if (!obs::json::parse(json, parsed, &err)) {
    std::fprintf(stderr, "[flow_bench_json] FAIL: emitted JSON does not parse: %s\n",
                 err.c_str());
    return 1;
  }

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "[flow_bench_json] FAIL: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << json;
  out.close();
  std::fprintf(stderr, "[flow_bench_json] wrote %s (%zu runs)\n", out_path.c_str(),
               parsed.find("runs")->array.size());
  if (missing != 0) {
    std::fprintf(stderr, "[flow_bench_json] FAIL: %d missing/duplicated spans\n", missing);
    return 1;
  }
  return 0;
}

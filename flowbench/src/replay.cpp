// Traced replay: reruns run_flow's call sequence (src/flow/flow.cpp) through
// the public layer functions, with a span around every layer call, recorded
// here rather than inside the program. Spans stay in memory and are written
// out once at the end, after the per-layer metrics and the self-time table.
//
// Two kinds of benchmark-added calls run inside a flow's span but are not
// part of run_flow; they are "shadow" spans, excluded from the replayed time:
//   - re-timings of a call another span makes internally: one
//     pack::first_fit_tile_count per netlist (pack::pack runs it once per
//     call) and one check_combinational_equivalence per proved pair
//     (FlowVerifier::check runs it inside). The self-time table moves their
//     time out of the span they re-time;
//   - measurement and output checks (HPWL, random-stimulus cross-checks).

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "bench.hpp"
#include "obs/json.hpp"
#include "route/router.hpp"
#include "synth/buffering.hpp"
#include "synth/mapper.hpp"

namespace flowbench {
namespace {

namespace verify = vpga::verify;
using vpga::netlist::Netlist;

struct SpanRecord {
  std::string name;
  int flow = -1;  ///< flow case index (a mutant check: its flow case)
  int parent = -1;
  double start_s = 0.0;
  double end_s = 0.0;
  bool shadow = false;
  std::string retimes;  ///< shadow only: spans of this name in the flow ran it
  [[nodiscard]] double dur() const { return end_s - start_s; }
};

class Tracer {
 public:
  int open(std::string name, int flow, bool shadow, std::string retimes) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), flow, stack_.empty() ? -1 : stack_.back(),
                      seconds_since(epoch_), 0.0, shadow, std::move(retimes)});
    stack_.push_back(id);
    return id;
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_s = seconds_since(epoch_);
    stack_.pop_back();
  }
  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

class Scope {
 public:
  Scope(Tracer& t, std::string name, int flow, bool shadow = false, std::string retimes = {})
      : t_(t), id_(t.open(std::move(name), flow, shadow, std::move(retimes))) {}
  ~Scope() { t_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

/// Counts that need a ratio or a maximum at the end.
struct Totals {
  double area_reduction = 0.0;
  int compactions = 0;
  double pack_tiles = 0.0;
  double maze_routes = 0.0;
  double connections = 0.0;
  int stale_flows = 0;
};

/// Every per-layer metric, zero until a layer call adds to it, so each
/// workload prints the same names (0 = layer not exercised).
Metrics zero_metrics() {
  Metrics m;
  for (const char* name :
       {"designs.nand2_eq", "synth.tech_map_s", "synth.mapped_cells", "synth.insert_buffers_s",
        "synth.buffers_added", "compact.compact_from_s", "compact.area_reduction",
        "place.place_s", "place.hpwl_m", "timing.analyze_s", "timing.calls", "pack.pack_s",
        "pack.calls", "pack.first_fit_s", "pack.lower_bound_tiles", "pack.plbs_used",
        "pack.grow_attempts", "pack.tile_fill", "route.route_s", "route.wirelength_m",
        "route.overflow_edges", "route.peak_congestion", "route.maze_share", "verify.check_s",
        "verify.findings", "verify.cec_s", "verify.cec_points", "verify.tier.structural",
        "verify.tier.truth", "verify.tier.bitsim", "verify.tier.bdd", "verify.tier.sat",
        "verify.unknown", "bdd.nodes", "bdd.ite_calls", "bdd.fallbacks", "bdd.useful_ratio",
        "sat.conflicts", "sat.decisions", "sat.sweep_merges", "flow.unattributed_s",
        "flow.replay_gap_s", "flow.replay_stale_flows"})
    m[name] = 0.0;
  for (const verify::Stage stage :
       {verify::Stage::kInput, verify::Stage::kPostMap, verify::Stage::kPostCompact,
        verify::Stage::kPostBuffer, verify::Stage::kPostPack, verify::Stage::kPostRoute})
    m[std::string("verify.check_s.") + verify::to_string(stage)] = 0.0;
  for (const char* name : {"table_b", "table_a", "verify_exact"}) {
    const Workload& w = *find_workload(name, false);
    for (const DesignSpec& d : w.designs)
      for (const char* arch : kArchKeys)
        m["flow.run_s." + d.key + "." + arch + "." + w.flow] = 0.0;
  }
  return m;
}

/// One flow's replay state: the span sink, the metric sink and the
/// verifier's proof-cache mirror.
class FlowReplay {
 public:
  FlowReplay(const Inputs& in, std::size_t ci, Tracer& tr, Metrics& m, Totals& totals,
             Tally& tally)
      : in_(in), fc_(in.cases[ci]), flow_(static_cast<int>(ci)), tr_(tr), m_(m),
        totals_(totals), tally_(tally), opts_(in.flow_options(0)),
        golden_(in.designs[fc_.design].netlist) {}

  /// Mirrors run_flow_impl() call for call.
  Qor run() {
    // Layer counters (route.maze_routes, route.connections) of this flow only.
    vpga::obs::ObsContext ctx(false, true);
    const vpga::obs::ScopedObs bind(&ctx);
    const Scope root(tr_, "flow", flow_);
    const vpga::core::PlbArchitecture& arch = in_.archs[static_cast<std::size_t>(fc_.arch)];
    const vpga::designs::BenchmarkDesign& design = in_.designs[fc_.design];
    verify::VerifyOptions vopts;
    vopts.level = opts_.verify_level;
    vopts.equiv.seed = opts_.seed;
    vopts.cec = opts_.cec;
    verify::FlowVerifier verifier(arch, vopts);
    check(verifier, verify::Stage::kInput, golden_, nullptr, nullptr);

    vpga::synth::MapResult mapped;
    {
      const Scope s(tr_, "synth.tech_map", flow_);
      mapped = vpga::synth::tech_map(golden_, vpga::synth::cell_target(arch),
                                     vpga::synth::Objective::kDelay);
    }
    m_["synth.mapped_cells"] += mapped.stats.nodes;
    check(verifier, verify::Stage::kPostMap, mapped.netlist, &golden_, nullptr);

    vpga::compact::CompactionResult compacted;
    {
      const Scope s(tr_, "compact.compact_from", flow_);
      compacted = vpga::compact::compact_from(golden_, mapped.netlist, arch);
    }
    totals_.area_reduction += compacted.report.area_reduction();
    ++totals_.compactions;
    check(verifier, verify::Stage::kPostCompact, compacted.netlist, &golden_, nullptr);
    {
      const Scope s(tr_, "synth.insert_buffers", flow_);
      m_["synth.buffers_added"] +=
          vpga::synth::insert_buffers(compacted.netlist, opts_.max_fanout);
    }
    check(verifier, verify::Stage::kPostBuffer, compacted.netlist, &golden_, nullptr);
    const Netlist& nl = compacted.netlist;

    vpga::place::PlacerOptions popts;
    popts.seed = opts_.seed;
    popts.utilization = opts_.asic_utilization;
    vpga::timing::StaOptions sta;
    sta.clock_period_ps = design.clock_period_ps;
    sta.process = vpga::library::EffortModel();
    vpga::place::Placement placed;
    {
      const Scope s(tr_, "place.place", flow_);
      placed = vpga::place::place(nl, popts);
    }
    popts.criticality = analyze(nl, placed, sta).criticality;
    {
      const Scope s(tr_, "place.place", flow_);
      placed = vpga::place::place(nl, popts);
    }
    {
      const Scope s(tr_, "bench.hpwl", flow_, true);
      m_["place.hpwl_m"] += vpga::place::total_hpwl(nl, placed) / 1e6;
    }

    Qor q;
    vpga::route::RoutingResult routed;
    if (in_.workload->flow == 'a') {
      {
        const Scope s(tr_, "place.asic_die_area", flow_);
        q.die_area_um2 = vpga::place::asic_die_area(nl, opts_.asic_utilization);
      }
      const double cell_pitch = std::max(4.0, placed.width_um / 64.0);
      {
        const Scope s(tr_, "route.route", flow_);
        routed = vpga::route::route(nl, placed, cell_pitch);
      }
      sta.net_length_um = routed.net_length_um;
      q.slack_top10_ps = analyze(nl, placed, sta).avg_slack_top10_ps;
    } else {
      vpga::pack::PackOptions packo;
      vpga::pack::PackedDesign packed;
      for (int iter = 0; iter < std::max(1, opts_.pack_timing_iterations); ++iter) {
        {
          const Scope s(tr_, "pack.pack", flow_);
          packed = vpga::pack::pack(nl, placed, arch, packo);
        }
        m_["pack.calls"] += 1;
        m_["pack.grow_attempts"] += packed.grow_attempts;
        if (iter == 0) {
          const Scope s(tr_, "pack.first_fit", flow_, true, "pack.pack");
          m_["pack.lower_bound_tiles"] += vpga::pack::first_fit_tile_count(nl, arch);
        }
        const vpga::timing::StaOptions pre = sta;
        packo.criticality = analyze(nl, packed.legal, pre).criticality;
      }
      check(verifier, verify::Stage::kPostPack, nl, &golden_, &packed);
      q.die_area_um2 = packed.die_area_um2;
      q.plbs = packed.plbs_used;
      m_["pack.plbs_used"] += packed.plbs_used;
      totals_.pack_tiles += static_cast<double>(packed.grid_w) * packed.grid_h;
      {
        const Scope s(tr_, "route.route", flow_);
        routed = vpga::route::route(nl, packed.legal, packed.tile_size_um);
      }
      check(verifier, verify::Stage::kPostRoute, nl, nullptr, &packed);
      sta.net_length_um = routed.net_length_um;
      q.slack_top10_ps = analyze(nl, packed.legal, sta).avg_slack_top10_ps;
    }
    q.wirelength_um = routed.total_wirelength_um;
    q.overflow_edges = routed.overflow_edges;
    q.peak_congestion = routed.peak_congestion;
    m_["route.wirelength_m"] += routed.total_wirelength_um / 1e6;
    m_["route.overflow_edges"] += routed.overflow_edges;
    m_["route.peak_congestion"] = std::max(m_["route.peak_congestion"], routed.peak_congestion);
    totals_.maze_routes += static_cast<double>(ctx.metrics().counter("route.maze_routes"));
    totals_.connections += static_cast<double>(ctx.metrics().counter("route.connections"));
    return q;
  }

 private:
  vpga::timing::TimingReport analyze(const Netlist& nl, const vpga::place::Placement& p,
                                     const vpga::timing::StaOptions& sta) {
    const Scope s(tr_, "timing.analyze", flow_);
    m_["timing.calls"] += 1;
    return vpga::timing::analyze(nl, p, sta);
  }

  void check(verify::FlowVerifier& verifier, verify::Stage stage, const Netlist& nl,
             const Netlist* golden, const vpga::pack::PackedDesign* packed) {
    const std::string span = std::string("verify.check.") + verify::to_string(stage);
    verify::VerifyReport r;
    {
      const Scope s(tr_, span, flow_);
      r = verifier.check(stage, nl, golden, packed);
    }
    m_["verify.findings"] += static_cast<double>(r.size());
    tally_.check(!r.has_errors(), "replay of " + fc_.label + ": verify error at " +
                                      verify::to_string(stage));
    if (opts_.verify_level == verify::VerifyLevel::kExact && golden != nullptr)
      retime_cec(nl, span);
  }

  /// Re-runs the proof FlowVerifier::check just made, under the same
  /// fingerprint cache rule (a pair equal to the last proven one is skipped).
  void retime_cec(const Netlist& nl, const std::string& check_span) {
    verify::CecReport cec;
    {
      const Scope s(tr_, "verify.cec", flow_, true, check_span);
      if (golden_fp_ == 0) golden_fp_ = verify::netlist_fingerprint(golden_);
      const std::uint64_t fp = golden_fp_ * 0x100000001B3ull ^ verify::netlist_fingerprint(nl);
      if (has_proven_ && fp == proven_fp_) return;
      cec = verify::check_combinational_equivalence(golden_, nl, opts_.cec);
      if (cec.proven()) {
        proven_fp_ = fp;
        has_proven_ = true;
      }
    }
    m_["verify.cec_points"] += cec.checks;
    m_["verify.tier.structural"] += cec.tier_struct;
    m_["verify.tier.truth"] += cec.tier_table;
    m_["verify.tier.bitsim"] += cec.tier_exhaustive;
    m_["verify.tier.bdd"] += cec.tier_bdd;
    m_["verify.tier.sat"] += cec.tier_sat;
    m_["verify.unknown"] += cec.unknown;
    m_["bdd.nodes"] += static_cast<double>(cec.bdd_nodes);
    m_["bdd.ite_calls"] += static_cast<double>(cec.bdd_ite_calls);
    m_["bdd.fallbacks"] += cec.bdd_fallbacks;
    m_["sat.conflicts"] += static_cast<double>(cec.sat_stats.conflicts);
    m_["sat.decisions"] += static_cast<double>(cec.sat_stats.decisions);
    m_["sat.sweep_merges"] += static_cast<double>(cec.sweep_merges);
    if (!cec.equivalent) return;
    const Scope s(tr_, "bench.crosscheck", flow_, true);
    verify::VerifyReport sim;
    verify::check_equivalence(golden_, nl, "cross-check", sim, {64, in_.seed});
    tally_.check(!sim.has_errors(), "replay of " + fc_.label + ": proven-equivalent pair at " +
                                        check_span + " diverges on random stimulus");
  }

  const Inputs& in_;
  const FlowCase& fc_;
  int flow_;
  Tracer& tr_;
  Metrics& m_;
  Totals& totals_;
  Tally& tally_;
  vpga::flow::FlowOptions opts_;
  const Netlist& golden_;
  std::uint64_t golden_fp_ = 0;
  std::uint64_t proven_fp_ = 0;
  bool has_proven_ = false;
};

struct SelfRow {
  int calls = 0;
  double self_s = 0.0;
  bool shadow = false;   ///< benchmark work, charged to no layer
  bool retimed = false;  ///< re-timing shadow: time moved out of the spans it re-times
};

/// Self time per span name: duration minus direct children, with each
/// re-timing shadow's time moved out of the spans it re-times (charged once
/// per such span, and never more than that span's own self time).
std::map<std::string, SelfRow> self_times(const std::vector<SpanRecord>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].dur();
  for (const SpanRecord& s : spans)
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.dur();
  std::map<std::string, SelfRow> rows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (s.retimes.empty()) continue;
    for (std::size_t j = 0; j < spans.size(); ++j) {
      if (spans[j].flow != s.flow || spans[j].name != s.retimes) continue;
      const double moved = std::min(s.dur(), std::max(0.0, self[j]));
      self[j] -= moved;
      rows[s.name].self_s += moved;
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SelfRow& row = rows[spans[i].name];
    ++row.calls;
    row.shadow = spans[i].shadow && spans[i].retimes.empty();
    row.retimed = !spans[i].retimes.empty();
    if (spans[i].retimes.empty()) row.self_s += self[i];
  }
  return rows;
}

/// Shares are of the replayed wall time (the traced run_flow calls and mutant
/// checks, without shadows), the traced counterpart of wall_s.
void print_self_time_table(const std::string& workload, const std::vector<SpanRecord>& spans,
                           double wall_s, double untraced_wall_s) {
  const auto rows = self_times(spans);
  std::printf("self time of the traced replay of %s, as a share of its wall time %.3f s "
              "(untraced wall_s of this run: %.3f s):\n",
              workload.c_str(), wall_s, untraced_wall_s);
  std::printf("  %-28s %6s %10s %8s\n", "span", "calls", "self_s", "share");
  std::map<std::string, double> layers;
  for (const auto& [name, row] : rows) {
    std::string note;
    if (row.shadow) note = "  (benchmark work, not in run_flow)";
    else if (row.retimed) note = "  (re-timed, moved out of the span that runs it)";
    std::printf("  %-28s %6d %10.4f %7.2f%%%s\n", name.c_str(), row.calls, row.self_s,
                100.0 * row.self_s / wall_s, note.c_str());
    if (!row.shadow) layers[name.substr(0, name.find('.'))] += row.self_s;
  }
  std::printf("  by layer (flow = time in run_flow outside any layer call):\n");
  for (const auto& [layer, s] : layers)
    std::printf("  %-28s %17.4f %7.2f%%\n", layer.c_str(), s, 100.0 * s / wall_s);
}

void write_trace(const std::string& path, const Inputs& in, const std::vector<SpanRecord>& spans,
                 bool stale) {
  using vpga::obs::json::format_double;
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "flowbench: cannot write %s\n", path.c_str());
    return;
  }
  os << "{\"workload\": \"" << in.workload->name << "\", \"seed\": " << in.seed
     << ", \"stale\": " << (stale ? "true" : "false") << ", \"flows\": [";
  for (std::size_t i = 0; i < in.cases.size(); ++i)
    os << (i == 0 ? "" : ", ") << '"' << in.cases[i].label << '"';
  os << "],\n \"spans\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    os << (i == 0 ? "\n  " : ",\n  ") << "{\"id\": " << i << ", \"name\": \"" << s.name
       << "\", \"flow\": " << s.flow << ", \"parent\": " << s.parent
       << ", \"start_s\": " << format_double(s.start_s)
       << ", \"end_s\": " << format_double(s.end_s)
       << ", \"shadow\": " << (s.shadow ? "true" : "false") << ", \"retimes\": \"" << s.retimes
       << "\"}";
  }
  os << "\n]}\n";
}

}  // namespace

Metrics run_traced_replay(const Inputs& in, const std::vector<Qor>& reference,
                          const std::vector<double>& untraced_s, Tally& tally,
                          const std::string& trace_path) {
  Metrics m = zero_metrics();
  Totals totals;
  Tracer tr;
  for (const vpga::designs::BenchmarkDesign& d : in.designs)
    m["designs.nand2_eq"] += d.netlist.stats().nand2_equiv;
  for (std::size_t ci = 0; ci < in.cases.size(); ++ci) {
    const Qor q = FlowReplay(in, ci, tr, m, totals, tally).run();
    if (!(q == reference[ci])) {
      ++totals.stale_flows;
      std::fprintf(stderr, "flowbench: replay of %s does not reproduce run_flow's QoR; "
                           "per-layer output is stale\n",
                   in.cases[ci].label.c_str());
    }
    m["flow.run_s." + in.cases[ci].label] = untraced_s[ci];
  }
  const vpga::flow::FlowOptions opts = in.flow_options(0);
  for (const Mutant& mu : in.mutants) {
    verify::CecReport cec;
    {
      const Scope s(tr, "verify.mutant_cec", static_cast<int>(mu.flow_case));
      cec = verify::check_combinational_equivalence(
          in.designs[in.cases[mu.flow_case].design].netlist, mu.netlist, opts.cec);
    }
    check_mutant_verdict(cec, in, mu, tally);
  }

  const std::vector<SpanRecord>& spans = tr.spans();
  double traced_s = 0.0;
  for (const SpanRecord& s : spans) {
    // Roots are flows and mutant checks; shadows are direct children of a flow.
    if (s.parent < 0) traced_s += s.dur();
    if (s.shadow) traced_s -= s.dur();
    if (s.parent < 0 && s.name == "flow") m["flow.unattributed_s"] += s.dur();
    if (s.parent >= 0 && spans[static_cast<std::size_t>(s.parent)].name == "flow")
      m["flow.unattributed_s"] -= s.dur();
    if (s.name.rfind("verify.check.", 0) == 0) {
      m["verify.check_s"] += s.dur();
      m["verify.check_s." + s.name.substr(13)] += s.dur();
    } else if (const auto it = m.find(s.name + "_s"); it != m.end()) {
      it->second += s.dur();
    }
  }
  double untraced_total = 0.0;
  for (double s : untraced_s) untraced_total += s;
  m["flow.replay_gap_s"] = traced_s - untraced_total;
  if (totals.compactions > 0)
    m["compact.area_reduction"] = totals.area_reduction / totals.compactions;
  if (totals.pack_tiles > 0) m["pack.tile_fill"] = m["pack.plbs_used"] / totals.pack_tiles;
  if (totals.connections > 0) m["route.maze_share"] = totals.maze_routes / totals.connections;
  const double bdd_tries = m["verify.tier.bdd"] + m["bdd.fallbacks"];
  if (bdd_tries > 0) m["bdd.useful_ratio"] = m["verify.tier.bdd"] / bdd_tries;
  m["flow.replay_stale_flows"] = totals.stale_flows;

  print_self_time_table(in.workload->name, spans, traced_s, untraced_total);
  if (!trace_path.empty()) write_trace(trace_path, in, spans, totals.stale_flows > 0);
  return m;
}

}  // namespace flowbench

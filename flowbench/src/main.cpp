// Paper-scale flow benchmark (see ../README.md).
//
//   flowbench --workload <table_b|table_a|verify_exact> --seed N --seconds S
//             --trace 0|1 [--smoke] [--trace-out FILE]
//
// --trace 0 runs the workload's flows (and verify_exact's mutant checks)
// untraced, in as many passes as fit in S, and prints the end-to-end metrics.
// --trace 1 runs one untraced pass, then the traced replay (replay.cpp), and
// prints the per-layer metrics. Either way the last stdout line is one JSON
// object {correct, attempted, failed, metrics}. Everything runs on the
// calling thread.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <utility>

#include "bench.hpp"
#include "common/rng.hpp"
#include "obs/json.hpp"
#include "synth/mapper.hpp"

namespace flowbench {
namespace {

using vpga::designs::BenchmarkDesign;
namespace designs = vpga::designs;

/// Set-ups (designs, and mutants in verify_exact) before each pass; setup_s
/// is the fastest of all of a run's set-ups, like every time metric.
constexpr int kSetupRepeats = 5;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

BenchmarkDesign smoke_design(std::size_t i) { return designs::paper_suite(0.15)[i]; }

std::vector<Workload> make_workloads(bool smoke) {
  using vpga::verify::VerifyLevel;
  const DesignSpec alu = smoke ? DesignSpec{"alu", [] { return smoke_design(0); }}
                               : DesignSpec{"alu", [] { return designs::make_alu(32); }};
  const DesignSpec firewire =
      smoke ? DesignSpec{"firewire", [] { return smoke_design(1); }}
            : DesignSpec{"firewire", [] { return designs::make_firewire(); }};
  // One lane of the paper's FPU: the lanes are copies, and one lane keeps the
  // flow b profile (mostly the first-fit lower bound) in a pass short enough
  // to repeat several times per run.
  const DesignSpec fpu = smoke ? DesignSpec{"fpu", [] { return smoke_design(2); }}
                               : DesignSpec{"fpu", [] { return designs::make_fpu(8, 23, 1); }};
  // The paper's 8-port switch at half its data width: route maze repair
  // still dominates.
  const DesignSpec sw =
      smoke ? DesignSpec{"switch", [] { return smoke_design(3); }}
            : DesignSpec{"switch", [] { return designs::make_network_switch(8, 32); }};
  // verify_exact: designs whose exact proofs finish in one or two seconds. The
  // switch settles most points in the BDD tier; on some points the BDD node
  // budget runs out and the proof falls back to SAT.
  const DesignSpec alu_exact =
      smoke ? alu : DesignSpec{"alu", [] { return designs::make_alu(16); }};
  const DesignSpec sw_exact =
      smoke ? sw : DesignSpec{"switch", [] { return designs::make_network_switch(4, 16); }};
  const DesignSpec fpu_exact =
      smoke ? fpu : DesignSpec{"fpu", [] { return designs::make_fpu(5, 7); }};
  // Nominal pass lengths: one pass of each workload on a 4-core x86 VM.
  return {
      {"table_b", 'b', VerifyLevel::kLint, false, {alu, firewire, fpu}, 3.5},
      {"table_a", 'a', VerifyLevel::kLint, false, {alu, firewire, fpu, sw}, 6.0},
      {"verify_exact", 'a', VerifyLevel::kExact, true,
       {alu_exact, firewire, sw_exact, fpu_exact}, 5.0},
  };
}

}  // namespace

const Workload* find_workload(std::string_view name, bool smoke) {
  static const std::vector<Workload> paper = make_workloads(false);
  static const std::vector<Workload> small = make_workloads(true);
  for (const Workload& w : smoke ? small : paper)
    if (w.name == name) return &w;
  return nullptr;
}

vpga::flow::FlowOptions Inputs::flow_options(std::size_t pass) const {
  vpga::flow::FlowOptions opts;
  opts.seed = flow_seeds[pass];
  opts.verify_level = workload->level;
  // Counters only (no spans): route overflow and congestion are not in
  // FlowReport, only in the route.* counters.
  opts.metrics = true;
  return opts;
}

void Tally::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  std::fprintf(stderr, "flowbench: FAILED %s\n", what.c_str());
}

void check_mutant_verdict(const vpga::verify::CecReport& cec, const Inputs& in, const Mutant& m,
                          Tally& tally) {
  const FlowCase& fc = in.cases[m.flow_case];
  const bool refuted = cec.interface_ok && !cec.equivalent && cec.cex.has_value();
  if (!refuted && cec.equivalent) {
    // Independent evidence for the wrong "equivalent" verdict.
    vpga::verify::VerifyReport sim;
    vpga::verify::check_equivalence(in.designs[fc.design].netlist, m.netlist, "mutant", sim,
                                    {64, in.seed});
    std::fprintf(stderr, "flowbench: random stimulus %s the mutant from its design\n",
                 sim.has_errors() ? "distinguishes" : "does not distinguish");
  }
  tally.check(refuted, "mutant " + fc.label + " (output " + std::to_string(m.output) +
                           " inverted) not refuted");
}

namespace {

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// One post-map mutant per flow case, output picked by the seed. The flow's
/// own post-map proof ("equivalent") is cross-checked on random stimulus.
void make_mutants(Inputs& in, Tally& tally) {
  in.mutants.clear();
  for (std::size_t i = 0; i < in.cases.size(); ++i) {
    const FlowCase& fc = in.cases[i];
    const vpga::netlist::Netlist& golden = in.designs[fc.design].netlist;
    auto mapped = vpga::synth::tech_map(golden, vpga::synth::cell_target(in.archs[fc.arch]),
                                        vpga::synth::Objective::kDelay);
    vpga::verify::VerifyReport sim;
    vpga::verify::check_equivalence(golden, mapped.netlist, "post-map", sim, {64, in.seed});
    tally.check(!sim.has_errors(),
                "post-map netlist of " + fc.label + " diverges on random stimulus");

    vpga::common::Rng rng(in.seed * 0x9E3779B97F4A7C15ull + i);
    Mutant m;
    m.flow_case = i;
    m.output = rng.next_u64() % golden.outputs().size();
    m.netlist = std::move(mapped.netlist);
    const vpga::netlist::NodeId out = m.netlist.outputs()[m.output];
    const vpga::netlist::NodeId inverted = m.netlist.add_not(m.netlist.fanin(out, 0));
    m.netlist.set_fanin(out, 0, inverted);
    in.mutants.push_back(std::move(m));
  }
}

/// Generates the workload's designs (and mutants) kSetupRepeats times and
/// keeps the last set; returns the fastest set-up's time. Output checks count
/// in `tally` only for the kept set.
double set_up(Inputs& in, Tally& tally) {
  double fastest = INFINITY;
  for (int r = 0; r < kSetupRepeats; ++r) {
    Tally discarded;
    const auto t0 = Clock::now();
    in.designs.clear();
    for (const DesignSpec& spec : in.workload->designs) in.designs.push_back(spec.make());
    if (in.workload->mutants) make_mutants(in, r + 1 == kSetupRepeats ? tally : discarded);
    fastest = std::min(fastest, seconds_since(t0));
  }
  return fastest;
}

// ---------------------------------------------------------------------------
// Untraced passes
// ---------------------------------------------------------------------------

/// Output checks of one run_flow report; returns its QoR.
Qor check_report(const vpga::flow::FlowReport& rep, const FlowCase& fc, Tally& tally) {
  Qor q;
  q.die_area_um2 = rep.die_area_um2;
  q.plbs = rep.plbs;
  q.wirelength_um = rep.wirelength_um;
  q.slack_top10_ps = rep.avg_slack_top10_ps;
  q.overflow_edges = rep.obs.counter("route.overflow_edges");
  for (const auto& [name, value] : rep.obs.gauges)
    if (name == "route.peak_congestion") q.peak_congestion = value;
  const bool sane = rep.die_area_um2 > 0.0 && rep.wirelength_um > 0.0 &&
                    std::isfinite(rep.avg_slack_top10_ps) && (rep.flow == 'a' || rep.plbs > 0);
  tally.check(!rep.verify.has_errors() && sane, "flow " + fc.label + ": verify error or empty QoR");
  return q;
}

struct Pass {
  std::vector<double> op_s;  ///< per flow case, then per mutant
  std::vector<Qor> qor;      ///< per flow case
};

Pass run_pass(const Inputs& in, std::size_t pass, Tally& tally) {
  Pass p;
  const vpga::flow::FlowOptions opts = in.flow_options(pass);
  for (const FlowCase& fc : in.cases) {
    const auto t0 = Clock::now();
    const vpga::flow::FlowReport rep = vpga::flow::run_flow(
        in.designs[fc.design], in.archs[fc.arch], in.workload->flow, opts);
    p.op_s.push_back(seconds_since(t0));
    p.qor.push_back(check_report(rep, fc, tally));
    std::fprintf(stderr, "flowbench: done %s %.3f s\n", fc.label.c_str(), p.op_s.back());
  }
  for (const Mutant& m : in.mutants) {
    const auto t0 = Clock::now();
    const vpga::verify::CecReport cec = vpga::verify::check_combinational_equivalence(
        in.designs[in.cases[m.flow_case].design].netlist, m.netlist, opts.cec);
    p.op_s.push_back(seconds_since(t0));
    check_mutant_verdict(cec, in, m, tally);
    std::fprintf(stderr, "flowbench: done mutant of %s %.3f s\n",
                 in.cases[m.flow_case].label.c_str(), p.op_s.back());
  }
  return p;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// End-to-end metrics: each operation's time is its fastest over the passes
/// (the host only ever slows a run down), QoR numbers are means over the
/// passes' placement seeds.
Metrics end_to_end(const Inputs& in, const std::vector<Pass>& passes, double setup_s,
                   const Tally& tally) {
  const std::size_t flows = in.cases.size();
  std::vector<double> fastest = passes.front().op_s;
  double area = 0.0, delay = 0.0, congestion = 0.0;
  for (const Pass& p : passes) {
    for (std::size_t i = 0; i < fastest.size(); ++i) fastest[i] = std::min(fastest[i], p.op_s[i]);
    double log_delay = 0.0;
    for (std::size_t i = 0; i < flows; ++i) {
      const Qor& q = p.qor[i];
      area += q.die_area_um2;
      log_delay += std::log(in.designs[in.cases[i].design].clock_period_ps - q.slack_top10_ps);
      congestion += q.peak_congestion / static_cast<double>(flows);
    }
    delay += std::exp(log_delay / static_cast<double>(flows));
  }
  const auto n = static_cast<double>(passes.size());
  Metrics m;
  m["setup_s"] = setup_s;
  m["wall_s"] = std::accumulate(fastest.begin(), fastest.end(), 0.0);
  m["flow_max_s"] = *std::max_element(fastest.begin(), fastest.begin() + flows);
  m["peak_rss_mb"] = peak_rss_mb();
  m["die_area_mm2"] = area / n / 1e6;
  m["top10_delay_ps"] = delay / n;
  m["peak_congestion"] = congestion / n;
  m["ok_share"] = static_cast<double>(tally.attempted - tally.failed) /
                  static_cast<double>(std::max(1LL, tally.attempted));
  return m;
}

std::string unit_of(const std::string& name) {
  auto ends = [&](std::string_view s) {
    return name.size() >= s.size() && name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (ends("_s") || name.find("_s.") != std::string::npos) return "s";
  if (ends("_mb")) return "MB";
  if (ends("_mm2")) return "mm2";
  if (ends("_ps")) return "ps";
  if (ends("_m")) return "m";
  if (ends("_eq")) return "nand2";
  if (ends("_share") || ends("_ratio") || ends("_fill") || ends("_reduction") ||
      ends("_congestion"))
    return "ratio";
  return "count";
}

void print_result(const Tally& tally, const Metrics& metrics) {
  using vpga::obs::json::format_double;
  std::string out = "{\"correct\": ";
  out += tally.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + format_double(value) + ", \"unit\": \"" +
           unit_of(name) + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: flowbench --workload <table_b|table_a|verify_exact> --seed N "
               "--seconds S --trace 0|1 [--smoke] [--trace-out FILE]\n");
  return 2;
}

}  // namespace
}  // namespace flowbench

int main(int argc, char** argv) {
  using namespace flowbench;
  std::string workload, trace_out;
  std::uint64_t seed = 0;
  double seconds = -1.0;
  int trace = -1;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") smoke = true;
    else if (a == "--workload" && has_value) workload = argv[++i];
    else if (a == "--seed" && has_value) seed = std::strtoull(argv[++i], nullptr, 10);
    else if (a == "--seconds" && has_value) seconds = std::atof(argv[++i]);
    else if (a == "--trace" && has_value) trace = std::atoi(argv[++i]);
    else if (a == "--trace-out" && has_value) trace_out = argv[++i];
    else return usage();
  }
  Inputs in;
  in.workload = find_workload(workload, smoke);
  if (in.workload == nullptr || seconds < 0.0 || (trace != 0 && trace != 1)) return usage();
  in.seed = seed;
  // As many whole passes as fit in S at the nominal pass length (at least
  // one); pass 0 places with the seed itself.
  const auto pass_count = static_cast<std::size_t>(
      std::max(1.0, std::floor(seconds / in.workload->pass_seconds)));
  vpga::common::Rng rng(seed);
  in.flow_seeds = {seed};
  while (in.flow_seeds.size() < pass_count) in.flow_seeds.push_back(rng.next_u64());

  in.archs = {vpga::core::PlbArchitecture::granular(), vpga::core::PlbArchitecture::lut_based()};
  for (std::size_t d = 0; d < in.workload->designs.size(); ++d)
    for (int a = 0; a < 2; ++a)
      in.cases.push_back({d, a, in.workload->designs[d].key + "." + kArchKeys[a] + "." +
                                    in.workload->flow});
  Tally tally;
  double setup_s = set_up(in, tally);

  if (trace == 1) {
    const Pass ref = run_pass(in, 0, tally);
    const Metrics layers = run_traced_replay(in, ref.qor, ref.op_s, tally, trace_out);
    print_result(tally, layers);
    return 0;
  }
  std::vector<Pass> passes;
  for (std::size_t k = 0; k < in.flow_seeds.size(); ++k) {
    if (k > 0) {
      Tally repeated;  // the same checks as the first set-up's
      setup_s = std::min(setup_s, set_up(in, repeated));
    }
    passes.push_back(run_pass(in, k, tally));
    double wall = 0.0;
    for (double s : passes.back().op_s) wall += s;
    std::fprintf(stderr, "flowbench: pass %zu wall %.3f s\n", k, wall);
  }
  print_result(tally, end_to_end(in, passes, setup_s, tally));
  return 0;
}

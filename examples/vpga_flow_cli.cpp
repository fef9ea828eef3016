// Command-line flow driver: run any built-in design (or a saved netlist)
// through either flow on either architecture, with optional artifacts.
//
//   vpga_flow_cli --design alu --arch granular --flow b
//   vpga_flow_cli --design fpu --arch lut --flow a
//   vpga_flow_cli --netlist my.vnl --clock 5000 --svg layout.svg
//   vpga_flow_cli --design switch --save-mapped switch_compacted.vnl
//   vpga_flow_cli --design alu --arch-file my_plb.plb
//
// Exit code 0 on success; prints a one-screen implementation report.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "compact/compact.hpp"
#include "core/arch_io.hpp"
#include "flow/flow.hpp"
#include "netlist/io.hpp"
#include "netlist/verilog.hpp"
#include "pack/layout_svg.hpp"
#include "place/placement.hpp"
#include "synth/buffering.hpp"
#include "synth/mapper.hpp"
#include "timing/power.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--design alu|firewire|fpu|switch|adder|counter]\n"
               "          [--netlist file.vnl] [--clock ps]\n"
               "          [--arch granular|lut] [--arch-file file.plb] [--flow a|b]\n"
               "          [--svg layout.svg] [--save-mapped file.vnl]\n"
               "          [--save-verilog file.v] [--power]\n"
               "          [--verify off|lint|equiv|exact]  stage checking (docs/VERIFY.md;\n"
               "                                      exact = SAT-backed equivalence proof)\n"
               "          [--cec-force-bdd]           route every exact-equivalence point\n"
               "                                      through the ROBDD tier first\n"
               "          [--trace trace.json]        Chrome trace of the flow stages\n"
               "          [--metrics-json file.json]  flow counters/histograms\n"
               "                                      (docs/OBSERVABILITY.md)\n"
               "          [--memtrack]                per-stage allocation profiling\n"
               "                                      (*.alloc_* counters)\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vpga;
  std::string design_name = "alu";
  std::string netlist_path;
  std::string arch_name = "granular";
  std::string arch_file;
  std::string svg_path, save_path, verilog_path;
  std::string trace_path, metrics_path;
  char which = 'b';
  double clock_ps = 0.0;
  bool want_power = false;
  bool want_memtrack = false;
  bool cec_force_bdd = false;
  verify::VerifyLevel verify_level = verify::VerifyLevel::kLint;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (a == "--design") {
      if (const char* v = next()) design_name = v;
    } else if (a == "--netlist") {
      if (const char* v = next()) netlist_path = v;
    } else if (a == "--arch") {
      if (const char* v = next()) arch_name = v;
    } else if (a == "--arch-file") {
      if (const char* v = next()) arch_file = v;
    } else if (a == "--flow") {
      if (const char* v = next()) which = v[0];
    } else if (a == "--clock") {
      if (const char* v = next()) clock_ps = std::atof(v);
    } else if (a == "--svg") {
      if (const char* v = next()) svg_path = v;
    } else if (a == "--save-mapped") {
      if (const char* v = next()) save_path = v;
    } else if (a == "--save-verilog") {
      if (const char* v = next()) verilog_path = v;
    } else if (a == "--trace") {
      if (const char* v = next()) trace_path = v;
    } else if (a == "--metrics-json") {
      if (const char* v = next()) metrics_path = v;
    } else if (a == "--memtrack") {
      want_memtrack = true;
    } else if (a == "--power") {
      want_power = true;
    } else if (a == "--cec-force-bdd") {
      cec_force_bdd = true;
    } else if (a == "--verify") {
      const char* v = next();
      const std::string level = v ? v : "";
      if (level == "off") {
        verify_level = verify::VerifyLevel::kOff;
      } else if (level == "lint") {
        verify_level = verify::VerifyLevel::kLint;
      } else if (level == "equiv") {
        verify_level = verify::VerifyLevel::kLintEquiv;
      } else if (level == "exact") {
        verify_level = verify::VerifyLevel::kExact;
      } else {
        usage(argv[0]);
        return 2;
      }
    } else {
      usage(argv[0]);
      return 2;
    }
  }

  // Resolve the design.
  designs::BenchmarkDesign design;
  if (!netlist_path.empty()) {
    auto loaded = netlist::load_netlist(netlist_path);
    if (!loaded.ok) {
      std::fprintf(stderr, "error: %s\n", loaded.error.c_str());
      return 1;
    }
    design.netlist = std::move(loaded.netlist);
    design.clock_period_ps = clock_ps > 0 ? clock_ps : 5000.0;
  } else if (design_name == "alu") {
    design = designs::make_alu();
  } else if (design_name == "firewire") {
    design = designs::make_firewire();
  } else if (design_name == "fpu") {
    design = designs::make_fpu(8, 23, 4);
  } else if (design_name == "switch") {
    design = designs::make_network_switch();
  } else if (design_name == "adder") {
    design = {designs::make_ripple_adder(32), 8000.0, true};
  } else if (design_name == "counter") {
    design = {designs::make_counter(16), 2500.0, false};
  } else {
    usage(argv[0]);
    return 2;
  }
  if (clock_ps > 0) design.clock_period_ps = clock_ps;

  core::PlbArchitecture arch = arch_name == "lut" ? core::PlbArchitecture::lut_based()
                                                   : core::PlbArchitecture::granular();
  if (!arch_file.empty()) {
    auto parsed = core::load_architecture(arch_file);
    if (!parsed.ok) {
      std::fprintf(stderr, "error: %s\n", parsed.error.c_str());
      return 1;
    }
    arch = std::move(parsed.arch);
  }
  if (which != 'a' && which != 'b') {
    usage(argv[0]);
    return 2;
  }

  flow::FlowOptions fopts;
  fopts.verify_level = verify_level;
  fopts.cec.force_bdd = cec_force_bdd;
  fopts.trace = !trace_path.empty();
  fopts.metrics = !metrics_path.empty();
  fopts.memtrack = want_memtrack;
  const auto r = flow::run_flow(design, arch, which, fopts);
  std::printf("design        %s\n", r.design.c_str());
  std::printf("architecture  %s, flow %c\n", r.arch.c_str(), r.flow);
  std::printf("gates         %.0f NAND2-eq\n", r.gate_count_nand2);
  std::printf("compaction    %.1f%% gate-area reduction\n",
              100 * r.compaction.area_reduction());
  std::printf("die area      %.0f um2%s\n", r.die_area_um2,
              which == 'b' ? (" (" + std::to_string(r.plbs) + " PLBs)").c_str() : "");
  std::printf("wirelength    %.0f um\n", r.wirelength_um);
  std::printf("routing       %d edges over capacity, peak congestion %.3f\n",
              r.route_overflow_edges, r.route_peak_congestion);
  std::printf("critical path %.0f ps (clock %.0f ps, top-10 slack %.1f ps)\n",
              r.critical_delay_ps, r.clock_period_ps, r.avg_slack_top10_ps);
  if (verify_level != verify::VerifyLevel::kOff)
    std::printf("verification  %s: clean (%d warnings)\n",
                verify_level == verify::VerifyLevel::kExact        ? "exact"
                : verify_level == verify::VerifyLevel::kLintEquiv ? "lint+equiv"
                                                                  : "lint",
                r.verify.warning_count());
  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", trace_path.c_str());
      return 1;
    }
    out << r.obs.chrome_trace_json();
    std::printf("trace         %s (%zu spans; open in ui.perfetto.dev)\n",
                trace_path.c_str(), r.obs.spans.size());
  }
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", metrics_path.c_str());
      return 1;
    }
    out << r.obs.metrics_json();
    std::printf("metrics       %s (%zu counters)\n", metrics_path.c_str(),
                r.obs.counters.size());
  }

  // Artifacts need the intermediate netlists: rebuild the front of the flow.
  if (!svg_path.empty() || !save_path.empty() || !verilog_path.empty() || want_power) {
    auto mapped = synth::tech_map(design.netlist, synth::cell_target(arch),
                                  synth::Objective::kDelay);
    auto comp = compact::compact_from(design.netlist, mapped.netlist, arch);
    synth::insert_buffers(comp.netlist, 8);
    if (!save_path.empty()) {
      if (!netlist::save_netlist(save_path, comp.netlist)) {
        std::fprintf(stderr, "error: cannot write %s\n", save_path.c_str());
        return 1;
      }
      std::printf("saved         %s (compacted netlist)\n", save_path.c_str());
    }
    if (!verilog_path.empty()) {
      if (!netlist::save_verilog(verilog_path, comp.netlist)) {
        std::fprintf(stderr, "error: cannot write %s\n", verilog_path.c_str());
        return 1;
      }
      std::printf("saved         %s (structural Verilog)\n", verilog_path.c_str());
    }
    const auto placed = place::place(comp.netlist);
    if (want_power) {
      timing::PowerOptions po;
      po.clock_period_ps = design.clock_period_ps;
      const auto pw = timing::estimate_power(comp.netlist, placed, po);
      std::printf("power         %.2f mW dynamic + %.2f mW clock = %.2f mW "
                  "(avg toggle rate %.2f)\n",
                  pw.dynamic_mw, pw.clock_mw, pw.total_mw, pw.avg_toggle_rate);
    }
    if (!svg_path.empty()) {
      const auto packed = pack::pack(comp.netlist, placed, arch);
      if (!pack::write_layout_svg(svg_path, comp.netlist, packed, arch)) {
        std::fprintf(stderr, "error: cannot write %s\n", svg_path.c_str());
        return 1;
      }
      std::printf("layout        %s (%dx%d tiles)\n", svg_path.c_str(), packed.grid_w,
                  packed.grid_h);
    }
  }
  return 0;
}

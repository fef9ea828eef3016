// Datapath example: full-adder packing on ripple-carry adders.
//
//   $ build/examples/adder_datapath [bits]
//
// Demonstrates the paper's Section 2.2 result end to end: the analytic
// full-adder plan, then an actual adder netlist through the flow showing the
// fused FA macros occupying one PLB per bit on the granular architecture.

#include <cstdio>
#include <cstdlib>

#include "compact/compact.hpp"
#include "core/fa_packing.hpp"
#include "designs/designs.hpp"
#include "flow/flow.hpp"
#include "netlist/bitsim.hpp"
#include "synth/mapper.hpp"

int main(int argc, char** argv) {
  using namespace vpga;
  const int bits = argc > 1 ? std::atoi(argv[1]) : 16;
  if (bits < 2 || bits > 64) {
    std::fprintf(stderr, "usage: %s [bits 2..64]\n", argv[0]);
    return 2;
  }

  const auto gran = core::PlbArchitecture::granular();
  const auto lut = core::PlbArchitecture::lut_based();

  std::printf("== analytic plan (Section 2.2) ==\n");
  for (const auto* arch : {&gran, &lut}) {
    const auto plan = core::plan_ripple_adder(*arch, bits);
    std::printf("  %-13s %2d-bit adder: %3d PLBs, carry chain %.0f ps\n",
                arch->name.c_str(), bits, plan.plbs, plan.critical_path_ps);
  }

  std::printf("\n== through the real flow ==\n");
  const auto src = designs::make_ripple_adder(bits);
  for (const auto* arch : {&gran, &lut}) {
    const auto mapped =
        synth::tech_map(src, synth::cell_target(*arch), synth::Objective::kDelay);
    auto comp = compact::compact_from(src, mapped.netlist, *arch);
    // Verify functional equivalence through the transformations.
    const bool ok = !netlist::random_divergence(src, comp.netlist, 256);
    const int fas =
        comp.report.config_histogram[static_cast<int>(core::ConfigKind::kFullAdder)];
    std::printf("  %-13s: %d FA macros fused, equivalence %s\n", arch->name.c_str(), fas,
                ok ? "OK" : "FAILED");
  }

  designs::BenchmarkDesign d{designs::make_ripple_adder(bits), 8000.0, true};
  const auto g = flow::run_flow(d, gran, 'b');
  const auto l = flow::run_flow(d, lut, 'b');
  std::printf("\n  granular: %3d PLBs, die %7.0f um2, critical %5.0f ps\n", g.plbs,
              g.die_area_um2, g.critical_delay_ps);
  std::printf("  LUT     : %3d PLBs, die %7.0f um2, critical %5.0f ps\n", l.plbs,
              l.die_area_um2, l.critical_delay_ps);
  std::printf("  granular uses %.2fx fewer PLBs and is %.2fx faster\n",
              static_cast<double>(l.plbs) / g.plbs, l.critical_delay_ps / g.critical_delay_ps);
  return 0;
}

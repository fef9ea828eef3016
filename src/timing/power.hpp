#pragma once
/// \file power.hpp
/// Dynamic power estimation from simulated switching activity.
///
/// The paper selects component-cell sizes "to give a good power-delay
/// tradeoff"; this module closes that loop: random-vector simulation gives
/// per-net toggle rates, placement/routing gives per-net capacitance, and
/// dynamic power is the usual 1/2 * alpha * C * Vdd^2 * f sum plus the clock
/// load of the flip-flops. Used by the power ablation bench to compare PLB
/// architectures at equal function.

#include <vector>

#include "library/characterize.hpp"
#include "netlist/netlist.hpp"
#include "place/placement.hpp"

namespace vpga::timing {

struct PowerOptions {
  double clock_period_ps = 2500.0;
  double vdd = 1.8;                ///< volts (0.18 um node)
  int cycles = 256;                ///< random simulation cycles, 64 stimulus streams each
  std::uint64_t seed = 1;
  /// Routed length per driver node (empty: Manhattan estimates from placement).
  std::vector<double> net_length_um;
  library::EffortModel process;
};

struct PowerReport {
  double dynamic_mw = 0.0;   ///< combinational + register switching
  double clock_mw = 0.0;     ///< clock network into DFF clock pins
  double total_mw = 0.0;
  double avg_toggle_rate = 0.0;  ///< toggles per net per cycle (activity)
  /// Toggle probability per node output (indexed by NodeId).
  std::vector<double> toggle_rate;
};

/// Estimates dynamic power of a placed (mapped or compacted) netlist.
PowerReport estimate_power(const netlist::Netlist& nl, const place::Placement& placed,
                           const PowerOptions& opts,
                           const library::CellLibrary& lib = library::CellLibrary::standard());

}  // namespace vpga::timing

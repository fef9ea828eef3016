#pragma once
/// \file mapper.hpp
/// Technology mapping: covers an AIG with 3-input matches from a target set.
///
/// This stands in for the paper's Design Compiler mapping step (restricted
/// library of PLB component cells) AND, with a configuration target and the
/// area objective, for the "regularity driven logic compaction" step: the
/// compaction pass re-covers the design with PLB *configurations* (MX, ND3,
/// NDMX, XOAMX, XOANDMX), which is what lets more logic collapse into PLBs.
///
/// Matching is exact: a cut is implementable by an option iff the cut's
/// 3-variable truth table is in the option's coverage set (coverage sets are
/// closed under the via-programmable pin freedoms, so no NPN search is
/// needed at map time).

#include <optional>
#include <string>
#include <vector>

#include "core/plb.hpp"
#include "library/cells.hpp"
#include "netlist/netlist.hpp"

namespace vpga::synth {

/// One way of implementing a cut.
struct MatchOption {
  std::string name;
  logic::FnSet3 coverage;
  library::TimingArc arc;
  double area_um2 = 0.0;
  /// Set when the option is a library cell (pre-compaction netlists).
  std::optional<library::CellKind> cell;
  /// Set when the option is a PLB configuration (compacted netlists);
  /// raw core::ConfigKind value.
  std::uint8_t config_tag = netlist::Node::kNoConfig;
};

/// A complete mapping target (plus the inverter used for polarity repair).
struct MapTarget {
  std::vector<MatchOption> options;
  MatchOption inverter;
  MatchOption buffer;
};

/// The component-cell target of an architecture: LUT3+ND3WI for the LUT-based
/// PLB, MUX2+ND3WI for the granular PLB (the XOA is functionally a MUX2 and
/// is claimed at packing time).
MapTarget cell_target(const core::PlbArchitecture& arch,
                      const library::CellLibrary& lib = library::CellLibrary::standard());

/// The configuration target of an architecture (used by the compaction pass).
MapTarget config_target(const core::PlbArchitecture& arch,
                        const library::CellLibrary& lib = library::CellLibrary::standard());

enum class Objective {
  kDelay,  ///< minimize arrival times (area flow breaks ties)
  kArea,   ///< minimize area flow (arrival breaks ties)
};

struct MapStats {
  double area_um2 = 0.0;     ///< total mapped gate area (the paper's metric)
  int nodes = 0;             ///< mapped combinational nodes (incl. inv/buf)
  int depth = 0;             ///< logic depth in mapped stages
  double est_delay_ps = 0.0; ///< arrival estimate at the worst output
};

struct MapResult {
  netlist::Netlist netlist;
  MapStats stats;
};

/// Maps `src` (any well-formed netlist) onto the target. The result is
/// functionally equivalent (verified by the property tests via random
/// simulation) and carries cell / config annotations per node. Every cut
/// node is stamped with its witness: the positive literal of the AIG node
/// it covers in aig::from_netlist(src). The polarity inverters carry none;
/// the exact-equivalence checker derives theirs from their fanin.
MapResult tech_map(const netlist::Netlist& src, const MapTarget& target,
                   Objective objective, int cut_limit = 8);

}  // namespace vpga::synth

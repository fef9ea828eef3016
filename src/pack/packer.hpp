#pragma once
/// \file packer.hpp
/// Legalization: packing the placed component/configuration netlist into a
/// regular array of PLBs (paper Section 3.1, "Packing into array of PLBs").
///
/// The algorithm follows the paper: recursive quadrisection assigns
/// configuration nodes to array regions balancing resource supply against
/// demand (a Hall check over component subsets, on demand tallies kept
/// summed over subsets); within a region, nodes fill tiles under the
/// architecture's exact tile-state table (core::TileStateTable); overflow
/// relocates to "the nearest region of the chip that has unused resources
/// available" (a spiral of growing rings around the placed tile, each ring in
/// row-major order). The cost function minimizes perturbation of the
/// ASIC-style placement and protects timing-critical nodes (they move last).
/// The flow driver runs the packer inside a pack <-> STA loop: each round's
/// criticality orders the next round's spills and relocations, mirroring the
/// paper's packing <-> physical-synthesis loop.

#include <vector>

#include "core/plb.hpp"
#include "place/placement.hpp"

namespace vpga::pack {

struct PackOptions {
  /// Criticality per node in [0,1] (empty = uniform); critical nodes are
  /// assigned first so they land nearest their placed positions.
  std::vector<double> criticality;
  /// Extra tiles allowed beyond the first-fit count before the array grows
  /// (models array sizing slack).
  double initial_margin = 1.05;
};

/// The legalized design.
struct PackedDesign {
  int grid_w = 0;
  int grid_h = 0;
  double tile_size_um = 0.0;
  /// tile index (= y*grid_w + x) per node; -1 for I/O and constants.
  std::vector<int> tile_of_node;
  /// Legalized positions (tile centers; I/O keeps its placed position).
  place::Placement legal;
  int plbs_used = 0;          ///< tiles with at least one occupant
  int grow_attempts = 0;      ///< array-size retries before legalization fit
  double die_area_um2 = 0.0;  ///< grid_w * grid_h * tile area
  double total_displacement_um = 0.0;
  double max_displacement_um = 0.0;
  /// Fraction of component slots used, per PlbComponent, over used tiles.
  std::array<double, core::kNumPlbComponents> slot_utilization{};
};

/// Packs a compacted netlist (every comb node carries a config_tag or is an
/// INV/BUF cell) into the smallest PLB array that legalizes successfully.
/// Aborts if a configuration fits no tile of `arch` (no array would do).
PackedDesign pack(const netlist::Netlist& nl, const place::Placement& placed,
                  const core::PlbArchitecture& arch, const PackOptions& opts = {});

/// Tiles used by first-fit bin packing of the configuration groups in
/// node-id order. pack() sizes its first array from this count: a feasible
/// packing, so an upper bound on the minimum tile count, not a lower bound
/// (also a useful density metric on its own). Aborts like pack().
int first_fit_tile_count(const netlist::Netlist& nl, const core::PlbArchitecture& arch);

}  // namespace vpga::pack

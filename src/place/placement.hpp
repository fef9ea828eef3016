#pragma once
/// \file placement.hpp
/// ASIC-style detailed placement of the (compacted) netlist — the substitute
/// for the Dolphin physical-synthesis placement in the paper's flow.
///
/// The placer is deterministic: a locality-preserving initial placement,
/// several force-directed median sweeps, then a bounded simulated-annealing
/// swap refinement driven by (optionally criticality-weighted) HPWL. I/O
/// nodes are pinned to the die periphery.
///
/// Everything before the annealing reads neither the seed nor the
/// criticality, so a Placer builds that spread once and anneals copies of it:
/// the flow's timing-driven second placement is one more anneal from the
/// same spread.

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "library/cells.hpp"
#include "netlist/netlist.hpp"

namespace vpga::place {

struct Point {
  double x = 0.0;
  double y = 0.0;
};

/// A placement: one position per netlist node (indexed by NodeId), plus the
/// die footprint it was produced for.
struct Placement {
  std::vector<Point> pos;
  double width_um = 0.0;
  double height_um = 0.0;
};

struct PlacerOptions {
  std::uint64_t seed = 1;
  /// ASIC row utilization; die area = total cell area / utilization.
  double utilization = 0.85;
  int median_sweeps = 7;
  /// SA budget in moves per node.
  int sa_moves_per_node = 12;
  /// Optional per-node criticality in [0,1]; weights the HPWL of nets
  /// touching critical nodes (empty = uniform). Read by place() only; a
  /// Placer takes the criticality per anneal() call.
  std::vector<double> criticality;
};

/// The placer, split where the seed and the criticality first matter.
///
/// The constructor builds the spread: the serpentine seed, the median sweeps
/// with row re-spreading, and the slot grid the annealer moves cells on
/// (span `place.median_sweeps`). anneal() runs the seeded simulated annealing
/// from a copy of that spread (span `place.anneal`), so one Placer serves any
/// number of criticality vectors, and each result equals a fresh place().
class Placer {
 public:
  explicit Placer(const netlist::Netlist& nl, const PlacerOptions& opts = {},
                  const library::CellLibrary& lib = library::CellLibrary::standard());

  /// The annealed placement for per-node `criticality` weights (empty =
  /// uniform). Deterministic in PlacerOptions::seed.
  [[nodiscard]] Placement anneal(const std::vector<double>& criticality) const;

 private:
  /// The annealing loop: each star term is multiplied by its adjacency
  /// entry's `weight` when kWeighted, and taken as it is in the uniform
  /// anneal, whose weights would all be exactly 1.
  template <bool kWeighted>
  [[nodiscard]] Placement anneal_loop(const std::vector<double>& weight) const;

  std::uint64_t seed_;
  int sa_moves_per_node_;
  int rows_ = 0, cols_ = 0;
  double pitch_x_ = 0.0, pitch_y_ = 0.0;
  /// Placeable nodes (comb and DFF) in creation order: the annealer's draw pool.
  std::vector<std::uint32_t> cells_;
  /// CSR adjacency: node v's partners (fanins and fanouts, in the order one
  /// pass over every node's fanins meets them) are adj_[adj_begin_[v] ..
  /// adj_begin_[v + 1]).
  std::vector<std::uint32_t> adj_begin_;
  std::vector<std::uint32_t> adj_;
  /// The spread: every cell on the center of its slot, I/O on the periphery.
  Placement spread_;
  std::vector<std::int32_t> node_of_slot_;  ///< -1 = empty slot
  std::vector<int> slot_of_node_;           ///< -1 = not a cell
};

/// The annealer's early Metropolis rejection. An uphill move with cost
/// ratio x = delta / T >= 0 is accepted iff u < e^-x for the uniform draw u.
/// Since e^x >= 1 + x + x^2/2 + x^3/6 for x >= 0, u times that cubic above
/// 1 + 1e-6 (a margin over the rounding of both sides) already means
/// u > e^-x, and the move is rejected without computing std::exp: the
/// verdict is always the one u < std::exp(-x) gives.
[[nodiscard]] inline bool metropolis_rejects_early(double u, double x) {
  return u * (1.0 + x + x * x / 2.0 + x * x * x / 6.0) > 1.0 + 1e-6;
}

/// Places all logic nodes inside the die; PIs/POs on the periphery.
/// Equivalent to Placer(nl, opts, lib).anneal(opts.criticality).
Placement place(const netlist::Netlist& nl, const PlacerOptions& opts = {},
                const library::CellLibrary& lib = library::CellLibrary::standard());

/// Total half-perimeter wirelength over all nets (driver + sinks bounding box).
double total_hpwl(const netlist::Netlist& nl, const Placement& p);

/// Die area of an unpacked (flow a) implementation: cell area / utilization.
double asic_die_area(const netlist::Netlist& nl, double utilization = 0.85,
                     const library::CellLibrary& lib = library::CellLibrary::standard());

}  // namespace vpga::place

#pragma once
/// \file compact.hpp
/// Regularity-driven logic compaction (paper Section 3.1).
///
/// Takes the Design-Compiler-style delay-mapped netlist and re-covers the
/// logic with PLB *configurations* (3-input supernodes: MX, ND3, NDMX, XOAMX,
/// XOANDMX on the granular PLB; LUT3/ND3 on the LUT-based PLB). "This allows
/// more logic to be collapsed into PLBs"; the paper measures ~15% average
/// reduction in total gate area from this step, which is the number this
/// module's report reproduces.

#include <array>

#include "core/plb.hpp"
#include "synth/mapper.hpp"

namespace vpga::compact {

struct CompactionReport {
  double area_before_um2 = 0.0;  ///< mapped gate area entering compaction
  double area_after_um2 = 0.0;   ///< gate area after configuration covering
  int nodes_before = 0;
  int nodes_after = 0;
  int depth_after = 0;
  /// How many supernodes of each configuration the compacted netlist uses
  /// (indexed by core::ConfigKind).
  std::array<int, core::kNumConfigKinds> config_histogram{};

  [[nodiscard]] double area_reduction() const {
    return area_before_um2 <= 0.0 ? 0.0 : 1.0 - area_after_um2 / area_before_um2;
  }
};

struct CompactionResult {
  netlist::Netlist netlist;  ///< every comb node carries a config_tag (or is an INV/BUF cell)
  CompactionReport report;
};

/// Runs compaction on a mapped netlist for the given architecture. The result
/// is functionally equivalent to the input (and hence to the original RTL).
CompactionResult compact(const netlist::Netlist& mapped, const core::PlbArchitecture& arch,
                         const library::CellLibrary& lib = library::CellLibrary::standard());

/// Variant that builds the configuration cover from `reference` (typically
/// the pre-mapping netlist, whose structure is cleaner to re-cover) while
/// still accounting the area delta against `mapped`. Falls back to the
/// re-labelled mapped netlist when no area reduction is found. Either way
/// the result keeps node witnesses (netlist::Node::witness) in the AIG of
/// `reference`, which is also the AIG of `mapped`'s source in the flow: the
/// re-cover stamps them, the fallback copies them, and FA fusion and pool
/// rebalancing only re-tag nodes. Builds a subject of `reference` for this
/// one call.
CompactionResult compact_from(const netlist::Netlist& reference, const netlist::Netlist& mapped,
                              const core::PlbArchitecture& arch,
                              const library::CellLibrary& lib = library::CellLibrary::standard());

/// compact_from on a subject already built from the reference netlist, as
/// the flow does: the delay map and the three pricing rounds then share one
/// AIG and one cut database. Each pricing round only re-runs the cover
/// (synth::cover); the round that needs the fewest tiles is the only one
/// emitted. The subject is read, never modified. The result is identical to
/// the netlist overload's on the same reference.
CompactionResult compact_from(const synth::Subject& subject, const netlist::Netlist& mapped,
                              const core::PlbArchitecture& arch,
                              const library::CellLibrary& lib = library::CellLibrary::standard());

/// Total mapped gate area of a netlist (cells and configuration supernodes).
double gate_area(const netlist::Netlist& nl,
                 const library::CellLibrary& lib = library::CellLibrary::standard());

}  // namespace vpga::compact

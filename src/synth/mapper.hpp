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

#include "aig/aig.hpp"
#include "core/plb.hpp"
#include "library/cells.hpp"
#include "netlist/netlist.hpp"
#include "synth/cuts.hpp"

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

/// The subject graph of mapping: `src` as an AIG (aig::from_netlist, cut at
/// registers) and the AIG's priority cuts. Building it is most of the cost of
/// a tech_map call, and each construction records one `map.subject` span,
/// with a `map.aig` and a `map.cuts` span inside for its two halves. A flow
/// builds one and every cover of the same netlist reads it: the delay map
/// and the three compaction pricing rounds. It is not modified after
/// construction, so covers may share it, also across threads. It refers to
/// `src`, whose port and register names the emitted netlists take, so `src`
/// must outlive it.
class Subject {
 public:
  explicit Subject(const netlist::Netlist& src);
  /// A subject of a temporary would outlive its source.
  explicit Subject(netlist::Netlist&& src) = delete;

  [[nodiscard]] const netlist::Netlist& source() const { return *src_; }
  /// The AIG and its boundary correspondence. `node_lit` is empty and the
  /// AIG's structural hash is dropped: the cover needs only the AIG's nodes,
  /// so both are released before the cuts are built.
  [[nodiscard]] const aig::AigMapping& mapping() const { return mapping_; }
  [[nodiscard]] const CutDatabase& cuts() const { return cuts_; }

 private:
  const netlist::Netlist* src_;
  aig::AigMapping mapping_;
  CutDatabase cuts_;
};

/// One cover of a subject, not yet emitted as a netlist.
struct Cover {
  struct Choice {
    int cut = -1;     ///< index into the subject's cuts(node)
    int option = -1;  ///< index into MapTarget::options
    double arrival = 0.0;    ///< DP arrival estimate at the node (ps)
    double area_flow = 0.0;  ///< DP area flow under the target's option areas
  };
  /// Per AIG node; set on every AND node.
  std::vector<Choice> choice;
  /// Per AIG node: 1 iff the cover implements it, that is, it is an AND node
  /// reachable from an output through the chosen cuts. emit() emits exactly
  /// these nodes, in ascending AIG node order.
  std::vector<char> needed;
};

/// Covers the subject with the target's options: runs the (arrival,
/// area-flow) DP for three rounds, re-deriving the fanout estimates from each
/// round's cover, and extracts the final cover. A cut's matching options are
/// one load from the target's match index; each option's delay and area are
/// read once per call. Beside the choices the DP keeps each node's arrival
/// and its flow share, area_flow ÷ max(1, fanout), so a cut reads two values
/// per leaf and divides nothing. It emits nothing, so a caller comparing
/// covers (the compaction pricing rounds) emits only the one it keeps.
Cover cover(const Subject& subject, const MapTarget& target, Objective objective);

/// Builds the mapped netlist of a cover made by cover() from the same
/// subject and target: one node per needed AIG node, carrying its option's
/// cell or config tag and its witness (the node's positive AIG literal), then
/// the polarity inverters and the boundary wiring. The stats' area sums the
/// target's option areas as they are now.
MapResult emit(const Subject& subject, const Cover& cover, const MapTarget& target);

/// Maps the subject's netlist onto the target: emit(cover(...)). The result
/// is functionally equivalent to the source (verified by the property tests
/// via random simulation) and carries cell / config annotations per node.
/// Every cut node is stamped with its witness: the positive literal of the
/// AIG node it covers in aig::from_netlist(source). The polarity inverters
/// carry none; the exact-equivalence checker derives theirs from their fanin.
MapResult tech_map(const Subject& subject, const MapTarget& target, Objective objective);

/// tech_map on a subject built from `src` for this one call.
MapResult tech_map(const netlist::Netlist& src, const MapTarget& target, Objective objective);

}  // namespace vpga::synth

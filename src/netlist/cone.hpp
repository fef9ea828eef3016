#pragma once
/// \file cone.hpp
/// Combinational cone extraction for the exact-equivalence checker.
///
/// A check point in CEC is a driver node (an output's fanin or a DFF's D
/// fanin). Its *cone* is the transitive combinational fanin up to the
/// sequential/primary boundary: primary inputs and DFF Q pins are the cone's
/// leaves, constants fold through. `cone_support` reports the leaves as
/// indices into the owning netlist's `inputs()` / `dffs()` vectors — index
/// space, not NodeId space, so supports are directly comparable between the
/// golden and revised netlists of a miter. `extract_cone` then materializes
/// the cone as a tiny standalone netlist whose primary inputs are the given
/// support in [inputs..., states...] order, which is what the truth-table and
/// exhaustive-simulation tiers consume.

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"

namespace vpga::netlist {

/// Leaves and interior of one driver cone.
struct ConeSupport {
  /// Indices into nl.inputs() this cone reads, ascending.
  std::vector<std::uint32_t> inputs;
  /// Indices into nl.dffs() whose Q pin this cone reads, ascending.
  std::vector<std::uint32_t> states;
  /// Number of combinational nodes inside the cone (size signal for tier
  /// selection; constants and leaves excluded).
  std::size_t comb_nodes = 0;

  [[nodiscard]] std::size_t num_leaves() const { return inputs.size() + states.size(); }
};

/// Computes the support of the cone rooted at `root` (any non-output node;
/// for an output or DFF pass its fanin 0). Iterative. Each call zero-fills a
/// fresh `num_nodes` visited array, so it costs O(num_nodes) plus the cone
/// walk and the sort of its leaves: calling it once per register or output
/// costs registers x netlist size (verify/regcorr.cpp sweeps 64 roots per
/// pass instead).
[[nodiscard]] ConeSupport cone_support(const Netlist& nl, NodeId root);

/// Copies the cone rooted at `root` into a fresh netlist whose inputs are
/// exactly `support` in [inputs..., states...] order (DFF Q leaves become
/// primary inputs of the extract). The extract has one output driven by the
/// copied root. `support` must cover the cone (it may be wider — extra
/// leaves become unused inputs, which is how CEC aligns the golden and
/// revised cones of one miter onto a shared variable order).
[[nodiscard]] Netlist extract_cone(const Netlist& nl, NodeId root, const ConeSupport& support);

}  // namespace vpga::netlist

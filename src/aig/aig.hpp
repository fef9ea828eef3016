#pragma once
/// \file aig.hpp
/// And-inverter graph: the subject graph of logic optimization and mapping.
///
/// The AIG is purely combinational; sequential designs are handled by cutting
/// at register boundaries. Combinational inputs are the primary inputs
/// followed by the latch outputs; combinational outputs are the primary
/// outputs followed by the latch next-state functions. Structural hashing,
/// constant folding and trivial-node rules are applied on construction, which
/// is where the "logic optimization" of the paper's Design Compiler stage
/// happens in this reproduction.
///
/// The structural hash is a flat open-addressed table of node indices, not a
/// node-based map: a lookup hashes the normalized (fanin0, fanin1) pair and
/// probes slots until it meets the matching AND node or an empty slot. Hits
/// and misses fall exactly as with any exact hash, so node numbering depends
/// only on the sequence of add_* calls.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "logic/truth_table.hpp"
#include "netlist/netlist.hpp"

namespace vpga::aig {

/// A literal: node index << 1 | complemented.
using Lit = std::uint32_t;

constexpr Lit lit(std::uint32_t node, bool complemented) {
  return (node << 1) | (complemented ? 1u : 0u);
}
constexpr std::uint32_t node_of(Lit l) { return l >> 1; }
constexpr bool is_complemented(Lit l) { return l & 1u; }
constexpr Lit negate(Lit l) { return l ^ 1u; }

/// The constant-false literal (node 0 is the constant node).
inline constexpr Lit kFalse = 0;
inline constexpr Lit kTrue = 1;

class Aig {
 public:
  struct Node {
    Lit fanin0 = 0;  ///< valid for AND nodes only
    Lit fanin1 = 0;
    bool is_and = false;  ///< false: constant (node 0) or combinational input
  };

  Aig();

  /// --- construction ----------------------------------------------------------

  /// Adds a combinational input (PI or latch output) and returns its literal.
  Lit add_input();
  /// Structurally hashed AND with constant folding; may return an existing
  /// literal or a constant.
  Lit add_and(Lit a, Lit b);
  Lit add_or(Lit a, Lit b) { return negate(add_and(negate(a), negate(b))); }
  Lit add_xor(Lit a, Lit b);
  Lit add_mux(Lit sel, Lit d0, Lit d1);
  /// Builds an arbitrary function over the given leaf literals by Shannon
  /// decomposition (hashed, so shared subfunctions collapse).
  Lit build_function(const logic::TruthTable& f, std::span<const Lit> leaves);
  /// Registers a combinational output.
  void add_output(Lit l) { outputs_.push_back(l); }
  /// Frees the structural-hash table, for a graph that is complete. A later
  /// add_and rebuilds it from the nodes, so hashing stays exact.
  void drop_strash() { strash_ = std::vector<std::uint32_t>(); }

  /// --- access -----------------------------------------------------------------

  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }
  [[nodiscard]] std::size_t num_inputs() const { return inputs_.size(); }
  [[nodiscard]] const std::vector<std::uint32_t>& inputs() const { return inputs_; }
  [[nodiscard]] const std::vector<Lit>& outputs() const { return outputs_; }
  [[nodiscard]] const Node& node(std::uint32_t i) const { return nodes_[i]; }
  [[nodiscard]] bool is_input(std::uint32_t i) const {
    return !nodes_[i].is_and && i != 0;
  }

  /// Number of AND nodes reachable from the outputs (the classic size metric).
  [[nodiscard]] std::size_t count_reachable_ands() const;
  /// level[i] = AND-depth of node i (inputs at 0).
  [[nodiscard]] std::vector<int> levels() const;
  [[nodiscard]] int depth() const;

  /// Evaluates the whole AIG for one input assignment (bit i of `in` = input
  /// i); used by the property tests. Returns one bool per output.
  [[nodiscard]] std::vector<bool> eval(const std::vector<bool>& in) const;

 private:
  /// The home slot of the AND (a, b), a < b.
  [[nodiscard]] std::size_t strash_slot(Lit a, Lit b) const;
  /// Doubles the table (at least to 64 slots and to room for one more AND)
  /// and re-inserts every AND node in node order.
  void grow_strash();

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> inputs_;
  std::vector<Lit> outputs_;
  /// Structural hash: an open-addressed, linearly probed table of AND node
  /// indices (0 = empty slot; node 0 is the constant, never an AND), keyed by
  /// the node's (fanin0, fanin1) as stored in nodes_. A power of two in
  /// size, at most half full. Four bytes a slot and no per-entry heap blocks.
  std::vector<std::uint32_t> strash_;
  std::uint32_t strash_shift_ = 64;  ///< 64 - log2(strash_.size())
  std::size_t num_ands_ = 0;
};

/// Correspondence between a netlist and its AIG.
struct AigMapping {
  Aig aig;
  /// Combinational input i of the AIG corresponds to:
  ///   i < num_pis            -> netlist input i
  ///   otherwise              -> netlist dff (i - num_pis) output
  std::size_t num_pis = 0;
  std::size_t num_latches = 0;
  /// Combinational output j corresponds to:
  ///   j < num_pos            -> netlist output j
  ///   otherwise              -> D input of dff (j - num_pos)
  std::size_t num_pos = 0;
  /// node_lit[id] = the literal netlist node `id` became (an output node
  /// shares its driver's). These are the literals tech_map stamps as node
  /// witnesses, and the golden-side claims the exact-equivalence checker
  /// re-verifies gate by gate.
  std::vector<Lit> node_lit;
};

/// Converts a (generic or mapped) netlist into an AIG, cutting at registers.
AigMapping from_netlist(const netlist::Netlist& nl);

/// Rebuilds a generic netlist (2-input gates + DFFs) from an AIG mapping —
/// primarily for simulation-based equivalence checks.
netlist::Netlist to_netlist(const AigMapping& m, const std::string& name = "from_aig");

}  // namespace vpga::aig

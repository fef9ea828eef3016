#pragma once
/// \file netlist.hpp
/// Gate-level netlist — the common IR of the whole flow.
///
/// A netlist is an arena of nodes. Combinational nodes compute a truth table
/// over their fanins; DFF nodes hold state (their output is the Q pin, their
/// single fanin the D pin); inputs/outputs/constants are boundary nodes.
/// The same structure carries a design through every stage: the design
/// generators emit generic logic, the technology mapper re-expresses it in
/// restricted-library cells, and the compaction pass re-groups cells into PLB
/// configurations (recorded in an opaque `config_tag` so this substrate does
/// not depend on the architecture layer above it).
///
/// Storage is CSR-style (struct-of-arrays in the VPR idiom): every node's
/// fanin list is a (offset, count) slice of one shared pool, read through
/// `Netlist::fanins(id)` span views, and node names are interned in a string
/// table — a `Node` itself is a small fixed-size record with no per-node heap
/// blocks. Structural analyses (`topo_order`, `fanout_counts`) are memoized
/// and invalidated by the structural mutators (`add_*`, `set_fanin`,
/// `set_dff_input`, `replace_fanins`); tag mutations through `node(id)`
/// (cell, config_tag, macro_rep, witness) do not touch structure and keep
/// the caches.

#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/concurrency.hpp"
#include "common/ids.hpp"
#include "library/cells.hpp"
#include "logic/truth_table.hpp"

namespace vpga::netlist {

struct NodeTag;
/// Handle to a node; a node's output is the (single) net it drives.
using NodeId = common::Id<NodeTag>;

enum class NodeType : std::uint8_t {
  kConst,   ///< constant 0/1 (value in `func` bit 0)
  kInput,   ///< primary input
  kOutput,  ///< primary output (one fanin, no function)
  kComb,    ///< combinational node: func over fanins
  kDff,     ///< D flip-flop: fanin[0] = D, output = Q
};

/// One netlist node. Fanins and the name live in the owning Netlist's shared
/// pools; the node stores only the slice coordinates, so the record is small
/// and allocation-free.
struct Node {
  static constexpr std::uint8_t kNoConfig = 0xFF;
  static constexpr std::uint32_t kNoWitness = 0xFFFFFFFFu;

  NodeType type = NodeType::kComb;
  /// PLB configuration (raw core::ConfigKind; set by the compaction pass).
  std::uint8_t config_tag = kNoConfig;
  /// Number of fanins (slice length in the owner's fanin pool).
  std::uint8_t fanin_count = 0;
  /// Technology mapping result (set by synth::map; absent on generic nodes).
  std::optional<library::CellKind> cell;
  /// Start of this node's fanin slice in the owner's fanin pool.
  std::uint32_t fanin_offset = 0;
  /// Index into the owner's interned name table (0 = unnamed).
  std::uint32_t name_id = 0;
  /// For kComb: the function over the fanins (func.num_vars() == num_fanins()).
  /// For kConst: bit 0 is the constant's value.
  logic::TruthTable func;
  /// Multi-output macro grouping (e.g. the full-adder configuration, which
  /// produces SUM and COUT from one PLB): all members point at the
  /// representative node; the representative points at itself. Invalid for
  /// ordinary single-output nodes.
  NodeId macro_rep;
  /// The aig::Lit, in aig::from_netlist of the netlist this one was mapped
  /// from, that the node claims to compute (set by synth::tech_map on every
  /// cut node; copies and re-tagging carry it). The exact-equivalence
  /// checker verifies each claim locally before trusting it, so a wrong or
  /// stale witness costs proof time, never a verdict (verify/cec.hpp).
  std::uint32_t witness = kNoWitness;

  [[nodiscard]] int num_fanins() const { return fanin_count; }
  [[nodiscard]] bool is_mapped() const { return cell.has_value(); }
  [[nodiscard]] bool has_config() const { return config_tag != kNoConfig; }
  [[nodiscard]] bool in_macro() const { return macro_rep.valid(); }
};
static_assert(sizeof(Node) <= 40, "the witness must stay inside Node's padding");

/// Lazy view of the dense id range [0, num_nodes) — `all_nodes()` used to
/// materialize this as a fresh vector on every call, which the compaction
/// pricing loop hit six times per round.
class NodeIdRange {
 public:
  class iterator {
   public:
    using value_type = NodeId;
    using difference_type = std::ptrdiff_t;
    constexpr explicit iterator(std::uint32_t i) : i_(i) {}
    constexpr NodeId operator*() const { return NodeId(i_); }
    constexpr iterator& operator++() { ++i_; return *this; }
    constexpr iterator operator++(int) { iterator t = *this; ++i_; return t; }
    friend constexpr bool operator==(iterator a, iterator b) { return a.i_ == b.i_; }
    friend constexpr bool operator!=(iterator a, iterator b) { return a.i_ != b.i_; }

   private:
    std::uint32_t i_;
  };

  constexpr explicit NodeIdRange(std::size_t n) : n_(static_cast<std::uint32_t>(n)) {}
  [[nodiscard]] constexpr iterator begin() const { return iterator(0); }
  [[nodiscard]] constexpr iterator end() const { return iterator(n_); }
  [[nodiscard]] constexpr std::size_t size() const { return n_; }

 private:
  std::uint32_t n_;
};

/// Aggregate size/character statistics.
struct NetlistStats {
  int inputs = 0;
  int outputs = 0;
  int dffs = 0;
  int comb = 0;
  int constants = 0;
  /// Technology-independent size estimate in 2-input-NAND equivalents
  /// (the unit the paper's Table 2 uses for "No. of gates").
  double nand2_equiv = 0.0;
  /// Fraction of logic nodes that are sequential — the property that drives
  /// the paper's Firewire result.
  [[nodiscard]] double sequential_fraction() const {
    const int logic_nodes = dffs + comb;
    return logic_nodes == 0 ? 0.0 : static_cast<double>(dffs) / logic_nodes;
  }
};

/// The netlist arena.
class Netlist {
 public:
  Netlist();
  explicit Netlist(std::string name);
  Netlist(const Netlist& other);
  Netlist(Netlist&& other) noexcept;
  Netlist& operator=(const Netlist& other);
  Netlist& operator=(Netlist&& other) noexcept;

  /// --- construction ---------------------------------------------------------

  NodeId add_input(std::string_view name);
  NodeId add_output(NodeId driver, std::string_view name);
  NodeId add_constant(bool value);
  /// Adds a combinational node; f.num_vars() must equal fanins.size().
  NodeId add_comb(const logic::TruthTable& f, std::span<const NodeId> fanins,
                  std::string_view name = {});
  NodeId add_comb(const logic::TruthTable& f, std::initializer_list<NodeId> fanins,
                  std::string_view name = {}) {
    return add_comb(f, std::span<const NodeId>(fanins.begin(), fanins.size()), name);
  }
  /// Adds a DFF. `d` may be invalid and connected later via set_dff_input
  /// (needed for feedback registers).
  NodeId add_dff(NodeId d, std::string_view name = {});
  void set_dff_input(NodeId dff, NodeId d);

  /// Gate sugar for the design generators (generic, unmapped logic).
  NodeId add_not(NodeId a);
  NodeId add_buf(NodeId a);
  NodeId add_and(NodeId a, NodeId b);
  NodeId add_or(NodeId a, NodeId b);
  NodeId add_xor(NodeId a, NodeId b);
  NodeId add_nand(NodeId a, NodeId b);
  NodeId add_nor(NodeId a, NodeId b);
  NodeId add_xnor(NodeId a, NodeId b);
  /// MUX: s == 0 -> d0, s == 1 -> d1.
  NodeId add_mux(NodeId s, NodeId d0, NodeId d1);
  NodeId add_xor3(NodeId a, NodeId b, NodeId c);
  NodeId add_maj(NodeId a, NodeId b, NodeId c);

  /// --- access ---------------------------------------------------------------

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }
  [[nodiscard]] const Node& node(NodeId id) const { return nodes_[id.index()]; }
  /// Mutable node access is for *tag* mutation (cell, config_tag, macro_rep,
  /// witness, func); structure (fanins) is edited through
  /// set_fanin/replace_fanins so the analysis caches stay coherent.
  [[nodiscard]] Node& node(NodeId id) { return nodes_[id.index()]; }
  [[nodiscard]] const std::vector<NodeId>& inputs() const { return inputs_; }
  [[nodiscard]] const std::vector<NodeId>& outputs() const { return outputs_; }
  [[nodiscard]] const std::vector<NodeId>& dffs() const { return dffs_; }
  /// Every node id, in creation order — a counting view, no materialization.
  [[nodiscard]] NodeIdRange all_nodes() const { return NodeIdRange(nodes_.size()); }

  /// The node's fanins as a span over the shared pool. Invalidated by
  /// structural mutation (like any container view).
  [[nodiscard]] std::span<const NodeId> fanins(NodeId id) const {
    const Node& n = nodes_[id.index()];
    return {fanin_pool_.data() + n.fanin_offset, static_cast<std::size_t>(n.fanin_count)};
  }
  /// Single-fanin shorthand: fanins(id)[k].
  [[nodiscard]] NodeId fanin(NodeId id, int k) const {
    return fanin_pool_[nodes_[id.index()].fanin_offset + static_cast<std::uint32_t>(k)];
  }
  /// Rewires fanin pin `k` of `id` (the count is unchanged).
  void set_fanin(NodeId id, std::size_t k, NodeId fi);
  /// Replaces the whole fanin list. Shrinks in place; growth relocates the
  /// slice to the end of the pool. Deliberately does NOT enforce arity
  /// against `func` — the verify layer's corruption tests depend on being
  /// able to construct ill-formed netlists that `check()`/lint then reject.
  ///
  /// Aliasing: here and in `add_comb`, `fanins` may view this netlist's own
  /// pool (`fanins(x)` of any node, `id`'s own slice included, or a subspan
  /// of one). The span is read once and needs no staging copy by the
  /// caller; a source in the pool is copied by index after the pool grows.
  void replace_fanins(NodeId id, std::span<const NodeId> fanins);

  /// The node's interned name ("" when unnamed).
  [[nodiscard]] const std::string& name_of(NodeId id) const {
    return names_[nodes_[id.index()].name_id];
  }
  [[nodiscard]] const std::string& name_of(const Node& n) const {
    return names_[n.name_id];
  }
  void set_name(NodeId id, std::string_view name);

  /// --- analysis ---------------------------------------------------------------

  /// Combinational nodes and outputs in dependency order (inputs, constants
  /// and DFF outputs are sources; DFF D-pins are sinks). Asserts on
  /// combinational cycles. Memoized: repeated calls between structural
  /// mutations return the cached order (thread-safe fill for shared
  /// read-only netlists, e.g. parallel architecture comparison).
  [[nodiscard]] const std::vector<NodeId>& topo_order() const;
  /// fanout[i] = number of fanin references to node i. Memoized like
  /// topo_order().
  [[nodiscard]] const std::vector<int>& fanout_counts() const;
  [[nodiscard]] NetlistStats stats() const;

  /// Structural well-formedness: arities match, references valid, outputs
  /// wired, no combinational cycles. Returns an explanatory message on error.
  struct CheckResult {
    bool ok = true;
    std::string message;
  };
  [[nodiscard]] CheckResult check() const;

 private:
  NodeId push(Node n, std::span<const NodeId> fanins, std::string_view name);
  /// Appends a copy of `fanins`, which may view this pool, and returns the
  /// new slice's offset.
  std::uint32_t append_fanins(std::span<const NodeId> fanins);
  std::uint32_t intern_name(std::string_view name);
  void invalidate_analysis();
  void compute_topo(std::vector<NodeId>& out) const;

  std::string name_;
  std::vector<Node> nodes_;
  /// Shared CSR fanin pool; nodes_[i] owns the slice
  /// [fanin_offset, fanin_offset + fanin_count). Slices abandoned by
  /// replace_fanins growth are simply leaked inside the pool (append-only).
  std::vector<NodeId> fanin_pool_;
  /// Interned node names; names_[0] is the shared empty string.
  std::vector<std::string> names_;
  std::vector<NodeId> inputs_, outputs_, dffs_;

  /// Memoized structural analyses. The mutex makes concurrent *reads* of a
  /// shared netlist safe (first reader fills the cache); mutation requires
  /// exclusive access, as for any standard container.
  struct AnalysisCache {
    mutable std::mutex mutex;
    bool topo_valid FABRIC_GUARDED_BY(mutex) = false;
    std::vector<NodeId> topo FABRIC_GUARDED_BY(mutex);
    bool fanout_valid FABRIC_GUARDED_BY(mutex) = false;
    std::vector<int> fanouts FABRIC_GUARDED_BY(mutex);
    /// compute_topo() working set, kept here so invalidation-triggered
    /// recomputes reuse the capacity instead of reallocating five vectors.
    std::vector<int> pending FABRIC_GUARDED_BY(mutex);
    std::vector<std::uint32_t> fanout_offset FABRIC_GUARDED_BY(mutex);
    std::vector<std::uint32_t> fanout_pool FABRIC_GUARDED_BY(mutex);
    std::vector<std::uint32_t> cursor FABRIC_GUARDED_BY(mutex);
    std::vector<std::uint32_t> ready FABRIC_GUARDED_BY(mutex);
  };
  mutable AnalysisCache cache_;
};

}  // namespace vpga::netlist

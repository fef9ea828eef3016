#pragma once
/// \file cnf.hpp
/// Tseitin encoding of netlist cones into a shared CNF miter.
///
/// A MiterEncoder owns the variable spaces for one golden/revised netlist
/// pair over one Solver. The two netlists share leaf variables — one SAT
/// variable per primary-input index and one per DFF index (the Q pin's
/// current value) — so encoding a driver from each side and constraining the
/// two result literals to differ is exactly the per-output miter. Interior
/// gates get Tseitin variables with full row clauses (arity <= 6, so at most
/// 64 clauses per gate), after constant/buffer/inverter folding and
/// structural hashing: two gates with the same function word and the same
/// fanin literals — on either side — share one variable, which is what makes
/// identical regions of the pre/post-stage netlists collapse before the
/// solver ever sees them.
///
/// Variable allocation follows construction + encode order only, so CNFs,
/// and therefore verdicts and models, are byte-stable across runs.
///
/// The encoder also remembers each gate variable's fanin literals, so it can
/// list the variables of a literal's cone: the decision set that keeps a
/// solve() about two literals inside their cones.

#include <cstdint>
#include <span>
#include <vector>

#include "common/fnmap.hpp"
#include "netlist/netlist.hpp"
#include "sat/solver.hpp"

namespace vpga::sat {

class MiterEncoder {
 public:
  enum class Side : std::uint8_t { kGolden = 0, kRevised = 1 };

  /// Both netlists must agree on inputs().size() and dffs().size() (the CEC
  /// interface check runs first and refuses mismatched pairs).
  /// `revised_state_map`, when non-empty, gives the register correspondence:
  /// revised DFF d shares the leaf variable of golden DFF
  /// `revised_state_map[d]` instead of golden DFF d — how the CEC miters
  /// netlists whose registers were reordered. Empty means positional.
  MiterEncoder(const netlist::Netlist& golden, const netlist::Netlist& revised, Solver& solver,
               std::span<const std::uint32_t> revised_state_map = {});

  /// Encodes the cone rooted at `node` (a comb node, constant, input, or DFF
  /// — not an output shell) and returns the literal holding its value.
  /// Memoized per side; repeated calls are cheap.
  Lit encode(Side side, netlist::NodeId node);

  /// Shared leaf literals, for counterexample extraction from the model.
  [[nodiscard]] Lit input_lit(std::size_t input_index) const { return input_lits_[input_index]; }
  [[nodiscard]] Lit state_lit(std::size_t state_index) const { return state_lits_[state_index]; }
  [[nodiscard]] std::size_t num_inputs() const { return input_lits_.size(); }
  [[nodiscard]] std::size_t num_states() const { return state_lits_.size(); }

  /// The lazily-created constant literal (a fresh variable pinned by a unit
  /// clause on first use).
  Lit const_lit(bool value);

  /// Overrides the literal memoized for `node` — the SAT-sweeping hook: once
  /// the CEC proves a node equal to an earlier literal (possibly from the
  /// other side), rebinding collapses every not-yet-encoded fanout onto the
  /// proven representative.
  void set_lit(Side side, netlist::NodeId node, Lit lit) {
    sides_[static_cast<int>(side)].lit_of[node.index()] = lit.code();
  }

  /// The variables of the cones rooted at `roots`, each once: every root's
  /// variable and, transitively, the fanin variables of each gate variable
  /// reached. Leaves, the constant and variables the encoder did not create
  /// end a path. The work is proportional to the cones, not to the solver's
  /// variable count. The span is valid until the next call.
  std::span<const Var> cone_vars(std::span<const Lit> roots);

 private:
  struct SideState {
    const netlist::Netlist* nl = nullptr;
    /// Per node index: literal code, or kUnset.
    std::vector<std::uint32_t> lit_of;
  };
  static constexpr std::uint32_t kUnset = 0xFFFFFFFFu;

  void bind_leaves(SideState& ss, std::span<const std::uint32_t> state_map);
  Lit encode_comb(const netlist::Node& n, SideState& ss, netlist::NodeId id);

  Solver& solver_;
  SideState sides_[2];
  std::vector<Lit> input_lits_;
  std::vector<Lit> state_lits_;
  Lit true_lit_;  ///< invalid until const_lit() first runs
  common::FnKeyMap hashcons_;
  /// Per solver variable: offset of its gate record [arity, fanin literal
  /// codes...] in `gate_kids_`, or kUnset when the encoder made no gate.
  std::vector<std::uint32_t> gate_at_;
  std::vector<std::uint32_t> gate_kids_;
  /// cone_vars() result and visit marks: a variable is visited when its
  /// mark equals the current epoch.
  std::vector<Var> cone_;
  std::vector<std::uint32_t> visit_;
  std::uint32_t visit_epoch_ = 0;
  // Encode-loop scratch, hoisted so the hot path never allocates.
  std::vector<netlist::NodeId> stack_;
  std::vector<Lit> kid_buf_;
  std::vector<Lit> clause_buf_;
};

}  // namespace vpga::sat

#pragma once
/// \file cec.hpp
/// Exact combinational equivalence checking (the `verify_level = exact` gate).
///
/// Where the random-stimulus gate (equiv.hpp) samples, this checker proves.
/// Each check point — a primary output's driver or a DFF's D driver — is
/// compared between the golden and revised netlists through a tier ladder,
/// cheapest first:
///
///   1. structural: shared signature hashing across both netlists; identical
///      cones are equivalent without touching their function. Also the
///      witness rule: when revised nodes carry witnesses (Node::witness,
///      stamped by synth::tech_map), the checker builds
///      aig::from_netlist(golden) once and checks, in topological order,
///      every golden gate against its own AIG literal and every witnessed
///      revised node against its witness, each over its fanins' already
///      checked literals. A check evaluates only the AIG cone between the
///      node's literal and its fanins' literals, on 64-lane words; a cone
///      that escapes those leaves or passes 256 AND nodes rejects the claim
///      (`witness_rejects`). A point whose golden and revised drivers hold
///      the same checked literal settles here. Nodes downstream of a
///      rejected or missing claim take the ladder below, so a wrong witness
///      costs time, never a verdict.
///   2. truth table: cones whose union support fits 6 variables collapse to
///      logic::TruthTable and compare directly.
///   3. exhaustive: union support up to `max_exhaustive_inputs` is swept
///      completely with the 64-way bit simulator (2^n / 64 evaluations).
///   4. BDD: both cones are built as ROBDDs (bdd/bdd.hpp) in one manager
///      under a shared, DFS-derived variable order, so equivalence is a root
///      edge compare. A hard node budget bounds each attempt; exhausting it
///      moves the point on instead of growing. The first attempt gets 2^14
///      nodes (or `bdd_node_budget`, if smaller) and falls through to SAT;
///      only a point whose SAT miter runs out of conflicts gets a second
///      attempt at the full `bdd_node_budget`. This is the complete tier for
///      XOR-dominated cones (parity chains, carry trees) where CDCL clause
///      learning scales exponentially but BDDs stay linear.
///   5. SAT: everything else becomes a per-point miter over one incremental
///      CDCL solver (sat/solver.hpp) — selector assumptions retire solved
///      points while learned clauses carry over to the next. When the solver
///      is first built, a SAT-sweeping pass simulates both netlists on shared
///      deterministic stimulus, pairs internal nodes by signature, and proves
///      the candidates bottom-up, merging equal nodes across the two sides so
///      deep miters (multiplier outputs, wide datapaths) collapse instead of
///      exploding. Each candidate proof branches only on the variables of
///      the two candidates' cones; the sweep drops SAT models, so this can
///      cost a merge but never a verdict. The per-point miters branch on
///      every variable.
///
/// The ladder is sweep-aware: once the SAT engine exists, a point past the
/// exhaustive tier is first encoded, and when structural hashing plus the
/// sweep's merges map both cones onto one literal it settles as structural.
/// Only the remaining points go on to the small BDD, then SAT, then the
/// full-budget BDD. force_bdd skips this check and the witness rule, and
/// sends every point to one full-budget BDD attempt first, with SAT as its
/// only fallback.
///
/// Sequential netlists are first aligned by *register correspondence*
/// (verify/regcorr.hpp): instead of assuming DFF i on one side is DFF i on
/// the other, registers are partition-refined by 256-pattern next-state
/// simulation signatures plus structural cone fingerprints (jointly over
/// both sides, so class ids are side-independent), then paired within
/// classes. Netlists whose registers
/// were reordered or renamed therefore still verify; registers with no
/// signature-compatible partner on the other side are reported via
/// cec.state-unmatched and no point comparison is attempted (without a state
/// bijection the combinational comparison is not well defined).
///
/// Any inequivalence produces a full-interface counterexample which is
/// replayed through the bit simulator on the *original* netlists before
/// being reported, so a reported counterexample always witnesses the diff.
/// Every tier is deterministic, so verdicts, statistics and counterexamples
/// are byte-stable across runs and thread counts.
///
/// Rule ids (emitted by the check_cec wrapper):
///   cec.interface-mismatch  PI/PO/DFF counts differ between the netlists
///   cec.output-diverges     a primary output function differs (cex attached)
///   cec.state-diverges      a DFF next-state function differs (cex attached)
///   cec.state-unmatched     a register has no correspondence partner
///   cec.resource-limit      a point exhausted the SAT conflict budget and
///                           the full BDD node budget

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "sat/solver.hpp"
#include "verify/diagnostic.hpp"

namespace vpga::verify {

struct CecOptions {
  /// Run the structural tier: signatures and the witness rule (disable to
  /// benchmark lower tiers).
  bool structural_tier = true;
  /// Union-support ceiling for the exhaustive bit-simulation tier. 16 => at
  /// most 1024 64-wide evaluation sweeps per point.
  int max_exhaustive_inputs = 16;
  /// Per-point SAT conflict budget; exhausting it sends the point to the
  /// full-budget BDD attempt, and when that runs out too the point is
  /// cec.resource-limit (a warning) instead of an unbounded solve.
  long long sat_conflict_budget = 1 << 20;
  /// Run the SAT-sweeping pass before the first miter (disable to benchmark
  /// the raw per-point solver).
  bool sat_sweep = true;
  /// Run the BDD tier between the exhaustive sweep and SAT (disable to
  /// benchmark the raw SAT tier).
  bool bdd_tier = true;
  /// Node budget of the BDD attempt that a point gets after its SAT miter
  /// ran out of conflicts, and of force_bdd's only attempt. The default
  /// ladder's first attempt gets min(2^14, bdd_node_budget). Exhausting a
  /// budget abandons the attempt instead of growing without bound.
  std::uint32_t bdd_node_budget = 1u << 18;
  /// Route every point straight to one full-budget BDD attempt, bypassing
  /// the structural (witness rule included), truth-table and exhaustive
  /// tiers (SAT remains the exhaustion fallback).
  /// The CI forced-BDD exact run sets this via VPGA_CEC_FORCE_BDD=1, which
  /// the check_cec wrapper honours.
  bool force_bdd = false;
};

/// A witness assignment over the full golden interface: inputs[i] / state[d]
/// are 0/1 values aligned with golden.inputs() / golden.dffs().
struct CecCounterexample {
  std::vector<std::uint8_t> inputs;
  std::vector<std::uint8_t> state;
  std::size_t point_index = 0;  ///< output index, or DFF index when is_state
  bool is_state = false;
  std::string point;            ///< interface name of the diverging point
};

struct CecReport {
  bool interface_ok = true;
  /// True when every point proved equivalent (unknowns excluded — see
  /// `unknown`); meaningless when interface_ok is false.
  bool equivalent = true;
  int checks = 0;           ///< points compared
  int tier_struct = 0;      ///< settled structurally (signatures, checked witnesses, or one encoder literal)
  int tier_table = 0;       ///< settled by truth-table comparison
  int tier_exhaustive = 0;  ///< settled by exhaustive bit simulation
  int tier_bdd = 0;         ///< settled by ROBDD root comparison
  int tier_sat = 0;         ///< settled by the SAT miter
  int witness_rejects = 0;  ///< witness claims (and golden gates) that failed their local check
  long long sweep_merges = 0;  ///< internal nodes proven equal by SAT sweeping
  int unknown = 0;          ///< points that exhausted the SAT and BDD budgets
  std::vector<std::string> unknown_points;
  std::optional<CecCounterexample> cex;
  sat::SolverStats sat_stats;
  /// BDD tier statistics (cumulative over every BDD attempt).
  long long bdd_nodes = 0;      ///< nodes allocated across all per-point managers
  long long bdd_ite_calls = 0;  ///< non-terminal ITE recursions
  long long bdd_cache_hits = 0; ///< computed-cache hits
  int bdd_fallbacks = 0;        ///< attempts that exhausted their node budget
  /// Register-correspondence statistics (zero on purely combinational pairs).
  int corr_classes = 0;   ///< refinement classes at the fixpoint
  int corr_rounds = 0;    ///< refinement rounds until the fixpoint
  int corr_permuted = 0;  ///< registers matched away from their position
  int corr_fallbacks = 0; ///< signature-unmatched registers paired positionally
  /// Registers with no partner ("name" golden side, "revised:name" revised
  /// side). Non-empty => no point comparison ran (see file comment).
  std::vector<std::string> unmatched_registers;

  [[nodiscard]] bool proven() const {
    return interface_ok && equivalent && unknown == 0 && unmatched_registers.empty();
  }
};

/// Proves or refutes combinational equivalence of every output and next-state
/// function. Both netlists must be structurally clean (lint first: cone
/// traversal needs valid references and acyclic logic).
[[nodiscard]] CecReport check_combinational_equivalence(const netlist::Netlist& golden,
                                                        const netlist::Netlist& revised,
                                                        const CecOptions& opts = {});

/// Order-sensitive structural fingerprint of a netlist (node types, function
/// words, fanin wiring, interface sizes), transparent to 1-input identity
/// buffers. The flow uses it to skip re-proving a stage boundary whose logic
/// function structure is unchanged since the last proven one — buffering,
/// pack, place and route do not rewrite logic, so their boundaries are
/// cache hits.
[[nodiscard]] std::uint64_t netlist_fingerprint(const netlist::Netlist& nl);

/// FlowVerifier wrapper: runs the checker and converts the outcome into
/// cec.* diagnostics on `report`. When the environment variable
/// VPGA_CEC_CEX_PATH is set, a refutation also writes the counterexample as
/// JSON to that path (the CI exact-gate uploads it as an artifact).
void check_cec(const netlist::Netlist& golden, const netlist::Netlist& revised,
               const std::string& stage, VerifyReport& report, const CecOptions& opts = {});

}  // namespace vpga::verify

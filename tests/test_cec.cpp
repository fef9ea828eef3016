// Tests for the exact equivalence checker (verify/cec.hpp): seeded mutations
// that random stimulus provably misses, counterexample replay, tier routing,
// resource limits, byte-stable determinism and the counterexample dump.

#include "verify/cec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "aig/aig.hpp"
#include "common/rng.hpp"
#include "compact/compact.hpp"
#include "core/plb.hpp"
#include "designs/designs.hpp"
#include "netlist/bitsim.hpp"
#include "netlist/cone.hpp"
#include "netlist/netlist.hpp"
#include "obs/json.hpp"
#include "synth/mapper.hpp"
#include "verify/equiv.hpp"
#include "verify/regcorr.hpp"
#include "witness_helpers.hpp"

namespace vpga::verify {
namespace {

using netlist::BitSimulator;
using netlist::ConeSupport;
using netlist::Netlist;
using netlist::Node;
using netlist::NodeId;
using netlist::NodeType;

/// Replays a counterexample through both original netlists and returns true
/// iff the diverging point really computes different values — the
/// independent witness check the tests insist on for every refutation.
bool cex_witnesses_diff(const Netlist& a, const Netlist& b, const CecCounterexample& cex) {
  BitSimulator sa(a);
  BitSimulator sb(b);
  for (std::size_t i = 0; i < cex.inputs.size(); ++i) {
    const std::uint64_t w = cex.inputs[i] != 0 ? ~std::uint64_t{0} : 0;
    sa.set_input(i, w);
    sb.set_input(i, w);
  }
  for (std::size_t d = 0; d < cex.state.size(); ++d) {
    const std::uint64_t w = cex.state[d] != 0 ? ~std::uint64_t{0} : 0;
    sa.set_state(d, w);
    sb.set_state(d, w);
  }
  sa.eval();
  sb.eval();
  const std::uint64_t va = cex.is_state ? sa.next_state(cex.point_index) : sa.output(cex.point_index);
  const std::uint64_t vb = cex.is_state ? sb.next_state(cex.point_index) : sb.output(cex.point_index);
  return ((va ^ vb) & 1u) != 0;
}

/// A `width`-input AND tree whose output is 1 only on the all-ones vector —
/// the classic needle random stimulus cannot find. `mutate_at` >= 0 replaces
/// that leaf-pair gate with OR (a gate-type flip visible only when the whole
/// tree is driven to 1).
Netlist make_and_tree(int width, int mutate_at = -1) {
  Netlist nl("and_tree");
  std::vector<NodeId> layer;
  for (int i = 0; i < width; ++i) layer.push_back(nl.add_input("x" + std::to_string(i)));
  int gate = 0;
  while (layer.size() > 1) {
    std::vector<NodeId> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
      next.push_back(gate == mutate_at ? nl.add_or(layer[i], layer[i + 1])
                                       : nl.add_and(layer[i], layer[i + 1]));
      ++gate;
    }
    if (layer.size() % 2 != 0) next.push_back(layer.back());
    layer = std::move(next);
  }
  nl.add_output(layer[0], "y");
  return nl;
}

/// How a parity chain folds its inputs. Parity is fully symmetric, so every
/// fold computes the same function — but through disjoint internal nodes, so
/// structural hashing and signature sweeping find nothing to merge between
/// two different folds and the verdict rests entirely on the closing tier.
enum class Fold {
  kForward,   ///< x0 ^ x1 ^ x2 ^ ...
  kReversed,  ///< ... ^ x2 ^ x1 ^ x0 (suffix parities vs prefix parities)
  /// A fixed pseudo-random input order. The XOR miter of a forward vs a
  /// shuffled fold is a Tseitin formula over the union of two Hamiltonian
  /// paths — an expander, the canonical resolution-hard family — while the
  /// BDD of every intermediate (a parity of some input subset) stays linear
  /// under any variable order. This is the shape that separates the tiers.
  kShuffled,
};

Netlist make_parity_chain(int width, Fold fold) {
  Netlist nl("parity");
  std::vector<NodeId> xs;
  for (int i = 0; i < width; ++i) xs.push_back(nl.add_input("x" + std::to_string(i)));
  std::vector<std::size_t> ord(static_cast<std::size_t>(width));
  for (std::size_t i = 0; i < ord.size(); ++i)
    ord[i] = fold == Fold::kReversed ? ord.size() - 1 - i : i;
  if (fold == Fold::kShuffled) {  // deterministic Fisher-Yates, fixed seed
    std::uint64_t s = 0x9E3779B97F4A7C15ull;
    for (std::size_t i = ord.size() - 1; i > 0; --i) {
      s = s * 6364136223846793005ull + 1442695040888963407ull;
      std::swap(ord[i], ord[(s >> 33) % (i + 1)]);
    }
  }
  NodeId acc = xs[ord[0]];
  for (std::size_t i = 1; i < ord.size(); ++i) acc = nl.add_xor(acc, xs[ord[i]]);
  nl.add_output(acc, "p");
  return nl;
}

/// Clones `src` with its registers *declared* in `perm` order (new DFF
/// position i holds the register at src position perm[i]); every function,
/// wire and witness is otherwise identical. Positional DFF matching mislabels
/// such a pair as diverged — only register correspondence recovers the
/// bijection.
Netlist permute_registers(const Netlist& src, const std::vector<std::size_t>& perm) {
  Netlist dst(src.name());
  std::vector<NodeId> map(src.num_nodes());
  // DFF Q pins act as combinational leaves, so declaring every register up
  // front (in permuted order) keeps all later references resolvable.
  for (const std::size_t at : perm) {
    const NodeId old = src.dffs()[at];
    map[old.index()] = dst.add_dff(NodeId(), src.name_of(old));
  }
  for (const NodeId id : src.all_nodes()) {
    const auto& n = src.node(id);
    switch (n.type) {
      case netlist::NodeType::kInput:
        map[id.index()] = dst.add_input(src.name_of(id));
        break;
      case netlist::NodeType::kConst:
        map[id.index()] = dst.add_constant((n.func.bits() & 1u) != 0);
        break;
      case netlist::NodeType::kComb: {
        std::vector<NodeId> fins;
        for (const NodeId f : src.fanins(id)) fins.push_back(map[f.index()]);
        map[id.index()] = dst.add_comb(n.func, fins, src.name_of(id));
        dst.node(map[id.index()]).witness = n.witness;
        break;
      }
      case netlist::NodeType::kOutput:
        dst.add_output(map[src.fanin(id, 0).index()], src.name_of(id));
        break;
      case netlist::NodeType::kDff:
        break;  // declared above; D wired below once its cone exists
    }
  }
  for (const NodeId dff : src.dffs())
    dst.set_dff_input(map[dff.index()], map[src.fanin(dff, 0).index()]);
  return dst;
}

/// The random-stimulus gate at its defaults (64 cycles x 64 lanes) — used to
/// demonstrate which mutations it misses.
bool random_equiv_passes(const Netlist& golden, const Netlist& revised) {
  VerifyReport report;
  check_equivalence(golden, revised, "test", report, EquivOptions{});
  return !report.has_errors();
}

TEST(Cec, IdenticalNetlistsProveStructurally) {
  const Netlist nl = make_and_tree(32);
  const CecReport rep = check_combinational_equivalence(nl, nl);
  EXPECT_TRUE(rep.proven());
  EXPECT_EQ(rep.checks, 1);
  EXPECT_EQ(rep.tier_struct, 1);
  EXPECT_EQ(rep.tier_sat, 0);
}

TEST(Cec, ReassociatedAddersProve) {
  // Three adder architectures computing the same function with completely
  // different structure: ripple vs carry-select (exhaustive-tier supports)
  // and ripple vs Kogge-Stone prefix.
  const Netlist ripple = designs::make_ripple_adder(12);
  const Netlist csel = designs::make_carry_select_adder(12, 4);
  const Netlist prefix = designs::make_prefix_adder(12);
  EXPECT_TRUE(check_combinational_equivalence(ripple, csel).proven());
  const CecReport rep = check_combinational_equivalence(ripple, prefix);
  EXPECT_TRUE(rep.proven());
  EXPECT_EQ(rep.checks, 13);  // 12 sums + carry-out
}

TEST(Cec, GateTypeFlipEscapesRandomButIsCaught) {
  // Flip one leaf AND to OR deep inside a 40-input AND tree. The outputs
  // differ only when the other 38 inputs are all 1 (probability 2^-38 per
  // pattern), so the random gate's 4096 patterns miss it essentially surely
  // — while the exact gate returns a replayable counterexample.
  const Netlist golden = make_and_tree(40);
  const Netlist mutated = make_and_tree(40, /*mutate_at=*/3);
  EXPECT_TRUE(random_equiv_passes(golden, mutated));

  const CecReport rep = check_combinational_equivalence(golden, mutated);
  EXPECT_FALSE(rep.equivalent);
  ASSERT_TRUE(rep.cex.has_value());
  EXPECT_FALSE(rep.cex->is_state);
  EXPECT_TRUE(cex_witnesses_diff(golden, mutated, *rep.cex));
}

TEST(Cec, FaninSwapEscapesRandomButIsCaught) {
  // out = AND(x0..x35) & MUX(s, d0, d1): swapping the mux data fanins only
  // shows when every tree input is 1 and d0 != d1 — invisible to random
  // stimulus, found exactly by the miter.
  auto build = [](bool swap) {
    Netlist nl("gated_mux");
    std::vector<NodeId> xs;
    for (int i = 0; i < 36; ++i) xs.push_back(nl.add_input("x" + std::to_string(i)));
    const NodeId s = nl.add_input("s");
    const NodeId d0 = nl.add_input("d0");
    const NodeId d1 = nl.add_input("d1");
    NodeId acc = xs[0];
    for (int i = 1; i < 36; ++i) acc = nl.add_and(acc, xs[i]);
    const NodeId m = swap ? nl.add_mux(s, d1, d0) : nl.add_mux(s, d0, d1);
    nl.add_output(nl.add_and(acc, m), "y");
    return nl;
  };
  const Netlist golden = build(false);
  const Netlist mutated = build(true);
  EXPECT_TRUE(random_equiv_passes(golden, mutated));

  const CecReport rep = check_combinational_equivalence(golden, mutated);
  EXPECT_FALSE(rep.equivalent);
  ASSERT_TRUE(rep.cex.has_value());
  EXPECT_TRUE(cex_witnesses_diff(golden, mutated, *rep.cex));
}

TEST(Cec, ConstantStuckOutputEscapesRandomButIsCaught) {
  // The output of a 40-input AND tree is 0 on all but one of 2^40 vectors;
  // sticking it at constant 0 passes every random pattern, but the exact
  // checker must produce the all-ones witness.
  const Netlist golden = make_and_tree(40);
  Netlist stuck("and_tree");
  for (int i = 0; i < 40; ++i) stuck.add_input("x" + std::to_string(i));
  stuck.add_output(stuck.add_constant(false), "y");
  EXPECT_TRUE(random_equiv_passes(golden, stuck));

  const CecReport rep = check_combinational_equivalence(golden, stuck);
  EXPECT_FALSE(rep.equivalent);
  ASSERT_TRUE(rep.cex.has_value());
  for (const std::uint8_t v : rep.cex->inputs) EXPECT_EQ(v, 1);  // the needle
  EXPECT_TRUE(cex_witnesses_diff(golden, stuck, *rep.cex));
}

TEST(Cec, StateDivergenceIsCaughtWithStateWitness) {
  // Corrupt one next-state function of a counter: increment becomes hold on
  // the top bit. The witness must be a state assignment (is_state = true).
  auto build = [](bool corrupt) {
    Netlist nl("cnt");
    std::vector<NodeId> q;
    for (int i = 0; i < 4; ++i) q.push_back(nl.add_dff(NodeId(), "q" + std::to_string(i)));
    NodeId carry = nl.add_constant(true);
    for (int i = 0; i < 4; ++i) {
      const NodeId sum = nl.add_xor(q[i], carry);
      const NodeId d = (corrupt && i == 3) ? q[i] : sum;
      nl.set_dff_input(q[i], d);
      if (i + 1 < 4) carry = nl.add_and(q[i], carry);
      nl.add_output(q[i], "o" + std::to_string(i));
    }
    return nl;
  };
  const Netlist golden = build(false);
  const Netlist mutated = build(true);
  const CecReport rep = check_combinational_equivalence(golden, mutated);
  EXPECT_FALSE(rep.equivalent);
  ASSERT_TRUE(rep.cex.has_value());
  EXPECT_TRUE(rep.cex->is_state);
  EXPECT_EQ(rep.cex->point_index, 3u);
  EXPECT_TRUE(cex_witnesses_diff(golden, mutated, *rep.cex));
}

TEST(Cec, SmallConeRefutedByTruthTable) {
  // AND vs XOR over two inputs: the truth-table tier refutes the point, and
  // its first differing row is a replayable counterexample.
  Netlist a("and2");
  Netlist b("xor2");
  {
    const NodeId x = a.add_input("x");
    const NodeId y = a.add_input("y");
    a.add_output(a.add_and(x, y), "z");
  }
  {
    const NodeId x = b.add_input("x");
    const NodeId y = b.add_input("y");
    b.add_output(b.add_xor(x, y), "z");
  }
  const CecReport rep = check_combinational_equivalence(a, b);
  EXPECT_FALSE(rep.equivalent);
  EXPECT_EQ(rep.tier_table, 1);
  ASSERT_TRUE(rep.cex.has_value());
  EXPECT_TRUE(cex_witnesses_diff(a, b, *rep.cex));
}

TEST(Cec, InterfaceMismatchRefusesToCompare) {
  const Netlist small = designs::make_ripple_adder(4);
  const Netlist large = designs::make_ripple_adder(8);
  const CecReport rep = check_combinational_equivalence(small, large);
  EXPECT_FALSE(rep.interface_ok);
  EXPECT_FALSE(rep.proven());
}

TEST(Cec, ExhaustedBudgetReportsUnknownNotVerdict) {
  // With the sweep and BDD tiers disabled, the exhaustive tier capped below
  // the adders' support and a zero conflict budget, wide points must come
  // back unknown — never a wrong verdict.
  const Netlist ripple = designs::make_ripple_adder(16);
  const Netlist prefix = designs::make_prefix_adder(16);
  CecOptions opts;
  opts.sat_sweep = false;
  opts.bdd_tier = false;
  opts.max_exhaustive_inputs = 6;
  opts.sat_conflict_budget = 0;
  const CecReport rep = check_combinational_equivalence(ripple, prefix, opts);
  EXPECT_TRUE(rep.equivalent);  // nothing refuted...
  EXPECT_GT(rep.unknown, 0);    // ...but wide points are undecided
  EXPECT_FALSE(rep.proven());
  EXPECT_FALSE(rep.unknown_points.empty());
}

TEST(Cec, SweepCollapsesMappedDesign) {
  // Technology mapping rewrites the ALU into restricted cells; without the
  // mapper's witnesses the sweep must rediscover the internal equivalences
  // and merge nodes across sides.
  const auto design = designs::make_alu(8);
  const auto arch = core::PlbArchitecture::granular();
  const auto mapped = synth::tech_map(design.netlist, synth::cell_target(arch),
                                      synth::Objective::kDelay);
  const CecReport rep =
      check_combinational_equivalence(design.netlist, strip_witnesses(mapped.netlist));
  EXPECT_TRUE(rep.proven()) << "ALU tech-map must prove exactly";
}

TEST(Cec, VerdictAndCounterexampleAreByteStable) {
  const Netlist golden = make_and_tree(40);
  const Netlist mutated = make_and_tree(40, /*mutate_at=*/3);
  const CecReport first = check_combinational_equivalence(golden, mutated);
  ASSERT_TRUE(first.cex.has_value());
  for (int i = 0; i < 3; ++i) {
    const CecReport again = check_combinational_equivalence(golden, mutated);
    ASSERT_TRUE(again.cex.has_value());
    EXPECT_EQ(again.cex->inputs, first.cex->inputs);
    EXPECT_EQ(again.cex->state, first.cex->state);
    EXPECT_EQ(again.cex->point_index, first.cex->point_index);
    EXPECT_EQ(again.equivalent, first.equivalent);
    EXPECT_EQ(again.sat_stats.conflicts, first.sat_stats.conflicts);
    EXPECT_EQ(again.sat_stats.decisions, first.sat_stats.decisions);
    EXPECT_EQ(again.sat_stats.propagations, first.sat_stats.propagations);
  }
}

/// Field-by-field CecReport equality: verdicts, every tier and engine
/// statistic, and the counterexample.
void expect_same_report(const CecReport& a, const CecReport& b) {
  EXPECT_EQ(a.interface_ok, b.interface_ok);
  EXPECT_EQ(a.equivalent, b.equivalent);
  EXPECT_EQ(a.checks, b.checks);
  EXPECT_EQ(a.tier_struct, b.tier_struct);
  EXPECT_EQ(a.tier_table, b.tier_table);
  EXPECT_EQ(a.tier_exhaustive, b.tier_exhaustive);
  EXPECT_EQ(a.tier_bdd, b.tier_bdd);
  EXPECT_EQ(a.tier_sat, b.tier_sat);
  EXPECT_EQ(a.witness_rejects, b.witness_rejects);
  EXPECT_EQ(a.sweep_merges, b.sweep_merges);
  EXPECT_EQ(a.unknown, b.unknown);
  EXPECT_EQ(a.unknown_points, b.unknown_points);
  ASSERT_EQ(a.cex.has_value(), b.cex.has_value());
  if (a.cex.has_value()) {
    EXPECT_EQ(a.cex->inputs, b.cex->inputs);
    EXPECT_EQ(a.cex->state, b.cex->state);
    EXPECT_EQ(a.cex->point_index, b.cex->point_index);
    EXPECT_EQ(a.cex->is_state, b.cex->is_state);
    EXPECT_EQ(a.cex->point, b.cex->point);
  }
  EXPECT_EQ(a.sat_stats.conflicts, b.sat_stats.conflicts);
  EXPECT_EQ(a.sat_stats.decisions, b.sat_stats.decisions);
  EXPECT_EQ(a.sat_stats.propagations, b.sat_stats.propagations);
  EXPECT_EQ(a.sat_stats.restarts, b.sat_stats.restarts);
  EXPECT_EQ(a.sat_stats.learned_clauses, b.sat_stats.learned_clauses);
  EXPECT_EQ(a.bdd_nodes, b.bdd_nodes);
  EXPECT_EQ(a.bdd_ite_calls, b.bdd_ite_calls);
  EXPECT_EQ(a.bdd_cache_hits, b.bdd_cache_hits);
  EXPECT_EQ(a.bdd_fallbacks, b.bdd_fallbacks);
  EXPECT_EQ(a.corr_classes, b.corr_classes);
  EXPECT_EQ(a.corr_rounds, b.corr_rounds);
  EXPECT_EQ(a.corr_permuted, b.corr_permuted);
  EXPECT_EQ(a.corr_fallbacks, b.corr_fallbacks);
  EXPECT_EQ(a.unmatched_registers, b.unmatched_registers);
}

TEST(Cec, ProofStatisticsAreByteStable) {
  const Netlist ripple = designs::make_ripple_adder(14);
  const Netlist prefix = designs::make_prefix_adder(14);
  const CecReport first = check_combinational_equivalence(ripple, prefix);
  EXPECT_TRUE(first.proven());
  expect_same_report(check_combinational_equivalence(ripple, prefix), first);
}

TEST(Cec, WideParityConeBeyondSatBudgetProvesByBdd) {
  // 128-input parity, forward vs shuffled fold: the XOR miter is an
  // expander-graph Tseitin formula, so with the BDD tier disabled the SAT
  // miter exhausts the *default* conflict budget (2^20 conflicts — this arm
  // deliberately burns them to prove the separation), while the default
  // ladder proves the same point in the BDD tier without a SAT fallback.
  const Netlist fwd = make_parity_chain(128, Fold::kForward);
  const Netlist shuf = make_parity_chain(128, Fold::kShuffled);
  CecOptions sat_only;
  sat_only.bdd_tier = false;
  sat_only.sat_sweep = false;
  const CecReport hard = check_combinational_equivalence(fwd, shuf, sat_only);
  EXPECT_TRUE(hard.equivalent);  // never a wrong verdict...
  EXPECT_GT(hard.unknown, 0);    // ...the point is undecided within budget
  EXPECT_FALSE(hard.proven());
  EXPECT_GE(hard.sat_stats.conflicts, CecOptions{}.sat_conflict_budget);

  const CecReport rep = check_combinational_equivalence(fwd, shuf);
  EXPECT_TRUE(rep.proven());
  EXPECT_EQ(rep.tier_bdd, 1);
  EXPECT_EQ(rep.bdd_fallbacks, 0);
  EXPECT_EQ(rep.unknown, 0);
}

TEST(Cec, WiderParityConeProvesThroughTheFullBudgetRetry) {
  // 256-input parity, forward vs shuffled fold (48,588 BDD nodes): the first
  // BDD attempt runs out of its small budget, the SAT miter runs out of a
  // 4096-conflict budget, and the retry at the full bdd_node_budget proves
  // the point instead of leaving it unknown.
  const Netlist fwd = make_parity_chain(256, Fold::kForward);
  const Netlist shuf = make_parity_chain(256, Fold::kShuffled);
  CecOptions opts;
  opts.sat_conflict_budget = 4096;
  const CecReport rep = check_combinational_equivalence(fwd, shuf, opts);
  EXPECT_TRUE(rep.proven());
  EXPECT_EQ(rep.tier_bdd, 1);
  EXPECT_EQ(rep.bdd_fallbacks, 1);
  EXPECT_EQ(rep.unknown, 0);
}

TEST(Cec, ParityChainMutationRefutedByBddWithWitness) {
  // Complement one inner XOR of the reversed fold: the diff is parity-flipped
  // on every assignment touching that link, and the BDD tier must return a
  // replay-verified counterexample rather than just "not equal".
  const Netlist fwd = make_parity_chain(24, Fold::kForward);
  Netlist mutated = make_parity_chain(24, Fold::kReversed);
  for (const NodeId id : mutated.all_nodes()) {
    auto& n = mutated.node(id);
    if (n.type == netlist::NodeType::kComb) {
      n.func = ~n.func;  // XOR -> XNOR on the first chain link
      break;
    }
  }
  const CecReport rep = check_combinational_equivalence(fwd, mutated);
  EXPECT_FALSE(rep.equivalent);
  ASSERT_TRUE(rep.cex.has_value());
  EXPECT_TRUE(cex_witnesses_diff(fwd, mutated, *rep.cex));
}

TEST(Cec, PermutedRegistersProveViaCorrespondence) {
  // Reverse the declaration order of the counter's registers: position-based
  // matching would compare bit 0's next-state against bit 7's and refute a
  // correct design. Correspondence must recover the bijection and prove.
  const Netlist golden = designs::make_counter(8);
  std::vector<std::size_t> perm(golden.dffs().size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = perm.size() - 1 - i;
  const Netlist revised = permute_registers(golden, perm);
  const CecReport rep = check_combinational_equivalence(golden, revised);
  EXPECT_TRUE(rep.proven()) << "permuted counter must verify";
  EXPECT_GT(rep.corr_permuted, 0);
  EXPECT_EQ(rep.corr_fallbacks, 0);
  EXPECT_TRUE(rep.unmatched_registers.empty());
}

TEST(Cec, PermutedPaperDesignProvesExactly) {
  // The acceptance gate: a register-permuted variant of a paper design (the
  // sequential-dominated Firewire controller) passes the exact gate through
  // register correspondence, end to end via the check_cec wrapper.
  const Netlist golden = designs::make_firewire(4, 8).netlist;
  ASSERT_GT(golden.dffs().size(), 1u);
  std::vector<std::size_t> perm(golden.dffs().size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = perm.size() - 1 - i;
  const Netlist revised = permute_registers(golden, perm);
  const CecReport rep = check_combinational_equivalence(golden, revised);
  EXPECT_TRUE(rep.proven()) << "permuted firewire must verify";
  EXPECT_GT(rep.corr_permuted, 0);

  VerifyReport r;
  check_cec(golden, revised, "test", r);
  EXPECT_EQ(r.error_count(), 0) << r.summary();
  EXPECT_EQ(r.warning_count(), 0) << r.summary();
}

TEST(Cec, ForcedBddTierIsCompleteAndByteStable) {
  // force_bdd routes every point straight to the BDD tier (SAT remains only
  // as the exhaustion fallback); verdict and statistics must be byte-stable.
  const Netlist ripple = designs::make_ripple_adder(12);
  const Netlist prefix = designs::make_prefix_adder(12);
  CecOptions opts;
  opts.force_bdd = true;
  const CecReport first = check_combinational_equivalence(ripple, prefix, opts);
  EXPECT_TRUE(first.proven());
  EXPECT_EQ(first.tier_struct, 0);
  EXPECT_EQ(first.tier_table, 0);
  EXPECT_EQ(first.tier_exhaustive, 0);
  EXPECT_EQ(first.tier_bdd, first.checks);
  const CecReport again = check_combinational_equivalence(ripple, prefix, opts);
  EXPECT_EQ(again.bdd_nodes, first.bdd_nodes);
  EXPECT_EQ(again.bdd_ite_calls, first.bdd_ite_calls);
  EXPECT_EQ(again.bdd_cache_hits, first.bdd_cache_hits);
}

TEST(Cec, BddBudgetExhaustionFallsThroughToSat) {
  // A node budget too small for the adders' BDDs: the tier must give up
  // cleanly (bdd_fallbacks counts it) and SAT still proves the points.
  const Netlist ripple = designs::make_ripple_adder(12);
  const Netlist prefix = designs::make_prefix_adder(12);
  CecOptions opts;
  opts.force_bdd = true;
  opts.bdd_node_budget = 16;
  opts.sat_sweep = false;  // real per-point miters, so the fallback shows as tier_sat
  const CecReport rep = check_combinational_equivalence(ripple, prefix, opts);
  EXPECT_TRUE(rep.proven()) << "SAT fallback must close what the BDD budget cannot";
  EXPECT_GT(rep.bdd_fallbacks, 0);
  EXPECT_GT(rep.tier_sat, 0);
}

TEST(Cec, PaperSuiteMapsProveExactly) {
  // Every paper design survives technology mapping with an exact proof on
  // both architectures (the flow-level equivalent of the CI exact gate).
  for (const auto& arch : {core::PlbArchitecture::granular(), core::PlbArchitecture::lut_based()}) {
    for (const auto& design : designs::paper_suite(0.2)) {
      const auto mapped =
          synth::tech_map(design.netlist, synth::cell_target(arch), synth::Objective::kDelay);
      const CecReport rep =
          check_combinational_equivalence(design.netlist, mapped.netlist);
      EXPECT_TRUE(rep.proven()) << design.netlist.name() << " on " << arch.name;
      EXPECT_EQ(rep.checks,
                static_cast<int>(design.netlist.outputs().size() + design.netlist.dffs().size()));
    }
  }
}

/// Tier 1's witness rule on one stage netlist: every point settles there
/// with no rejected claim and no BDD or SAT work, the witness-stripped copy
/// (the ladder) reaches the same verdict, and the report is byte-stable
/// across repeats and across four concurrent proofs.
void expect_witness_tier_proof(const Netlist& golden, const Netlist& revised,
                               const std::string& what) {
  const CecReport rep = check_combinational_equivalence(golden, revised);
  EXPECT_TRUE(rep.proven()) << what;
  EXPECT_EQ(rep.tier_struct, rep.checks) << what;
  EXPECT_EQ(rep.witness_rejects, 0) << what;
  EXPECT_EQ(rep.tier_bdd, 0) << what;
  EXPECT_EQ(rep.tier_sat, 0) << what;
  const CecReport stripped = check_combinational_equivalence(golden, strip_witnesses(revised));
  EXPECT_EQ(stripped.checks, rep.checks) << what;
  EXPECT_EQ(stripped.equivalent, rep.equivalent) << what;
  EXPECT_EQ(stripped.proven(), rep.proven()) << what;
  expect_same_report(check_combinational_equivalence(golden, revised), rep);
  std::vector<CecReport> concurrent(4);
  std::vector<std::thread> threads;
  for (CecReport& out : concurrent) {
    threads.emplace_back(
        [&out, &golden, &revised] { out = check_combinational_equivalence(golden, revised); });
  }
  for (std::thread& t : threads) t.join();
  for (const CecReport& r : concurrent) expect_same_report(r, rep);
}

TEST(Cec, WitnessTierProvesPaperSuiteMapsAndCompactions) {
  // tech_map stamps every cut node with its golden AIG literal and
  // compaction carries the stamps, so both stage netlists of every paper
  // design prove by local cut checks alone.
  for (const auto& arch : {core::PlbArchitecture::granular(), core::PlbArchitecture::lut_based()}) {
    for (const auto& design : designs::paper_suite(0.2)) {
      const auto mapped =
          synth::tech_map(design.netlist, synth::cell_target(arch), synth::Objective::kDelay);
      const auto compacted = compact::compact_from(design.netlist, mapped.netlist, arch);
      const std::string what = design.netlist.name() + " on " + arch.name;
      expect_witness_tier_proof(design.netlist, mapped.netlist, what + ", post-map");
      expect_witness_tier_proof(design.netlist, compacted.netlist, what + ", post-compact");
    }
  }
}

TEST(Cec, WitnessedGateFlipIsRefutedWhereTheStrippedCopyIs) {
  // A gate whose function is complemented keeps its witness, which it no
  // longer computes: its local check fails, the points it feeds take the
  // ladder, and the proof refutes the same point as the witness-stripped
  // copy, with a counterexample that replays.
  const designs::BenchmarkDesign suite[] = {designs::make_alu(8), designs::make_firewire(4, 8)};
  common::Rng rng(0x5EED);
  int refuted = 0;
  for (const auto& design : suite) {
    const Netlist mapped = synth::tech_map(design.netlist,
                                           synth::cell_target(core::PlbArchitecture::granular()),
                                           synth::Objective::kDelay)
                               .netlist;
    std::vector<NodeId> stamped;
    for (const NodeId id : mapped.all_nodes()) {
      if (mapped.node(id).witness != netlist::Node::kNoWitness) stamped.push_back(id);
    }
    ASSERT_FALSE(stamped.empty());
    for (int trial = 0; trial < 3; ++trial) {
      Netlist flipped = mapped;
      auto& n = flipped.node(stamped[rng.next_below(stamped.size())]);
      n.func = ~n.func;
      const std::string what = design.netlist.name() + ", trial " + std::to_string(trial);
      const CecReport rep = check_combinational_equivalence(design.netlist, flipped);
      const CecReport stripped =
          check_combinational_equivalence(design.netlist, strip_witnesses(flipped));
      EXPECT_GE(rep.witness_rejects, 1) << what;
      EXPECT_EQ(rep.unknown, 0) << what;
      EXPECT_EQ(rep.equivalent, stripped.equivalent) << what;
      ASSERT_EQ(rep.cex.has_value(), stripped.cex.has_value()) << what;
      if (!rep.cex.has_value()) continue;
      ++refuted;
      EXPECT_EQ(rep.cex->point_index, stripped.cex->point_index) << what;
      EXPECT_EQ(rep.cex->is_state, stripped.cex->is_state) << what;
      EXPECT_TRUE(cex_witnesses_diff(design.netlist, flipped, *rep.cex)) << what;
    }
  }
  EXPECT_GE(refuted, 4);
}

TEST(Cec, WrongWitnessesAreRejectedAndTheLadderProves) {
  // A witness is a claim, never trusted unchecked: a wrong one fails its
  // local check (witness_rejects) and the correct netlist still proves,
  // with the points behind the rejected claim settled by the ladder.
  const designs::BenchmarkDesign design = designs::make_alu(8);
  const Netlist mapped = synth::tech_map(design.netlist,
                                         synth::cell_target(core::PlbArchitecture::granular()),
                                         synth::Objective::kDelay)
                             .netlist;
  const aig::AigMapping golden_aig = aig::from_netlist(design.netlist);
  // The ALU registers its operands, so its first logic level reads
  // register outputs: the combinational inputs of the proof.
  std::vector<NodeId> stamped;
  NodeId fed_by_inputs;
  for (const NodeId id : mapped.all_nodes()) {
    if (mapped.node(id).witness == netlist::Node::kNoWitness) continue;
    stamped.push_back(id);
    bool inputs_only = true;
    for (const NodeId fi : mapped.fanins(id)) {
      const netlist::NodeType t = mapped.node(fi).type;
      inputs_only = inputs_only && (t == netlist::NodeType::kInput || t == netlist::NodeType::kDff);
    }
    if (inputs_only && !fed_by_inputs.valid()) fed_by_inputs = id;
  }
  ASSERT_GE(stamped.size(), 2u);
  ASSERT_TRUE(fed_by_inputs.valid());

  Netlist swapped = mapped;
  std::swap(swapped.node(stamped[0]).witness, swapped.node(stamped[1]).witness);
  // The deepest golden output literal: its cone reaches far past the
  // combinational inputs that feed `fed_by_inputs`.
  aig::Lit deepest = golden_aig.aig.outputs()[0];
  for (const aig::Lit o : golden_aig.aig.outputs())
    if (aig::node_of(o) > aig::node_of(deepest)) deepest = o;
  Netlist escaping = mapped;
  escaping.node(fed_by_inputs).witness = deepest;
  Netlist out_of_range = mapped;
  out_of_range.node(stamped[0]).witness =
      aig::lit(static_cast<std::uint32_t>(golden_aig.aig.num_nodes()) + 7, false);

  for (const auto& [nl, what] : {std::pair<const Netlist*, const char*>{&swapped, "swapped"},
                                 {&escaping, "escaping cone"},
                                 {&out_of_range, "out of range"}}) {
    const CecReport rep = check_combinational_equivalence(design.netlist, *nl);
    EXPECT_TRUE(rep.proven()) << what;
    EXPECT_GE(rep.witness_rejects, 1) << what;
    EXPECT_LT(rep.tier_struct, rep.checks) << what;
  }
}

TEST(Cec, WitnessedPermutedFirewireProves) {
  // Golden: the mapped Firewire. Revised: the same netlist with its
  // registers declared in reverse order, every comb node witnessing the
  // literal its original computes in aig::from_netlist(golden). The claims
  // of the register-fed nodes check only because revised DFF d takes the
  // literal of its correspondence partner corr.inv[d], not of golden DFF d.
  const Netlist golden = synth::tech_map(designs::make_firewire(4, 8).netlist,
                                         synth::cell_target(core::PlbArchitecture::granular()),
                                         synth::Objective::kDelay)
                             .netlist;
  const aig::AigMapping m = aig::from_netlist(golden);
  Netlist stamped = golden;
  for (const NodeId id : stamped.all_nodes()) {
    if (stamped.node(id).type == netlist::NodeType::kComb)
      stamped.node(id).witness = m.node_lit[id.index()];
  }
  std::vector<std::size_t> perm(golden.dffs().size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = perm.size() - 1 - i;
  const Netlist revised = permute_registers(stamped, perm);
  const CecReport rep = check_combinational_equivalence(golden, revised);
  EXPECT_TRUE(rep.proven());
  EXPECT_GT(rep.corr_permuted, 0);
  EXPECT_EQ(rep.witness_rejects, 0);
  EXPECT_EQ(rep.tier_struct, rep.checks);
  // The tech_map witnesses of the mapped netlist name literals of the
  // design's AIG, not of this golden's: they are checked, rejected, and the
  // ladder still proves the pair.
  const CecReport foreign = check_combinational_equivalence(golden, permute_registers(golden, perm));
  EXPECT_TRUE(foreign.proven());
  EXPECT_GT(foreign.corr_permuted, 0);
  EXPECT_GT(foreign.witness_rejects, 0);
}

/// The post-map netlist of `design` on `arch` with one seeded mutation: an
/// inverted output, or a gate whose function is complemented.
Netlist mapped_mutant(const designs::BenchmarkDesign& design, const core::PlbArchitecture& arch,
                      bool flip_gate, std::uint64_t seed) {
  Netlist nl =
      synth::tech_map(design.netlist, synth::cell_target(arch), synth::Objective::kDelay).netlist;
  common::Rng rng(seed);
  if (!flip_gate) {
    const NodeId out = nl.outputs()[rng.next_below(nl.outputs().size())];
    nl.set_fanin(out, 0, nl.add_not(nl.fanin(out, 0)));
    return nl;
  }
  std::vector<NodeId> gates;
  for (const NodeId id : nl.all_nodes()) {
    if (nl.node(id).type == netlist::NodeType::kComb) gates.push_back(id);
  }
  auto& n = nl.node(gates[rng.next_below(gates.size())]);
  n.func = ~n.func;
  return nl;
}

TEST(Cec, TierRoutingsAgreeOnMappedMutants) {
  // On the witness-stripped mutant, the default ladder (sweep-aware
  // structural check, BDD, SAT), the ladder without BDDs, and every point
  // forced through the BDD tier first must reach the same verdict on the
  // same first diverging point — and so must the default ladder on the
  // witnessed mutant, whose mutation sits behind a witness it no longer
  // matches (a flipped gate) or a witness-free inverter.
  const designs::BenchmarkDesign suite[] = {designs::make_network_switch(4, 8),
                                            designs::make_fpu(4, 6), designs::make_alu(8)};
  CecOptions no_bdd;
  no_bdd.bdd_tier = false;
  CecOptions forced;
  forced.force_bdd = true;
  int refuted = 0;
  std::uint64_t seed = 1;
  for (const auto& arch : {core::PlbArchitecture::granular(), core::PlbArchitecture::lut_based()}) {
    for (const auto& design : suite) {
      for (const bool flip_gate : {false, true}) {
        const Netlist witnessed = mapped_mutant(design, arch, flip_gate, seed++);
        const Netlist mutant = strip_witnesses(witnessed);
        const std::string what = design.netlist.name() + " on " + arch.name +
                                 (flip_gate ? ", gate flip" : ", inverted output");
        const CecReport def = check_combinational_equivalence(design.netlist, mutant);
        ASSERT_TRUE(def.interface_ok) << what;
        EXPECT_EQ(def.unknown, 0) << what;
        for (const auto& [net, opts] : {std::pair<const Netlist*, CecOptions>{&mutant, no_bdd},
                                        {&mutant, forced},
                                        {&witnessed, CecOptions{}}}) {
          const CecReport other = check_combinational_equivalence(design.netlist, *net, opts);
          EXPECT_EQ(other.equivalent, def.equivalent) << what;
          EXPECT_EQ(other.unknown, 0) << what;
          ASSERT_EQ(other.cex.has_value(), def.cex.has_value()) << what;
          if (!def.cex.has_value()) continue;
          EXPECT_EQ(other.cex->point_index, def.cex->point_index) << what;
          EXPECT_EQ(other.cex->is_state, def.cex->is_state) << what;
          EXPECT_TRUE(cex_witnesses_diff(design.netlist, *net, *other.cex)) << what;
        }
        if (def.cex.has_value()) {
          ++refuted;
          EXPECT_TRUE(cex_witnesses_diff(design.netlist, mutant, *def.cex)) << what;
        } else {
          EXPECT_TRUE(flip_gate) << what << ": an inverted output must refute";
        }
      }
    }
  }
  EXPECT_GE(refuted, 9);  // every inverted output, and most gate flips
}

TEST(Cec, SweptProofIsByteStableAcrossRepeatsAndThreads) {
  // A witness-stripped post-map ALU proof on the LUT PLB reaches the
  // cone-restricted SAT sweep and the sweep-aware structural check; its
  // whole report must not depend on the run or on three other proofs
  // running beside it.
  const designs::BenchmarkDesign design = designs::make_alu(16);
  const Netlist mapped = strip_witnesses(
      synth::tech_map(design.netlist, synth::cell_target(core::PlbArchitecture::lut_based()),
                      synth::Objective::kDelay)
          .netlist);
  const CecReport first = check_combinational_equivalence(design.netlist, mapped);
  ASSERT_TRUE(first.proven());
  EXPECT_GT(first.sweep_merges, 0);
  EXPECT_GT(first.sat_stats.decisions, 0);
  expect_same_report(check_combinational_equivalence(design.netlist, mapped), first);

  std::vector<CecReport> concurrent(4);
  std::vector<std::thread> threads;
  for (CecReport& out : concurrent) {
    threads.emplace_back(
        [&out, &design, &mapped] { out = check_combinational_equivalence(design.netlist, mapped); });
  }
  for (std::thread& t : threads) t.join();
  for (const CecReport& r : concurrent) expect_same_report(r, first);
}

TEST(Cec, MappedAluBddAttemptsStayWithinTheFirstBudget) {
  // The witness-stripped post-map ALU on the LUT PLB has a cone whose BDD
  // outgrows the first attempt's budget. Falling through builds the SAT
  // engine, whose sweep settles the remaining points, so no attempt may
  // build more than 2^14 nodes (a full-budget first attempt spends 523,201
  // nodes in 17 attempts here).
  const designs::BenchmarkDesign design = designs::make_alu(16);
  const Netlist mapped = strip_witnesses(
      synth::tech_map(design.netlist, synth::cell_target(core::PlbArchitecture::lut_based()),
                      synth::Objective::kDelay)
          .netlist);
  const CecReport rep = check_combinational_equivalence(design.netlist, mapped);
  ASSERT_TRUE(rep.proven());
  EXPECT_GT(rep.bdd_fallbacks, 0);
  EXPECT_LE(rep.bdd_nodes, static_cast<long long>(rep.tier_bdd + rep.bdd_fallbacks) << 14);
}

TEST(Cec, CounterexampleDumpEscapesNames) {
  // Design, stage and point names are written as JSON strings: quotes,
  // backslashes and control characters must come back intact.
  const std::string design_name = "and \"tree\"\\v2";
  const std::string point_name = "y\"out\\0";
  const std::string stage = "post\tmap\n";
  // An 8-input AND chain; the mutant's first gate is an OR.
  auto build = [&](bool mutate) {
    Netlist nl(design_name);
    std::vector<NodeId> xs;
    for (int i = 0; i < 8; ++i) xs.push_back(nl.add_input("x" + std::to_string(i)));
    NodeId acc = mutate ? nl.add_or(xs[0], xs[1]) : nl.add_and(xs[0], xs[1]);
    for (std::size_t i = 2; i < xs.size(); ++i) acc = nl.add_and(acc, xs[i]);
    nl.add_output(acc, point_name);
    return nl;
  };
  const Netlist golden = build(false);
  const Netlist mutated = build(true);

  const std::string path = ::testing::TempDir() + "cec_cex_escape.json";
  std::remove(path.c_str());
  ASSERT_EQ(setenv("VPGA_CEC_CEX_PATH", path.c_str(), 1), 0);
  VerifyReport report;
  check_cec(golden, mutated, stage, report);
  unsetenv("VPGA_CEC_CEX_PATH");
  EXPECT_TRUE(report.has_errors());

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "no counterexample written to " << path;
  std::stringstream text;
  text << in.rdbuf();
  obs::json::Value doc;
  std::string err;
  ASSERT_TRUE(obs::json::parse(text.str(), doc, &err)) << err << "\n" << text.str();
  ASSERT_NE(doc.find("design"), nullptr);
  EXPECT_EQ(doc.find("design")->string, design_name);
  ASSERT_NE(doc.find("stage"), nullptr);
  EXPECT_EQ(doc.find("stage")->string, stage);
  ASSERT_NE(doc.find("point"), nullptr);
  EXPECT_EQ(doc.find("point")->string, point_name);
  ASSERT_NE(doc.find("inputs"), nullptr);
  EXPECT_EQ(doc.find("inputs")->array.size(), 8u);
  std::remove(path.c_str());
}

// --- Register correspondence against its reference ----------------------------

// The reference below is the correspondence as it was computed before the
// word-parallel cone sweeps: three cone walks per register and one per
// output, and one 64-pattern simulator pass per side, word and round. It is
// kept verbatim, bar its name, so that match_registers can be held to it.

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Order-independent structural fingerprint of one D-cone: gate function
/// words and arities (as a multiset), primary-input leaf indices (PIs
/// correspond positionally, so their indices are shared currency) and leaf
/// counts. State leaf *indices* are deliberately excluded — they are what
/// the correspondence is solving for.
std::uint64_t dcone_fingerprint(const Netlist& nl, NodeId droot) {
  const ConeSupport sup = cone_support(nl, droot);
  std::uint64_t h = mix64(0xF16E52ull + sup.states.size()) ^
                    mix64((sup.comb_nodes << 16) + sup.inputs.size());
  for (const std::uint32_t i : sup.inputs) h += mix64(0x1000000ull + i);
  std::vector<std::uint8_t> visited(nl.num_nodes(), 0);
  std::vector<NodeId> stack;
  stack.reserve(sup.comb_nodes + 1);
  stack.push_back(droot);
  visited[droot.index()] = 1;
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    const Node& n = nl.node(id);
    if (n.type != NodeType::kComb) continue;
    h += mix64(n.func.bits() ^ (static_cast<std::uint64_t>(n.num_fanins()) << 56));
    for (const NodeId fi : nl.fanins(id)) {
      if (visited[fi.index()] == 0) {
        visited[fi.index()] = 1;
        stack.push_back(fi);
      }
    }
  }
  return h;
}

/// Signature-based register correspondence: partition-refine the registers of
/// both netlists jointly — initial classes from structural D-cone
/// fingerprints plus the set of outputs observing each register, then rounds
/// of 256-pattern next-state simulation where every state leaf is driven by a
/// deterministic word of its *class* (not its index), re-keying each register
/// by (old class, signature, classes of its reader registers) until the
/// partition is stable. The class-keyed stimulus propagates *controllability*
/// forward; the reader-class term propagates *observability* backward — both
/// are needed, because symmetric twins (two structurally identical timers)
/// produce identical simulation signatures by construction and only who
/// *reads* them tells them apart. Classes are side-independent, so pairing
/// ascending within each class aligns reordered/renamed registers. Registers
/// left unpaired fall back to their positional partner when that position is
/// also unpaired (a genuinely diverged D function then refutes as
/// cec.state-diverges with a witness); anything else is unmatched.
RegisterCorrespondence reference_match_registers(const Netlist& golden,
                                                  const Netlist& revised) {
  RegisterCorrespondence corr;
  const std::size_t n = golden.dffs().size();
  corr.perm.assign(n, RegisterCorrespondence::kNone);
  corr.inv.assign(n, RegisterCorrespondence::kNone);
  if (n == 0) return corr;
  const Netlist* nets[2] = {&golden, &revised};

  // Observability structure (per side): which outputs read register d
  // (outputs correspond by index, so an order-independent hash of the output
  // set is shared currency), and which registers read register d (as indices
  // for now; their evolving classes feed every refinement round).
  std::vector<std::uint64_t> obs[2];
  std::vector<std::vector<std::uint32_t>> read_by[2];
  for (int s = 0; s < 2; ++s) {
    obs[s].assign(n, 0);
    read_by[s].assign(n, {});
    for (std::size_t o = 0; o < nets[s]->outputs().size(); ++o) {
      const ConeSupport sup = cone_support(*nets[s], nets[s]->fanin(nets[s]->outputs()[o], 0));
      for (const std::uint32_t d : sup.states) obs[s][d] += mix64(0x0B5E57ull + o);
    }
    for (std::size_t e = 0; e < n; ++e) {
      const ConeSupport sup = cone_support(*nets[s], nets[s]->fanin(nets[s]->dffs()[e], 0));
      for (const std::uint32_t d : sup.states) read_by[s][d].push_back(static_cast<std::uint32_t>(e));
    }
  }

  // Round 0: classes from structural fingerprints + output observability,
  // ids assigned by sorted key order so both sides agree on the numbering.
  std::vector<std::uint64_t> fp[2];
  std::vector<std::uint64_t> keys;
  keys.reserve(2 * n);
  for (int s = 0; s < 2; ++s) {
    fp[s].reserve(n);
    for (std::size_t d = 0; d < n; ++d) {
      fp[s].push_back(dcone_fingerprint(*nets[s], nets[s]->fanin(nets[s]->dffs()[d], 0)) +
                      obs[s][d]);
    }
    keys.insert(keys.end(), fp[s].begin(), fp[s].end());
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<std::uint32_t> cls[2];
  for (int s = 0; s < 2; ++s) {
    cls[s].resize(n);
    for (std::size_t d = 0; d < n; ++d) {
      cls[s][d] = static_cast<std::uint32_t>(
          std::lower_bound(keys.begin(), keys.end(), fp[s][d]) - keys.begin());
    }
  }
  std::size_t num_classes = keys.size();

  // Shared primary-input stimulus (fixed seed: byte-stable correspondence).
  constexpr int kWords = 4;  // 4 x 64 = 256 patterns per signature
  common::Rng rng(0xC025E5F0ull);
  const std::size_t ni = golden.inputs().size();
  std::vector<std::uint64_t> in_words(ni * kWords);
  for (auto& w : in_words) w = rng.next_u64();

  struct RefineKey {
    std::array<std::uint64_t, 6> t;  // (old class, 256-bit signature, readers)
    std::uint32_t side_d;            // side << 31 | register index
  };
  std::vector<std::uint64_t> sig(2 * n * kWords);
  std::vector<RefineKey> refine(2 * n);
  for (int round = 1; round <= 64; ++round) {
    corr.rounds = round;
    for (int s = 0; s < 2; ++s) {
      BitSimulator sim(*nets[s]);
      for (int w = 0; w < kWords; ++w) {
        for (std::size_t i = 0; i < ni; ++i) {
          sim.set_input(i, in_words[static_cast<std::size_t>(w) * ni + i]);
        }
        for (std::size_t d = 0; d < n; ++d) {
          sim.set_state(d, mix64(0xABCDull + (std::uint64_t{cls[s][d]} << 8) +
                                 static_cast<std::uint64_t>(w)));
        }
        sim.eval();
        for (std::size_t d = 0; d < n; ++d) {
          sig[(static_cast<std::size_t>(s) * n + d) * kWords + static_cast<std::size_t>(w)] =
              sim.next_state(d);
        }
      }
    }
    for (int s = 0; s < 2; ++s) {
      for (std::size_t d = 0; d < n; ++d) {
        RefineKey& k = refine[static_cast<std::size_t>(s) * n + d];
        k.t[0] = cls[s][d];
        for (int w = 0; w < kWords; ++w) {
          k.t[static_cast<std::size_t>(w) + 1] =
              sig[(static_cast<std::size_t>(s) * n + d) * kWords + static_cast<std::size_t>(w)];
        }
        // Backward observability: the multiset of classes reading this
        // register (order-independent sum, refined as the partition splits).
        std::uint64_t readers = 0;
        for (const std::uint32_t e : read_by[s][d]) readers += mix64(0x4EADull + cls[s][e]);
        k.t[5] = readers;
        k.side_d = (static_cast<std::uint32_t>(s) << 31) | static_cast<std::uint32_t>(d);
      }
    }
    std::sort(refine.begin(), refine.end(), [](const RefineKey& a, const RefineKey& b) {
      return a.t != b.t ? a.t < b.t : a.side_d < b.side_d;
    });
    std::uint32_t next_id = 0;
    for (std::size_t i = 0; i < refine.size(); ++i) {
      if (i > 0 && refine[i].t != refine[i - 1].t) ++next_id;
      const int s = static_cast<int>(refine[i].side_d >> 31);
      cls[s][refine[i].side_d & 0x7FFFFFFFu] = next_id;
    }
    // The key carries the old class, so the partition only ever splits;
    // an unchanged class count is the fixpoint.
    if (static_cast<std::size_t>(next_id) + 1 == num_classes) break;
    num_classes = static_cast<std::size_t>(next_id) + 1;
  }
  corr.classes = static_cast<int>(num_classes);

  // Pair ascending within each class, then the positional fallback.
  std::vector<std::vector<std::uint32_t>> members[2];
  for (int s = 0; s < 2; ++s) {
    members[s].resize(num_classes);
    for (std::size_t d = 0; d < n; ++d) {
      members[s][cls[s][d]].push_back(static_cast<std::uint32_t>(d));
    }
  }
  for (std::size_t c = 0; c < num_classes; ++c) {
    const auto& gm = members[0][c];
    const auto& rm = members[1][c];
    const std::size_t k = std::min(gm.size(), rm.size());
    for (std::size_t i = 0; i < k; ++i) {
      corr.perm[gm[i]] = rm[i];
      corr.inv[rm[i]] = gm[i];
    }
  }
  for (std::size_t d = 0; d < n; ++d) {
    if (corr.perm[d] == RegisterCorrespondence::kNone &&
        corr.inv[d] == RegisterCorrespondence::kNone) {
      corr.perm[d] = static_cast<std::uint32_t>(d);
      corr.inv[d] = static_cast<std::uint32_t>(d);
      ++corr.fallbacks;
    }
  }
  for (std::size_t d = 0; d < n; ++d) {
    if (corr.perm[d] == RegisterCorrespondence::kNone) corr.unmatched_golden.push_back(d);
    if (corr.inv[d] == RegisterCorrespondence::kNone) corr.unmatched_revised.push_back(d);
    if (corr.perm[d] != RegisterCorrespondence::kNone && corr.perm[d] != d) ++corr.permuted;
  }
  return corr;
}

void expect_same_correspondence(const Netlist& golden, const Netlist& revised,
                                const std::string& what) {
  const RegisterCorrespondence want = reference_match_registers(golden, revised);
  const RegisterCorrespondence got = match_registers(golden, revised);
  EXPECT_EQ(got.perm, want.perm) << what;
  EXPECT_EQ(got.inv, want.inv) << what;
  EXPECT_EQ(got.classes, want.classes) << what;
  EXPECT_EQ(got.rounds, want.rounds) << what;
  EXPECT_EQ(got.permuted, want.permuted) << what;
  EXPECT_EQ(got.fallbacks, want.fallbacks) << what;
  EXPECT_EQ(got.unmatched_golden, want.unmatched_golden) << what;
  EXPECT_EQ(got.unmatched_revised, want.unmatched_revised) << what;
}

/// A seeded Fisher-Yates permutation of 0..n-1.
std::vector<std::size_t> seeded_permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  common::Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) std::swap(perm[i - 1], perm[rng.next_below(i)]);
  return perm;
}

TEST(RegCorr, MatchesTheReferenceOnPaperSuitePairs) {
  // Every 0.15-scale paper design on both PLBs against its post-map and
  // post-compact netlists, each also with its registers declared in a
  // seeded order, and two mapped mutants. Firewire and the switch have more
  // than 64 registers and the switch more than 64 outputs, so the sweeps
  // run several 64-root blocks.
  std::uint64_t seed = 1;
  std::size_t most_registers = 0;
  std::size_t most_outputs = 0;
  for (const auto& arch : {core::PlbArchitecture::granular(), core::PlbArchitecture::lut_based()}) {
    for (const auto& design : designs::paper_suite(0.15)) {
      const Netlist& golden = design.netlist;
      most_registers = std::max(most_registers, golden.dffs().size());
      most_outputs = std::max(most_outputs, golden.outputs().size());
      const auto mapped =
          synth::tech_map(golden, synth::cell_target(arch), synth::Objective::kDelay);
      const auto compacted = compact::compact_from(golden, mapped.netlist, arch);
      const std::string what = golden.name() + " on " + arch.name;
      for (const auto& [revised, stage] :
           {std::pair<const Netlist*, const char*>{&mapped.netlist, ", post-map"},
            {&compacted.netlist, ", post-compact"}}) {
        expect_same_correspondence(golden, *revised, what + stage);
        const auto perm = seeded_permutation(revised->dffs().size(), seed++);
        expect_same_correspondence(golden, permute_registers(*revised, perm),
                                   what + stage + ", permuted");
      }
      for (const bool flip_gate : {false, true}) {
        expect_same_correspondence(golden, mapped_mutant(design, arch, flip_gate, seed++),
                                   what + (flip_gate ? ", gate flip" : ", inverted output"));
      }
    }
  }
  EXPECT_GT(most_registers, 128u);
  EXPECT_GT(most_outputs, 64u);
}

TEST(RegCorr, TwinRegistersAndLeafRootsMatchTheReference) {
  // Two structurally identical toggle timers that only their readers tell
  // apart, and registers whose D-cone root is itself a leaf: a primary
  // input, another register, the register itself.
  Netlist nl("twins");
  const NodeId x = nl.add_input("x");
  const NodeId en = nl.add_input("en");
  const NodeId t1 = nl.add_dff(NodeId(), "t1");
  const NodeId t2 = nl.add_dff(NodeId(), "t2");
  nl.set_dff_input(t1, nl.add_xor(t1, en));
  nl.set_dff_input(t2, nl.add_xor(t2, en));
  const NodeId r1 = nl.add_dff(nl.add_and(t1, x), "r1");
  const NodeId r2 = nl.add_dff(nl.add_or(t2, x), "r2");
  const NodeId p = nl.add_dff(x, "p");
  const NodeId q = nl.add_dff(p, "q");
  const NodeId hold = nl.add_dff(NodeId(), "hold");
  nl.set_dff_input(hold, hold);
  nl.add_output(nl.add_xor(r1, r2), "y");
  nl.add_output(q, "z");
  nl.add_output(nl.add_and(hold, en), "h");
  const std::size_t n = nl.dffs().size();
  std::vector<std::size_t> reversed(n);
  for (std::size_t i = 0; i < n; ++i) reversed[i] = n - 1 - i;
  std::vector<std::vector<std::size_t>> perms = {seeded_permutation(n, 0), reversed};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) perms.push_back(seeded_permutation(n, seed));
  for (const auto& perm : perms) {
    const Netlist revised = permute_registers(nl, perm);
    expect_same_correspondence(nl, revised, "twins");
    // Every register, the twins included, pairs with its own copy.
    const RegisterCorrespondence corr = match_registers(nl, revised);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(corr.perm[perm[i]], i);
    EXPECT_EQ(corr.fallbacks, 0);
  }
}

}  // namespace
}  // namespace vpga::verify

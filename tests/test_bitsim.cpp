// Tests for bit-parallel simulation and exhaustive equivalence checking.

#include "netlist/bitsim.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "compact/compact.hpp"
#include "designs/designs.hpp"
#include "eval_gate_reference.hpp"
#include "synth/mapper.hpp"

namespace vpga::netlist {
namespace {

/// A seeded random sequential netlist: 6 inputs, 4 registers, a constant
/// and 60 gates of 0-6 inputs each, every fanin drawn from all earlier nodes.
Netlist random_netlist(std::uint64_t seed) {
  common::Rng rng(seed);
  Netlist nl("random");
  std::vector<NodeId> pool;
  for (int i = 0; i < 6; ++i) pool.push_back(nl.add_input("i" + std::to_string(i)));
  std::vector<NodeId> regs;
  for (int d = 0; d < 4; ++d) regs.push_back(nl.add_dff(NodeId(), "q" + std::to_string(d)));
  pool.insert(pool.end(), regs.begin(), regs.end());
  pool.push_back(nl.add_constant(seed % 2 == 0));
  for (int g = 0; g < 60; ++g) {
    const int arity = static_cast<int>(rng.next_below(7));
    std::vector<NodeId> fanins;
    for (int k = 0; k < arity; ++k) fanins.push_back(pool[rng.next_below(pool.size())]);
    pool.push_back(nl.add_comb(logic::TruthTable(arity, rng.next_u64()), fanins));
  }
  for (const NodeId q : regs) nl.set_dff_input(q, pool[rng.next_below(pool.size())]);
  for (std::size_t o = 1; o <= 3; ++o) {
    nl.add_output(pool[pool.size() - o], "o" + std::to_string(o));
  }
  return nl;
}

/// Lane word k of a pattern word (a std::uint64_t is its own only word).
std::uint64_t& lane_word(std::uint64_t& x, std::size_t) { return x; }
std::uint64_t& lane_word(Word256& x, std::size_t k) { return x.w[k]; }

/// Every node's word under the reference evaluator for one 64-lane word per
/// input and per register, with the simulator's conventions: constants are
/// all-0 or all-1 words and an output copies its driver.
std::vector<std::uint64_t> reference_values(const Netlist& nl,
                                            const std::vector<std::uint64_t>& inputs,
                                            const std::vector<std::uint64_t>& states) {
  std::vector<std::uint64_t> v(nl.num_nodes(), 0);
  for (const NodeId id : nl.all_nodes())
    if (nl.node(id).type == NodeType::kConst && (nl.node(id).func.bits() & 1)) {
      v[id.index()] = ~std::uint64_t{0};
    }
  for (std::size_t i = 0; i < inputs.size(); ++i) v[nl.inputs()[i].index()] = inputs[i];
  for (std::size_t d = 0; d < states.size(); ++d) v[nl.dffs()[d].index()] = states[d];
  for (const NodeId id : nl.topo_order()) {
    const auto fins = nl.fanins(id);
    v[id.index()] = nl.node(id).type == NodeType::kOutput
                        ? v[fins[0].index()]
                        : reference::eval_gate(nl.node(id).func, fins.size(), [&](std::size_t k) {
                            return v[fins[k].index()];
                          });
  }
  return v;
}

/// Drives `nl` with random words for two clock cycles and checks value() of
/// every node after each eval() against reference_values(), lane word by
/// lane word. The second cycle's registers hold the first cycle's D words.
template <class W>
void expect_matches_reference(const Netlist& nl, std::uint64_t seed, const std::string& what) {
  constexpr std::size_t kLaneWords = sizeof(W) / sizeof(std::uint64_t);
  common::Rng rng(seed);
  BasicBitSimulator<W> sim(nl);
  std::vector<std::vector<std::uint64_t>> states(kLaneWords,
                                                 std::vector<std::uint64_t>(nl.dffs().size()));
  for (std::size_t d = 0; d < nl.dffs().size(); ++d) {
    W x{};
    for (std::size_t k = 0; k < kLaneWords; ++k) lane_word(x, k) = states[k][d] = rng.next_u64();
    sim.set_state(d, x);
  }
  for (int cycle = 0; cycle < 2; ++cycle) {
    std::vector<std::vector<std::uint64_t>> inputs(kLaneWords,
                                                   std::vector<std::uint64_t>(nl.inputs().size()));
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
      W x{};
      for (std::size_t k = 0; k < kLaneWords; ++k) lane_word(x, k) = inputs[k][i] = rng.next_u64();
      sim.set_input(i, x);
    }
    sim.eval();
    for (std::size_t k = 0; k < kLaneWords; ++k) {
      const auto want = reference_values(nl, inputs[k], states[k]);
      for (const NodeId id : nl.all_nodes()) {
        W got = sim.value(id);
        ASSERT_EQ(lane_word(got, k), want[id.index()])
            << what << ", cycle " << cycle << ", node " << id.index() << ", lane word " << k;
      }
      for (std::size_t d = 0; d < nl.dffs().size(); ++d)
        states[k][d] = want[nl.fanin(nl.dffs()[d], 0).index()];
    }
    sim.step();
  }
}

template <class W>
class BitSimReference : public ::testing::Test {};
using WordTypes = ::testing::Types<std::uint64_t, Word256>;
TYPED_TEST_SUITE(BitSimReference, WordTypes);

TYPED_TEST(BitSimReference, RandomNetlistsMatchSumOfMinterms) {
  // Gates of 4-6 inputs run through cofactor and mux temporaries.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    expect_matches_reference<TypeParam>(random_netlist(seed), seed, "seed " + std::to_string(seed));
  }
}

TYPED_TEST(BitSimReference, PaperSuiteMatchesSumOfMinterms) {
  std::uint64_t seed = 100;
  for (const auto& d : designs::paper_suite(0.15)) {
    const Netlist& golden = d.netlist;
    expect_matches_reference<TypeParam>(golden, ++seed, golden.name());
    for (const auto& arch :
         {core::PlbArchitecture::granular(), core::PlbArchitecture::lut_based()}) {
      const auto mapped =
          synth::tech_map(golden, synth::cell_target(arch), synth::Objective::kDelay);
      expect_matches_reference<TypeParam>(mapped.netlist, ++seed,
                                          golden.name() + " mapped " + arch.name);
      const auto comp = compact::compact_from(golden, mapped.netlist, arch);
      expect_matches_reference<TypeParam>(comp.netlist, ++seed,
                                          golden.name() + " compacted " + arch.name);
    }
  }
}

TEST(BitSim, EvalGateMatchesSumOfMintermsOnAnyArity) {
  // Random tables of 0-6 variables on 0-6 fanin words, the two counts drawn
  // apart, so gate_table's fold of extra variables is covered too.
  common::Rng rng(7);
  for (int trial = 0; trial < 12000; ++trial) {
    const auto f = logic::TruthTable(static_cast<int>(rng.next_below(7)), rng.next_u64());
    const std::size_t arity = rng.next_below(7);
    std::uint64_t fanin[6];
    for (std::uint64_t& w : fanin) w = rng.next_u64();
    auto word = [&fanin](std::size_t k) { return fanin[k]; };
    ASSERT_EQ(eval_gate(f, arity, word), reference::eval_gate(f, arity, word))
        << "table " << f.to_string() << " on " << arity << " fanins";
  }
}

TEST(BitSim, MatchesScalarTruth) {
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto c = nl.add_input("c");
  nl.add_output(nl.add_xor3(a, b, c), "x");
  nl.add_output(nl.add_maj(a, b, c), "m");
  BitSimulator sim(nl);
  // Lanes: a alternates every bit, b every 2, c every 4.
  sim.set_input(0, 0xAAAAAAAAAAAAAAAAULL);
  sim.set_input(1, 0xCCCCCCCCCCCCCCCCULL);
  sim.set_input(2, 0xF0F0F0F0F0F0F0F0ULL);
  sim.eval();
  for (int lane = 0; lane < 8; ++lane) {
    const int av = lane & 1, bv = (lane >> 1) & 1, cv = (lane >> 2) & 1;
    EXPECT_EQ((sim.output(0) >> lane) & 1,
              static_cast<std::uint64_t>((av + bv + cv) & 1));
    EXPECT_EQ((sim.output(1) >> lane) & 1,
              static_cast<std::uint64_t>(av + bv + cv >= 2 ? 1 : 0));
  }
}

TEST(BitSim, ConstantsPropagate) {
  Netlist nl;
  const auto one = nl.add_constant(true);
  const auto a = nl.add_input("a");
  nl.add_output(nl.add_and(a, one), "y");
  BitSimulator sim(nl);
  sim.set_input(0, 0x123456789ABCDEF0ULL);
  sim.eval();
  EXPECT_EQ(sim.output(0), 0x123456789ABCDEF0ULL);
}

TEST(BitSim, NextStateReadsDffDInputs) {
  const auto nl = designs::make_counter(4);
  BitSimulator sim(nl);
  // State = 0b0101 per lane 0; enable on.
  sim.set_input(0, ~std::uint64_t{0});
  for (int d = 0; d < 4; ++d) sim.set_state(static_cast<std::size_t>(d), (5 >> d) & 1 ? ~0ULL : 0);
  sim.eval();
  // next = 6 = 0b0110.
  for (int d = 0; d < 4; ++d)
    EXPECT_EQ(sim.next_state(static_cast<std::size_t>(d)) & 1,
              static_cast<std::uint64_t>((6 >> d) & 1));
}

TEST(BitSim, Word256EvalEqualsFourOneWordEvals) {
  // Seeded random sequential netlists with gate arities 0-6: one 256-pattern
  // pass must give every node the four words that four 64-pattern passes
  // give it.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    common::Rng rng(seed);
    const Netlist nl = random_netlist(seed);
    BasicBitSimulator<Word256> wide(nl);
    std::vector<BitSimulator> narrow;
    for (std::size_t w = 0; w < Word256::kWords; ++w) narrow.emplace_back(nl);
    auto stimulus = [&](auto set) {
      Word256 v;
      for (std::size_t w = 0; w < Word256::kWords; ++w) {
        v.w[w] = rng.next_u64();
        set(narrow[w], v.w[w]);
      }
      return v;
    };
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
      wide.set_input(i, stimulus([i](BitSimulator& sim, std::uint64_t x) { sim.set_input(i, x); }));
    }
    for (std::size_t d = 0; d < nl.dffs().size(); ++d) {
      wide.set_state(d, stimulus([d](BitSimulator& sim, std::uint64_t x) { sim.set_state(d, x); }));
    }
    wide.eval();
    for (BitSimulator& sim : narrow) sim.eval();
    for (const NodeId id : nl.all_nodes()) {
      for (std::size_t w = 0; w < Word256::kWords; ++w) {
        ASSERT_EQ(wide.value(id).w[w], narrow[w].value(id)) << "seed " << seed << ", node "
                                                             << id.index() << ", word " << w;
      }
    }
  }
}

TEST(Exhaustive, AdderStylesProvablyEquivalent) {
  // 8+8+1 = 17 inputs: 2^17 patterns, proved exhaustively.
  const auto ripple = designs::make_ripple_adder(8);
  const auto prefix = designs::make_prefix_adder(8);
  const auto csel = designs::make_carry_select_adder(8, 3);
  EXPECT_TRUE(exhaustive_equivalent(ripple, prefix));
  EXPECT_TRUE(exhaustive_equivalent(ripple, csel));
}

TEST(Exhaustive, MappedAdderProvablyEquivalent) {
  const auto src = designs::make_ripple_adder(8);
  for (const auto& arch :
       {core::PlbArchitecture::granular(), core::PlbArchitecture::lut_based()}) {
    const auto mapped =
        synth::tech_map(src, synth::cell_target(arch), synth::Objective::kDelay);
    EXPECT_TRUE(exhaustive_equivalent(src, mapped.netlist)) << arch.name;
    const auto comp = compact::compact_from(src, mapped.netlist, arch);
    EXPECT_TRUE(exhaustive_equivalent(src, comp.netlist)) << arch.name;
  }
}

TEST(Exhaustive, DetectsSingleMintermDifference) {
  Netlist n1, n2;
  {
    const auto a = n1.add_input("a");
    const auto b = n1.add_input("b");
    const auto c = n1.add_input("c");
    n1.add_output(n1.add_comb(logic::TruthTable(3, 0x96), {a, b, c}), "y");
  }
  {
    const auto a = n2.add_input("a");
    const auto b = n2.add_input("b");
    const auto c = n2.add_input("c");
    n2.add_output(n2.add_comb(logic::TruthTable(3, 0x97), {a, b, c}), "y");  // one row off
  }
  EXPECT_FALSE(exhaustive_equivalent(n1, n2));
}

TEST(Exhaustive, RefusesOversizedOrMismatched) {
  const auto big = designs::make_ripple_adder(16);   // 33 inputs
  const auto small = designs::make_ripple_adder(8);  // 17 inputs
  EXPECT_FALSE(exhaustive_equivalent(big, big, /*max_inputs=*/22));
  EXPECT_FALSE(exhaustive_equivalent(big, small));
}

TEST(Exhaustive, TinyInterfaceWorks) {
  Netlist n1, n2;
  {
    const auto a = n1.add_input("a");
    n1.add_output(n1.add_not(n1.add_not(a)), "y");
  }
  {
    const auto a = n2.add_input("a");
    n2.add_output(n2.add_buf(a), "y");
  }
  EXPECT_TRUE(exhaustive_equivalent(n1, n2));
}

}  // namespace
}  // namespace vpga::netlist

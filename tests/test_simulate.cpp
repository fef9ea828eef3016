// Tests for cycle-accurate simulation on the 64-lane simulator: the clock
// edge (BitSimulator::step) and random-stimulus lockstep co-simulation
// (random_divergence).

#include "netlist/bitsim.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "bitsim_helpers.hpp"
#include "common/rng.hpp"

namespace vpga::netlist {
namespace {

TEST(Simulate, ToggleFlipFlopCounts) {
  Netlist nl;
  const auto one = nl.add_constant(true);
  const auto ff = nl.add_dff(NodeId{});
  nl.set_dff_input(ff, nl.add_xor(ff, one));
  nl.add_output(ff, "q");
  BitSimulator sim(nl);
  bool expected = false;
  for (int cycle = 0; cycle < 6; ++cycle) {
    sim.eval();
    EXPECT_EQ(sim.output(0), lanes(expected)) << cycle;
    sim.step();
    expected = !expected;
  }
}

TEST(Simulate, FreshSimulatorStartsFromResetState) {
  // There is no reset(): a new simulator on the same netlist is the reset
  // state, whatever an earlier one was clocked into.
  Netlist nl;
  const auto one = nl.add_constant(true);
  const auto ff = nl.add_dff(one);
  nl.add_output(ff, "q");
  BitSimulator used(nl);
  used.eval();
  used.step();
  used.eval();
  EXPECT_EQ(used.output(0), lanes(true));
  BitSimulator fresh(nl);
  fresh.eval();
  EXPECT_EQ(fresh.output(0), lanes(false));
}

TEST(Simulate, TwoBitRippleCounter) {
  Netlist nl;
  const auto q0 = nl.add_dff(NodeId{});
  const auto q1 = nl.add_dff(NodeId{});
  const auto one = nl.add_constant(true);
  nl.set_dff_input(q0, nl.add_xor(q0, one));
  nl.set_dff_input(q1, nl.add_xor(q1, q0));
  nl.add_output(q0, "b0");
  nl.add_output(q1, "b1");
  BitSimulator sim(nl);
  for (int t = 0; t < 8; ++t) {
    sim.eval();
    EXPECT_EQ(sim.output(0), lanes((t & 1) != 0)) << t;
    EXPECT_EQ(sim.output(1), lanes((t & 2) != 0)) << t;
    sim.step();
  }
}

TEST(Simulate, ShiftChainClocksEveryRegisterFromItsPreEdgeWord) {
  // q1 reads q0 directly: an edge that moved q0 before gathering q1's D word
  // would shift each input word through both registers in one cycle.
  Netlist nl;
  const auto x = nl.add_input("x");
  const auto q0 = nl.add_dff(x, "q0");
  const auto q1 = nl.add_dff(q0, "q1");
  nl.add_output(q0, "o0");
  nl.add_output(q1, "o1");
  BitSimulator sim(nl);
  common::Rng rng(3);
  std::uint64_t x1 = 0, x2 = 0;  // the input words one and two cycles back
  for (int t = 0; t < 8; ++t) {
    const std::uint64_t w = rng.next_u64();
    sim.set_input(0, w);
    sim.eval();
    EXPECT_EQ(sim.output(0), x1) << t;
    EXPECT_EQ(sim.output(1), x2) << t;
    sim.step();
    x2 = x1;
    x1 = w;
  }
}

Netlist xor_of_inputs() {
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  nl.add_output(nl.add_xor(a, b), "y");
  return nl;
}

TEST(Simulate, EquivalenceDetectsIdentity) {
  EXPECT_FALSE(random_divergence(xor_of_inputs(), xor_of_inputs(), 64));
}

TEST(Simulate, EquivalenceDetectsMismatch) {
  Netlist n2;
  const auto a = n2.add_input("a");
  const auto b = n2.add_input("b");
  n2.add_output(n2.add_and(a, b), "y");
  const auto div = random_divergence(xor_of_inputs(), n2, 64, /*seed=*/9);
  ASSERT_TRUE(div);
  // xor and and differ exactly where a | b; cycle 0 draws a's word, then b's.
  common::Rng rng(9);
  const std::uint64_t wa = rng.next_u64();
  const std::uint64_t wb = rng.next_u64();
  EXPECT_EQ(div->cycle, 0);
  EXPECT_EQ(div->output, 0u);
  EXPECT_EQ(div->pattern, std::countr_zero(wa | wb));
}

TEST(Simulate, StructurallyDifferentButEquivalent) {
  // xor(a,b) vs (a|b) & ~(a&b).
  Netlist n2;
  const auto a = n2.add_input("a");
  const auto b = n2.add_input("b");
  n2.add_output(n2.add_and(n2.add_or(a, b), n2.add_nand(a, b)), "y");
  EXPECT_FALSE(random_divergence(xor_of_inputs(), n2, 128));
}

}  // namespace
}  // namespace vpga::netlist

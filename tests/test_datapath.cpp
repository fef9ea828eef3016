// Unit tests for the bus-level datapath construction kit.

#include "designs/datapath.hpp"

#include <gtest/gtest.h>

#include <bit>

#include "bitsim_helpers.hpp"
#include "common/rng.hpp"

namespace vpga::designs {
namespace {

using netlist::BitSimulator;
using netlist::Netlist;

std::uint64_t read_outputs(const BitSimulator& sim, const Netlist& nl) {
  std::uint64_t v = 0;
  for (std::size_t o = 0; o < nl.outputs().size(); ++o)
    if (output_bit(sim, o)) v |= std::uint64_t{1} << o;
  return v;
}

void drive(BitSimulator& sim, std::size_t base, std::uint64_t value, int width) {
  for (int b = 0; b < width; ++b)
    sim.set_input(base + static_cast<std::size_t>(b), lanes((value >> b) & 1));
}

TEST(Datapath, PrefixAddMatchesRippleAdd) {
  // Both adders built on the same inputs must agree on every output bit.
  Netlist nl;
  const Bus a = input_bus(nl, "a", 10);
  const Bus b = input_bus(nl, "b", 10);
  const auto r = ripple_add(nl, a, b, netlist::NodeId{}, true);
  const auto p = prefix_add(nl, a, b, netlist::NodeId{}, true);
  for (std::size_t i = 0; i < r.size(); ++i)
    nl.add_output(nl.add_xor(r[i], p[i]), "diff" + std::to_string(i));
  BitSimulator sim(nl);
  common::Rng rng(5);
  for (int iter = 0; iter < 400; ++iter) {
    // 64 random operand pairs per eval, one per lane.
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) sim.set_input(i, rng.next_u64());
    sim.eval();
    for (std::size_t o = 0; o < nl.outputs().size(); ++o) EXPECT_EQ(sim.output(o), 0u) << o;
  }
}

TEST(Datapath, PrefixAddWithCarryIn) {
  Netlist nl;
  const Bus a = input_bus(nl, "a", 8);
  const Bus b = input_bus(nl, "b", 8);
  const auto cin = nl.add_input("cin");
  const auto s = prefix_add(nl, a, b, cin, true);
  output_bus(nl, "s", s);
  BitSimulator sim(nl);
  common::Rng rng(7);
  for (int iter = 0; iter < 500; ++iter) {
    const auto av = rng.next_u64() & 0xFF;
    const auto bv = rng.next_u64() & 0xFF;
    const bool c = rng.next_bool();
    drive(sim, 0, av, 8);
    drive(sim, 8, bv, 8);
    sim.set_input(16, lanes(c));
    sim.eval();
    EXPECT_EQ(read_outputs(sim, nl), av + bv + (c ? 1 : 0));
  }
}

TEST(Datapath, PrefixSubTwosComplement) {
  Netlist nl;
  const Bus a = input_bus(nl, "a", 8);
  const Bus b = input_bus(nl, "b", 8);
  output_bus(nl, "d", prefix_sub(nl, a, b));
  BitSimulator sim(nl);
  common::Rng rng(9);
  for (int iter = 0; iter < 300; ++iter) {
    const auto av = rng.next_u64() & 0xFF;
    const auto bv = rng.next_u64() & 0xFF;
    drive(sim, 0, av, 8);
    drive(sim, 8, bv, 8);
    sim.eval();
    EXPECT_EQ(read_outputs(sim, nl), (av - bv) & 0xFF);
  }
}

TEST(Datapath, LessThanUnsigned) {
  Netlist nl;
  const Bus a = input_bus(nl, "a", 6);
  const Bus b = input_bus(nl, "b", 6);
  nl.add_output(less_than(nl, a, b), "lt");
  BitSimulator sim(nl);
  for (unsigned av = 0; av < 64; av += 3)
    for (unsigned bv = 0; bv < 64; bv += 5) {
      drive(sim, 0, av, 6);
      drive(sim, 6, bv, 6);
      sim.eval();
      EXPECT_EQ(output_bit(sim, 0), av < bv) << av << " " << bv;
    }
}

TEST(Datapath, LeadingZerosCountsFromMsb) {
  Netlist nl;
  const Bus v = input_bus(nl, "v", 12);
  output_bus(nl, "z", leading_zeros(nl, v));
  BitSimulator sim(nl);
  for (int lead = 0; lead < 12; ++lead) {
    // Value with exactly `lead` leading zeros: top set bit at 11-lead.
    const std::uint64_t val = std::uint64_t{1} << (11 - lead);
    drive(sim, 0, val | (val >> 2), 12);
    sim.eval();
    // LSB-side padding with ones does not add leading zeros: count == lead.
    const auto out = read_outputs(sim, nl);
    EXPECT_EQ(out & 0xF, static_cast<unsigned>(lead)) << lead;
  }
}

TEST(Datapath, LeadingZerosAllZeroSetsTopFlag) {
  Netlist nl;
  const Bus v = input_bus(nl, "v", 8);
  const Bus z = leading_zeros(nl, v);
  nl.add_output(z.back(), "allzero");
  BitSimulator sim(nl);
  drive(sim, 0, 0, 8);
  sim.eval();
  EXPECT_TRUE(output_bit(sim, 0));
  drive(sim, 0, 1, 8);
  sim.eval();
  EXPECT_FALSE(output_bit(sim, 0));
}

TEST(Datapath, BarrelShiftBothDirections) {
  Netlist nl;
  const Bus v = input_bus(nl, "v", 8);
  const Bus amt = input_bus(nl, "amt", 3);
  output_bus(nl, "l", barrel_shift(nl, v, amt, true));
  output_bus(nl, "r", barrel_shift(nl, v, amt, false));
  BitSimulator sim(nl);
  for (unsigned a = 0; a < 8; ++a) {
    drive(sim, 0, 0xB5, 8);
    drive(sim, 8, a, 3);
    sim.eval();
    const auto out = read_outputs(sim, nl);
    EXPECT_EQ(out & 0xFF, (0xB5u << a) & 0xFF) << a;
    EXPECT_EQ((out >> 8) & 0xFF, 0xB5u >> a) << a;
  }
}

TEST(Datapath, CrcStepMatchesBitSerialReference) {
  // The parallel (matrix) construction must equal the classic bit-serial
  // Galois LFSR advanced data.size() times.
  constexpr std::uint64_t kPoly = 0x1021;  // CRC-16-CCITT
  Netlist nl;
  const Bus crc = input_bus(nl, "crc", 16);
  const Bus data = input_bus(nl, "d", 8);
  output_bus(nl, "next", crc_step(nl, crc, data, kPoly));
  BitSimulator sim(nl);
  common::Rng rng(21);
  for (int iter = 0; iter < 200; ++iter) {
    const auto c0 = rng.next_u64() & 0xFFFF;
    const auto dv = rng.next_u64() & 0xFF;
    drive(sim, 0, c0, 16);
    drive(sim, 16, dv, 8);
    sim.eval();
    // Software reference.
    std::uint64_t state = c0;
    for (int k = 0; k < 8; ++k) {
      const std::uint64_t fb = ((state >> 15) ^ (dv >> k)) & 1;
      state = ((state << 1) & 0xFFFF) | fb;
      if (fb) state ^= kPoly & ~1ULL;  // taps above bit 0 (bit 0 carries fb)
    }
    EXPECT_EQ(read_outputs(sim, nl) & 0xFFFF, state) << iter;
  }
}

TEST(Datapath, DecodeOneHot) {
  Netlist nl;
  const Bus sel = input_bus(nl, "s", 3);
  output_bus(nl, "d", decode(nl, sel));
  BitSimulator sim(nl);
  for (unsigned s = 0; s < 8; ++s) {
    drive(sim, 0, s, 3);
    sim.eval();
    EXPECT_EQ(read_outputs(sim, nl), std::uint64_t{1} << s);
  }
}

TEST(Datapath, PriorityGrantLsbWins) {
  Netlist nl;
  const Bus req = input_bus(nl, "r", 6);
  output_bus(nl, "g", priority_grant(nl, req));
  BitSimulator sim(nl);
  drive(sim, 0, 0b101100, 6);
  sim.eval();
  EXPECT_EQ(read_outputs(sim, nl), 0b000100u);
  drive(sim, 0, 0, 6);
  sim.eval();
  EXPECT_EQ(read_outputs(sim, nl), 0u);
}

TEST(Datapath, MuxTreeSelectsEveryInput) {
  Netlist nl;
  const Bus sel = input_bus(nl, "s", 2);
  std::vector<Bus> choices;
  for (int i = 0; i < 4; ++i) choices.push_back(input_bus(nl, "c" + std::to_string(i), 4));
  output_bus(nl, "o", mux_tree(nl, sel, choices));
  BitSimulator sim(nl);
  for (unsigned s = 0; s < 4; ++s) {
    drive(sim, 0, s, 2);
    for (unsigned i = 0; i < 4; ++i) drive(sim, 2 + 4 * i, 0x9 + i, 4);
    sim.eval();
    EXPECT_EQ(read_outputs(sim, nl), 0x9 + s);
  }
}

TEST(Datapath, ReduceTreesMatchSemantics) {
  Netlist nl;
  const Bus v = input_bus(nl, "v", 7);
  nl.add_output(reduce_or(nl, v), "or");
  nl.add_output(reduce_and(nl, v), "and");
  nl.add_output(reduce_xor(nl, v), "xor");
  BitSimulator sim(nl);
  common::Rng rng(3);
  for (int iter = 0; iter < 200; ++iter) {
    const auto val = rng.next_u64() & 0x7F;
    drive(sim, 0, val, 7);
    sim.eval();
    EXPECT_EQ(output_bit(sim, 0), val != 0);
    EXPECT_EQ(output_bit(sim, 1), val == 0x7F);
    EXPECT_EQ(output_bit(sim, 2), (std::popcount(val) & 1) != 0);
  }
}

}  // namespace
}  // namespace vpga::designs

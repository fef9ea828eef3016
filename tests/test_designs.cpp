// Functional tests for the benchmark-design generators: the flow's results
// are only meaningful if the workloads compute what they claim.

#include "designs/designs.hpp"

#include <gtest/gtest.h>

#include "bitsim_helpers.hpp"
#include "designs/datapath.hpp"

namespace vpga::designs {
namespace {

using netlist::BitSimulator;

std::uint64_t read_bus_outputs(const BitSimulator& sim, const netlist::Netlist& nl,
                               const std::string& prefix) {
  std::uint64_t v = 0;
  int bit = 0;
  for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
    const auto& name = nl.name_of(nl.outputs()[o]);
    if (name.rfind(prefix + "[", 0) == 0) {
      if (output_bit(sim, o)) v |= std::uint64_t{1} << bit;
      ++bit;
    }
  }
  return v;
}

void drive_bus(BitSimulator& sim, const netlist::Netlist& nl, const std::string& prefix,
               std::uint64_t value) {
  int bit = 0;
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    const auto& name = nl.name_of(nl.inputs()[i]);
    if (name.rfind(prefix + "[", 0) == 0) {
      sim.set_input(i, lanes((value >> bit) & 1));
      ++bit;
    }
  }
}

void drive_pin(BitSimulator& sim, const netlist::Netlist& nl, const std::string& name,
               bool value) {
  for (std::size_t i = 0; i < nl.inputs().size(); ++i)
    if (nl.name_of(nl.inputs()[i]) == name) {
      sim.set_input(i, lanes(value));
      return;
    }
  FAIL() << "no input pin " << name;
}

TEST(Designs, RippleAdderAddsExhaustively) {
  const auto nl = make_ripple_adder(4);
  ASSERT_TRUE(nl.check().ok);
  BitSimulator sim(nl);
  for (unsigned a = 0; a < 16; ++a)
    for (unsigned b = 0; b < 16; ++b) {
      drive_bus(sim, nl, "a", a);
      drive_bus(sim, nl, "b", b);
      drive_pin(sim, nl, "cin", false);
      sim.eval();
      const auto sum = read_bus_outputs(sim, nl, "sum");
      bool cout = false;
      for (std::size_t o = 0; o < nl.outputs().size(); ++o)
        if (nl.name_of(nl.outputs()[o]) == "cout") cout = output_bit(sim, o);
      EXPECT_EQ(sum | (static_cast<std::uint64_t>(cout) << 4), a + b);
    }
}

TEST(Designs, CounterCounts) {
  const auto nl = make_counter(4);
  ASSERT_TRUE(nl.check().ok);
  BitSimulator sim(nl);
  drive_pin(sim, nl, "en", true);
  for (int t = 0; t < 20; ++t) {
    sim.eval();
    EXPECT_EQ(read_bus_outputs(sim, nl, "count"), static_cast<std::uint64_t>(t % 16));
    sim.step();
  }
}

TEST(Designs, CounterHoldsWhenDisabled) {
  const auto nl = make_counter(4);
  BitSimulator sim(nl);
  drive_pin(sim, nl, "en", true);
  for (int t = 0; t < 3; ++t) { sim.eval(); sim.step(); }
  drive_pin(sim, nl, "en", false);
  for (int t = 0; t < 5; ++t) {
    sim.eval();
    EXPECT_EQ(read_bus_outputs(sim, nl, "count"), 3u);
    sim.step();
  }
}

TEST(Designs, LfsrCyclesThroughStates) {
  const auto nl = make_lfsr(8, 0b10111000);  // x^8 + x^6 + x^5 + x^4 + 1 -ish
  ASSERT_TRUE(nl.check().ok);
  BitSimulator sim(nl);
  drive_pin(sim, nl, "seed", true);  // kick out of the all-zero state
  sim.eval();
  sim.step();
  drive_pin(sim, nl, "seed", false);
  std::uint64_t prev = read_bus_outputs(sim, nl, "state");
  int changes = 0;
  for (int t = 0; t < 32; ++t) {
    sim.eval();
    const auto s = read_bus_outputs(sim, nl, "state");
    if (s != prev) ++changes;
    prev = s;
    sim.step();
  }
  EXPECT_GT(changes, 20);
}

class AluOps : public ::testing::TestWithParam<int> {};

TEST_P(AluOps, ComputesCorrectly) {
  const int op = GetParam();
  const auto d = make_alu(8);
  const auto& nl = d.netlist;
  ASSERT_TRUE(nl.check().ok);
  BitSimulator sim(nl);
  const std::uint64_t test_vectors[][2] = {
      {0x00, 0x00}, {0x01, 0x01}, {0xFF, 0x01}, {0x5A, 0xA5}, {0x80, 0x7F}, {0x33, 0x0F}};
  for (const auto& [a, b] : test_vectors) {
    drive_bus(sim, nl, "a", a);
    drive_bus(sim, nl, "b", b);
    drive_bus(sim, nl, "op", static_cast<std::uint64_t>(op));
    sim.eval();
    sim.step();  // operands latch
    sim.eval();  // compute
    sim.step();  // result latches
    sim.eval();
    std::uint64_t expect = 0;
    const std::uint64_t sh = b & 7;
    switch (op) {
      case 0: expect = (a + b) & 0xFF; break;
      case 1: expect = (a - b) & 0xFF; break;
      case 2: expect = a & b; break;
      case 3: expect = a | b; break;
      case 4: expect = a ^ b; break;
      case 5: expect = (a << sh) & 0xFF; break;
      case 6: expect = a >> sh; break;
      case 7: expect = a < b ? 1 : 0; break;
    }
    EXPECT_EQ(read_bus_outputs(sim, nl, "result"), expect)
        << "op=" << op << " a=" << a << " b=" << b;
  }
}

INSTANTIATE_TEST_SUITE_P(AllOps, AluOps, ::testing::Range(0, 8));

TEST(Designs, FpuMultiplySmall) {
  // 5-bit exponent, 6-bit mantissa FPU; check significand multiply via a
  // direct case: (1.m) * (1.m) with exponents mid-range.
  const auto d = make_fpu(5, 6);
  const auto& nl = d.netlist;
  ASSERT_TRUE(nl.check().ok);
  BitSimulator sim(nl);
  drive_pin(sim, nl, "x_sign", false);
  drive_pin(sim, nl, "y_sign", true);
  drive_bus(sim, nl, "x_exp", 16);
  drive_bus(sim, nl, "y_exp", 15);
  drive_bus(sim, nl, "x_man", 0);   // 1.0
  drive_bus(sim, nl, "y_man", 32);  // 1.5
  drive_pin(sim, nl, "op_mul", true);
  sim.eval(); sim.step();  // latch operands
  sim.eval(); sim.step();  // compute + latch result
  sim.eval();
  // 1.0 * 1.5 = 1.5: mantissa 100000, no exponent bump, sign = negative.
  EXPECT_EQ(read_bus_outputs(sim, nl, "z_man"), 32u);
  for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
    const auto& name = nl.name_of(nl.outputs()[o]);
    if (name == "z_sign") EXPECT_TRUE(output_bit(sim, o));
    if (name == "z_zero") EXPECT_FALSE(output_bit(sim, o));
  }
}

TEST(Designs, NetworkSwitchRoutesPacket) {
  const auto d = make_network_switch(4, 8);
  const auto& nl = d.netlist;
  ASSERT_TRUE(nl.check().ok);
  BitSimulator sim(nl);
  // Port 2 sends 0xAB to output 1; others idle.
  for (int p = 0; p < 4; ++p) {
    const std::string pn = "p" + std::to_string(p) + "_";
    drive_bus(sim, nl, pn + "data", p == 2 ? 0xAB : 0x00);
    drive_bus(sim, nl, pn + "dest", 1);
    drive_bus(sim, nl, pn + "offset", 0);
    drive_pin(sim, nl, pn + "valid", p == 2);
  }
  sim.eval(); sim.step();  // ingress latch
  sim.eval(); sim.step();  // switch + egress latch
  sim.eval();
  EXPECT_EQ(read_bus_outputs(sim, nl, "out1_data"), 0xABu);
  for (std::size_t o = 0; o < nl.outputs().size(); ++o)
    if (nl.name_of(nl.outputs()[o]) == "out1_valid") EXPECT_TRUE(output_bit(sim, o));
}

TEST(Designs, FirewireRegisterFileReadsBack) {
  const auto d = make_firewire(4, 8);
  const auto& nl = d.netlist;
  ASSERT_TRUE(nl.check().ok);
  BitSimulator sim(nl);
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) sim.set_input(i, lanes(false));
  drive_bus(sim, nl, "wr_data", 0x5C);
  drive_bus(sim, nl, "addr", 2);
  drive_pin(sim, nl, "wr_en", true);
  sim.eval(); sim.step();  // inputs latch
  sim.eval(); sim.step();  // register file writes
  drive_pin(sim, nl, "wr_en", false);
  sim.eval(); sim.step();  // read mux output latches
  sim.eval();
  EXPECT_EQ(read_bus_outputs(sim, nl, "rd_data"), 0x5Cu);
}

TEST(Designs, CharacterMatchesPaper) {
  // Firewire must be sequential-dominated relative to the datapath designs.
  const auto fw = make_firewire(8, 8);
  const auto alu = make_alu(8);
  const auto fw_frac = fw.netlist.stats().sequential_fraction();
  const auto alu_frac = alu.netlist.stats().sequential_fraction();
  EXPECT_GT(fw_frac, 2.0 * alu_frac);
  EXPECT_GT(fw_frac, 0.25);
  EXPECT_FALSE(fw.datapath_dominated);
  EXPECT_TRUE(alu.datapath_dominated);
}

TEST(Designs, PaperSuiteScalesAndChecks) {
  const auto suite = paper_suite(0.25);
  ASSERT_EQ(suite.size(), 4u);
  for (const auto& d : suite) {
    EXPECT_TRUE(d.netlist.check().ok) << d.netlist.name();
    EXPECT_GT(d.clock_period_ps, 0.0);
  }
  // Paper order: ALU, Firewire, FPU, Network switch.
  EXPECT_NE(suite[0].netlist.name().find("alu"), std::string::npos);
  EXPECT_NE(suite[1].netlist.name().find("firewire"), std::string::npos);
  EXPECT_NE(suite[2].netlist.name().find("fpu"), std::string::npos);
  EXPECT_NE(suite[3].netlist.name().find("netswitch"), std::string::npos);
}

TEST(Designs, PaperScaleGateCounts) {
  // The full-scale FPU and switch should be in the paper's size class
  // (24k / 80k NAND2 equivalents; we accept the right order of magnitude).
  const auto fpu = make_fpu(8, 23, 4);  // the paper_suite configuration
  const double fpu_gates = fpu.netlist.stats().nand2_equiv;
  EXPECT_GT(fpu_gates, 12000);
  EXPECT_LT(fpu_gates, 60000);
  const auto sw = make_network_switch();
  const double sw_gates = sw.netlist.stats().nand2_equiv;
  EXPECT_GT(sw_gates, 30000);
  EXPECT_LT(sw_gates, 160000);
}

}  // namespace
}  // namespace vpga::designs

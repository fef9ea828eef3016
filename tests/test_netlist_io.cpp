// Tests for the plain-text netlist serialization.

#include "netlist/io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "bitsim_helpers.hpp"
#include "compact/compact.hpp"
#include "designs/designs.hpp"
#include "netlist/bitsim.hpp"
#include "synth/mapper.hpp"

namespace vpga::netlist {
namespace {

Netlist round_trip(const Netlist& nl) {
  std::ostringstream os;
  write_netlist(os, nl);
  std::istringstream is(os.str());
  auto r = read_netlist(is);
  EXPECT_TRUE(r.ok) << r.error;
  return std::move(r.netlist);
}

TEST(NetlistIo, RoundTripCombinational) {
  const auto nl = designs::make_ripple_adder(8);
  const auto back = round_trip(nl);
  EXPECT_EQ(back.num_nodes(), nl.num_nodes());
  EXPECT_EQ(back.name(), nl.name());
  EXPECT_FALSE(random_divergence(nl, back, 200));
}

TEST(NetlistIo, RoundTripSequentialWithFeedback) {
  const auto nl = designs::make_counter(6);
  const auto back = round_trip(nl);
  EXPECT_FALSE(random_divergence(nl, back, 100));
}

TEST(NetlistIo, RoundTripPreservesAnnotations) {
  const auto src = designs::make_ripple_adder(8);
  const auto arch = core::PlbArchitecture::granular();
  const auto mapped =
      synth::tech_map(src, synth::cell_target(arch), synth::Objective::kDelay);
  auto comp = compact::compact_from(src, mapped.netlist, arch);
  const auto back = round_trip(comp.netlist);
  ASSERT_EQ(back.num_nodes(), comp.netlist.num_nodes());
  for (NodeId id : comp.netlist.all_nodes()) {
    const auto& a = comp.netlist.node(id);
    const auto& b = back.node(id);
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.config_tag, b.config_tag) << id.index();
    EXPECT_EQ(a.cell.has_value(), b.cell.has_value());
    if (a.cell) EXPECT_EQ(*a.cell, *b.cell);
    EXPECT_EQ(a.macro_rep, b.macro_rep);
    EXPECT_EQ(a.func.bits(), b.func.bits());
  }
  EXPECT_FALSE(random_divergence(comp.netlist, back, 200));
}

TEST(NetlistIo, RejectsMissingHeader) {
  std::istringstream is("node 0 input a\nend\n");
  const auto r = read_netlist(is);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("header"), std::string::npos);
}

TEST(NetlistIo, RejectsOutOfOrderIds) {
  std::istringstream is("vpga-netlist 1\nnode 1 input a\nend\n");
  const auto r = read_netlist(is);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("dense"), std::string::npos);
}

TEST(NetlistIo, RejectsForwardCombFanin) {
  std::istringstream is(
      "vpga-netlist 1\n"
      "node 0 input a\n"
      "node 1 comb 2 8 0 2\n"
      "node 2 input b\n"
      "end\n");
  const auto r = read_netlist(is);
  EXPECT_FALSE(r.ok);
}

TEST(NetlistIo, RejectsMissingEnd) {
  std::istringstream is("vpga-netlist 1\nnode 0 input a\n");
  const auto r = read_netlist(is);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("end"), std::string::npos);
}

TEST(NetlistIo, RejectsBadTruthTable) {
  std::istringstream is(
      "vpga-netlist 1\n"
      "node 0 input a\n"
      "node 1 comb 1 zz 0\n"
      "end\n");
  EXPECT_FALSE(read_netlist(is).ok);
}

TEST(NetlistIo, RejectsUnknownCell) {
  std::istringstream is(
      "vpga-netlist 1\n"
      "node 0 input a\n"
      "node 1 comb 1 2 0 cell=BOGUS\n"
      "end\n");
  EXPECT_FALSE(read_netlist(is).ok);
}

TEST(NetlistIo, DffForwardReferenceAllowed) {
  std::istringstream is(
      "vpga-netlist 1\n"
      "name toggler\n"
      "node 0 dff 2 name=q\n"
      "node 1 const 1\n"
      "node 2 comb 2 6 0 1\n"
      "node 3 output 0 y\n"
      "end\n");
  const auto r = read_netlist(is);
  ASSERT_TRUE(r.ok) << r.error;
  BitSimulator sim(r.netlist);
  bool expected = false;
  for (int t = 0; t < 4; ++t) {
    sim.eval();
    EXPECT_EQ(output_bit(sim, 0), expected);
    sim.step();
    expected = !expected;
  }
}

TEST(NetlistIo, CommentsAndBlankLinesIgnored) {
  std::istringstream is(
      "vpga-netlist 1\n"
      "# a comment\n"
      "\n"
      "node 0 input a\n"
      "node 1 output 0 y\n"
      "end\n");
  EXPECT_TRUE(read_netlist(is).ok);
}

TEST(NetlistIo, FileRoundTrip) {
  const auto nl = designs::make_lfsr(8, 0b10111000);
  ASSERT_TRUE(save_netlist("/tmp/vpga_io_test.vnl", nl));
  const auto r = load_netlist("/tmp/vpga_io_test.vnl");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(random_divergence(nl, r.netlist, 100));
}

TEST(NetlistIo, LoadMissingFileFails) {
  const auto r = load_netlist("/tmp/definitely_not_here.vnl");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace vpga::netlist

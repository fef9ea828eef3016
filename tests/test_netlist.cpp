// Unit tests for the netlist IR and its structural checks.

#include "netlist/netlist.hpp"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

namespace vpga::netlist {
namespace {

Netlist tiny_comb() {
  Netlist nl("tiny");
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto g = nl.add_and(a, b);
  nl.add_output(g, "y");
  return nl;
}

TEST(Netlist, BuildsAndCounts) {
  const auto nl = tiny_comb();
  const auto s = nl.stats();
  EXPECT_EQ(s.inputs, 2);
  EXPECT_EQ(s.outputs, 1);
  EXPECT_EQ(s.comb, 1);
  EXPECT_EQ(s.dffs, 0);
  EXPECT_TRUE(nl.check().ok);
}

TEST(Netlist, GateSugarTruthTables) {
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  EXPECT_EQ(nl.node(nl.add_and(a, b)).func.bits(), 0b1000u);
  EXPECT_EQ(nl.node(nl.add_or(a, b)).func.bits(), 0b1110u);
  EXPECT_EQ(nl.node(nl.add_xor(a, b)).func.bits(), 0b0110u);
  EXPECT_EQ(nl.node(nl.add_nand(a, b)).func.bits(), 0b0111u);
  EXPECT_EQ(nl.node(nl.add_nor(a, b)).func.bits(), 0b0001u);
  EXPECT_EQ(nl.node(nl.add_xnor(a, b)).func.bits(), 0b1001u);
  EXPECT_EQ(nl.node(nl.add_not(a)).func.bits(), 0b01u);
  EXPECT_EQ(nl.node(nl.add_buf(a)).func.bits(), 0b10u);
}

TEST(Netlist, MuxSelectConvention) {
  Netlist nl;
  const auto s = nl.add_input("s");
  const auto d0 = nl.add_input("d0");
  const auto d1 = nl.add_input("d1");
  const auto m = nl.add_mux(s, d0, d1);
  // Row bits: x0=s, x1=d0, x2=d1.
  const auto& f = nl.node(m).func;
  EXPECT_FALSE(f.eval(0b000));  // s=0,d0=0 -> 0
  EXPECT_TRUE(f.eval(0b010));   // s=0,d0=1 -> 1
  EXPECT_FALSE(f.eval(0b011));  // s=1,d0=1,d1=0 -> 0
  EXPECT_TRUE(f.eval(0b101));   // s=1,d1=1 -> 1
}

TEST(Netlist, TopoOrderRespectsDependencies) {
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto g1 = nl.add_and(a, b);
  const auto g2 = nl.add_xor(g1, a);
  const auto g3 = nl.add_or(g2, g1);
  nl.add_output(g3, "y");
  const auto order = nl.topo_order();
  auto pos = [&](NodeId id) {
    for (std::size_t i = 0; i < order.size(); ++i)
      if (order[i] == id) return static_cast<int>(i);
    return -1;
  };
  EXPECT_LT(pos(g1), pos(g2));
  EXPECT_LT(pos(g2), pos(g3));
  EXPECT_GE(pos(g1), 0);
}

TEST(Netlist, DffBreaksCycles) {
  // A counter bit: q' = q xor 1 — feedback through the DFF must be legal.
  Netlist nl;
  const auto one = nl.add_constant(true);
  const auto ff = nl.add_dff(NodeId{}, "q");
  const auto next = nl.add_xor(ff, one);
  nl.set_dff_input(ff, next);
  nl.add_output(ff, "count");
  EXPECT_TRUE(nl.check().ok);
  EXPECT_EQ(nl.topo_order().size(), 2u);  // xor + output
}

TEST(Netlist, CheckCatchesCombinationalCycle) {
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto g1 = nl.add_and(a, a);  // placeholder fanin, rewired below
  nl.set_fanin(g1, 1, g1);  // self-loop
  const auto r = nl.check();
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.message.find("cycle"), std::string::npos);
}

TEST(Netlist, CheckCatchesReadingAnOutput) {
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto y = nl.add_output(a, "y");
  nl.add_comb(logic::TruthTable(1, 0b01), {y});
  EXPECT_FALSE(nl.check().ok);
}

TEST(Netlist, FanoutCounts) {
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto g1 = nl.add_and(a, b);
  nl.add_xor(g1, a);
  nl.add_or(g1, b);
  nl.add_output(g1, "y");
  const auto f = nl.fanout_counts();
  EXPECT_EQ(f[g1.index()], 3);
  EXPECT_EQ(f[a.index()], 2);
}

TEST(Netlist, StatsSequentialFraction) {
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto ff1 = nl.add_dff(a);
  const auto ff2 = nl.add_dff(ff1);
  const auto g = nl.add_xor(ff1, ff2);
  nl.add_output(g, "y");
  const auto s = nl.stats();
  EXPECT_EQ(s.dffs, 2);
  EXPECT_EQ(s.comb, 1);
  EXPECT_NEAR(s.sequential_fraction(), 2.0 / 3.0, 1e-12);
}

TEST(Netlist, ConfigTagDefaultsToNone) {
  const auto nl = tiny_comb();
  for (NodeId id : nl.all_nodes()) {
    EXPECT_FALSE(nl.node(id).has_config());
    EXPECT_FALSE(nl.node(id).is_mapped());
  }
}

std::vector<NodeId> fanin_list(const Netlist& nl, NodeId id) {
  const auto f = nl.fanins(id);
  return {f.begin(), f.end()};
}

TEST(Netlist, AppendsFaninSpansThatViewItsOwnPool) {
  // add_comb and replace_fanins may be handed a span of the netlist's own
  // fanin pool. Every call below appends to the pool, so a number of them
  // reallocate it under the span they are reading; a copy that is not taken
  // by index may read the freed pool, which a sanitizer build reports.
  Netlist nl("alias");
  std::vector<NodeId> in;
  for (int i = 0; i < 4; ++i) in.push_back(nl.add_input("i" + std::to_string(i)));
  const auto maj = logic::tt3::maj3();
  const NodeId first = nl.add_comb(maj, {in[0], in[1], in[2]});
  const std::vector<NodeId> three = {in[0], in[1], in[2]};

  // add_comb with another node's fanins: the first node's and the last one's.
  NodeId last = first;
  for (int k = 0; k < 300; ++k) {
    const NodeId from = k % 2 == 0 ? first : last;
    last = nl.add_comb(maj, nl.fanins(from));
    ASSERT_EQ(fanin_list(nl, last), three) << k;
  }

  // replace_fanins with a node's own slice: shrinking keeps the slice,
  // growing relocates it to the end of the pool.
  const NodeId z = nl.add_comb(maj, {in[1], in[2], in[3]});
  for (int k = 0; k < 300; ++k) {
    nl.replace_fanins(z, nl.fanins(z));  // unchanged
    ASSERT_EQ(fanin_list(nl, z), (std::vector<NodeId>{in[1], in[2], in[3]})) << k;
    nl.replace_fanins(z, nl.fanins(z).subspan(1));  // shrink to its own tail
    ASSERT_EQ(fanin_list(nl, z), (std::vector<NodeId>{in[2], in[3]})) << k;
    // Grow over its own slot, which still holds three entries.
    nl.replace_fanins(z, std::span<const NodeId>(nl.fanins(z).data(), 3));
    ASSERT_EQ(fanin_list(nl, z), (std::vector<NodeId>{in[2], in[3], in[3]})) << k;
    nl.replace_fanins(z, nl.fanins(z).first(1));  // shrink to its own head
    ASSERT_EQ(fanin_list(nl, z), (std::vector<NodeId>{in[2]})) << k;
    // Grow from another node's slice.
    nl.replace_fanins(z, nl.fanins(last));
    ASSERT_EQ(fanin_list(nl, z), three) << k;
    nl.replace_fanins(z, std::vector<NodeId>{in[1], in[2], in[3]});
  }
  EXPECT_EQ(fanin_list(nl, first), three);
  EXPECT_EQ(fanin_list(nl, last), three);
}

}  // namespace
}  // namespace vpga::netlist

// Tests for full-adder fusion (Section 2.2's one-tile full adder).

#include "compact/fa_fusion.hpp"

#include <gtest/gtest.h>

#include "compact/compact.hpp"
#include "designs/datapath.hpp"
#include "designs/designs.hpp"
#include "netlist/bitsim.hpp"
#include "synth/mapper.hpp"

namespace vpga::compact {
namespace {

using core::ConfigKind;
using core::PlbArchitecture;

TEST(FaFusion, MajorityFamilyClosure) {
  const auto& fam = majority_family();
  EXPECT_TRUE(fam.test(logic::tt3::maj3().bits()));
  EXPECT_TRUE(fam.test((~logic::tt3::maj3()).bits()));
  // Subtractor carry: maj(a', b, c).
  EXPECT_TRUE(fam.test(logic::tt3::maj3().negate_var(0).bits()));
  EXPECT_FALSE(fam.test(logic::tt3::xor3().bits()));
  EXPECT_FALSE(fam.test(logic::tt3::nand3().bits()));
  // Input negations and complement: at most 16 members.
  EXPECT_LE(fam.count(), 16u);
  EXPECT_GE(fam.count(), 8u);
}

netlist::Netlist hand_built_fa_pair() {
  netlist::Netlist nl("fa");
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto c = nl.add_input("c");
  auto sum = nl.add_xor3(a, b, c);
  auto cout = nl.add_maj(a, b, c);
  nl.node(sum).config_tag = static_cast<std::uint8_t>(ConfigKind::kXoamx);
  nl.node(cout).config_tag = static_cast<std::uint8_t>(ConfigKind::kXoamx);
  nl.add_output(sum, "s");
  nl.add_output(cout, "co");
  return nl;
}

TEST(FaFusion, PairsSumAndCarryOnSameFanins) {
  auto nl = hand_built_fa_pair();
  EXPECT_EQ(fuse_full_adders(nl, PlbArchitecture::granular()), 1);
  int fa_nodes = 0;
  netlist::NodeId rep;
  for (netlist::NodeId id : nl.all_nodes()) {
    const auto& n = nl.node(id);
    if (n.type == netlist::NodeType::kComb &&
        n.config_tag == static_cast<std::uint8_t>(ConfigKind::kFullAdder)) {
      ++fa_nodes;
      EXPECT_TRUE(n.in_macro());
      if (!rep.valid()) rep = n.macro_rep;
      EXPECT_EQ(n.macro_rep, rep);
    }
  }
  EXPECT_EQ(fa_nodes, 2);
}

TEST(FaFusion, NoOpOnLutArchitecture) {
  auto nl = hand_built_fa_pair();
  // Retag to LUT configs first (LUT arch would never carry XOAMX tags).
  for (netlist::NodeId id : nl.all_nodes())
    if (nl.node(id).type == netlist::NodeType::kComb)
      nl.node(id).config_tag = static_cast<std::uint8_t>(ConfigKind::kLut3);
  EXPECT_EQ(fuse_full_adders(nl, PlbArchitecture::lut_based()), 0);
  for (netlist::NodeId id : nl.all_nodes()) EXPECT_FALSE(nl.node(id).in_macro());
}

TEST(FaFusion, DifferentFaninsDoNotPair) {
  netlist::Netlist nl("nofa");
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto c = nl.add_input("c");
  const auto d = nl.add_input("d");
  auto sum = nl.add_xor3(a, b, c);
  auto cout = nl.add_maj(a, b, d);  // different third input
  nl.node(sum).config_tag = static_cast<std::uint8_t>(ConfigKind::kXoamx);
  nl.node(cout).config_tag = static_cast<std::uint8_t>(ConfigKind::kXoamx);
  nl.add_output(sum, "s");
  nl.add_output(cout, "co");
  EXPECT_EQ(fuse_full_adders(nl, PlbArchitecture::granular()), 0);
}

TEST(FaFusion, UnpairedSpeculativeHalvesDemoteToXoamx) {
  netlist::Netlist nl("half");
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto c = nl.add_input("c");
  auto sum = nl.add_xor3(a, b, c);  // a lone sum, no carry partner
  nl.node(sum).config_tag = static_cast<std::uint8_t>(ConfigKind::kFullAdder);
  nl.add_output(sum, "s");
  EXPECT_EQ(fuse_full_adders(nl, PlbArchitecture::granular()), 0);
  EXPECT_EQ(nl.node(sum).config_tag, static_cast<std::uint8_t>(ConfigKind::kXoamx));
  EXPECT_FALSE(nl.node(sum).in_macro());
}

TEST(FaFusion, RippleAdderFusesEveryBit) {
  const auto src = designs::make_ripple_adder(24);
  const auto arch = PlbArchitecture::granular();
  const auto mapped =
      synth::tech_map(src, synth::cell_target(arch), synth::Objective::kDelay);
  const auto c = compact_from(src, mapped.netlist, arch);
  EXPECT_EQ(c.report.config_histogram[static_cast<int>(ConfigKind::kFullAdder)], 24);
  EXPECT_FALSE(netlist::random_divergence(src, c.netlist, 300));
}

TEST(FaFusion, SubtractorCarriesFuseToo) {
  // a - b uses carries maj(a, b', c): still one FA per bit thanks to the
  // majority-family matching (programmable input polarity).
  netlist::Netlist src("sub8");
  designs::Bus a = designs::input_bus(src, "a", 8);
  designs::Bus b = designs::input_bus(src, "b", 8);
  designs::output_bus(src, "d", designs::ripple_sub(src, a, b));
  const auto arch = PlbArchitecture::granular();
  const auto mapped =
      synth::tech_map(src, synth::cell_target(arch), synth::Objective::kDelay);
  const auto c = compact_from(src, mapped.netlist, arch);
  EXPECT_GE(c.report.config_histogram[static_cast<int>(ConfigKind::kFullAdder)], 6);
  EXPECT_FALSE(netlist::random_divergence(src, c.netlist, 300));
}

TEST(FaFusion, MacroAreaCountedOnce) {
  auto nl = hand_built_fa_pair();
  const double before = gate_area(nl);
  fuse_full_adders(nl, PlbArchitecture::granular());
  const double after = gate_area(nl);
  // Two XOAMX configurations collapse into one FA macro: area must shrink.
  EXPECT_LT(after, before);
  EXPECT_NEAR(after, core::config_spec(ConfigKind::kFullAdder).mapped_area_um2, 1e-9);
}

}  // namespace
}  // namespace vpga::compact

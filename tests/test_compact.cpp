// Tests for the regularity-driven logic compaction pass.

#include "compact/compact.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "designs/designs.hpp"
#include "netlist/bitsim.hpp"

namespace vpga::compact {
namespace {

using core::ConfigKind;
using core::PlbArchitecture;
using synth::Objective;
using synth::cell_target;
using synth::tech_map;

CompactionResult run(const netlist::Netlist& src, const PlbArchitecture& arch) {
  // As in the flow driver: the cover is rebuilt from the pre-mapping
  // structure, the area delta is accounted against the mapped netlist.
  const auto mapped = tech_map(src, cell_target(arch), Objective::kDelay);
  return compact_from(src, mapped.netlist, arch);
}

TEST(Compact, PreservesFunctionGranular) {
  const auto src = designs::make_ripple_adder(8);
  const auto c = run(src, PlbArchitecture::granular());
  EXPECT_TRUE(c.netlist.check().ok);
  EXPECT_FALSE(netlist::random_divergence(src, c.netlist, 300));
}

TEST(Compact, PreservesFunctionLut) {
  const auto src = designs::make_ripple_adder(8);
  const auto c = run(src, PlbArchitecture::lut_based());
  EXPECT_FALSE(netlist::random_divergence(src, c.netlist, 300));
}

TEST(Compact, PreservesSequentialBehaviour) {
  const auto d = designs::make_firewire(4, 8);
  const auto c = run(d.netlist, PlbArchitecture::granular());
  EXPECT_FALSE(netlist::random_divergence(d.netlist, c.netlist, 200));
}

TEST(Compact, ReducesGateArea) {
  // The paper: "this compaction step resulted in a significant reduction in
  // total gate area of about 15% on the average" (both architectures).
  for (const auto& arch : {PlbArchitecture::lut_based(), PlbArchitecture::granular()}) {
    const auto d = designs::make_alu(16);
    const auto c = run(d.netlist, arch);
    EXPECT_LT(c.report.area_after_um2, c.report.area_before_um2) << arch.name;
    EXPECT_GT(c.report.area_reduction(), 0.03) << arch.name;
  }
}

TEST(Compact, EveryCombNodeGetsConfigOrBufferCell) {
  const auto d = designs::make_alu(8);
  const auto c = run(d.netlist, PlbArchitecture::granular());
  for (netlist::NodeId id : c.netlist.all_nodes()) {
    const auto& n = c.netlist.node(id);
    if (n.type != netlist::NodeType::kComb) continue;
    if (n.has_config()) continue;
    ASSERT_TRUE(n.is_mapped());
    EXPECT_TRUE(*n.cell == library::CellKind::kInv || *n.cell == library::CellKind::kBuf);
  }
}

TEST(Compact, GranularUsesOnlyGranularConfigs) {
  const auto d = designs::make_alu(8);
  const auto c = run(d.netlist, PlbArchitecture::granular());
  EXPECT_EQ(c.report.config_histogram[static_cast<int>(ConfigKind::kLut3)], 0);
  const int fast = c.report.config_histogram[static_cast<int>(ConfigKind::kMx)] +
                   c.report.config_histogram[static_cast<int>(ConfigKind::kNd3)] +
                   c.report.config_histogram[static_cast<int>(ConfigKind::kNdmx)] +
                   c.report.config_histogram[static_cast<int>(ConfigKind::kXoamx)] +
                   c.report.config_histogram[static_cast<int>(ConfigKind::kXoandmx)];
  EXPECT_GT(fast, 0);
}

TEST(Compact, LutArchUsesLutAndNdConfigs) {
  const auto d = designs::make_alu(8);
  const auto c = run(d.netlist, PlbArchitecture::lut_based());
  for (auto k : {ConfigKind::kMx, ConfigKind::kNdmx, ConfigKind::kXoamx, ConfigKind::kXoandmx})
    EXPECT_EQ(c.report.config_histogram[static_cast<int>(k)], 0) << to_string(k);
  EXPECT_GT(c.report.config_histogram[static_cast<int>(ConfigKind::kLut3)] +
                c.report.config_histogram[static_cast<int>(ConfigKind::kNd3)],
            0);
}

TEST(Compact, PaperClaimFunctionsMoveOffTheLut) {
  // "the majority of the functions that are mapped to a 3-LUT in the
  // LUT-based PLB are mapped to a NDMX or XOAMX configuration in the proposed
  // granular PLB."
  const auto d = designs::make_alu(16);
  const auto lut = run(d.netlist, PlbArchitecture::lut_based());
  const auto gran = run(d.netlist, PlbArchitecture::granular());
  const int luts = lut.report.config_histogram[static_cast<int>(ConfigKind::kLut3)];
  const int composite = gran.report.config_histogram[static_cast<int>(ConfigKind::kNdmx)] +
                        gran.report.config_histogram[static_cast<int>(ConfigKind::kXoamx)] +
                        gran.report.config_histogram[static_cast<int>(ConfigKind::kXoandmx)];
  EXPECT_GT(luts, 0);
  EXPECT_GT(composite, 0);
}

TEST(Compact, CompactedAreaBeatsLutArchOnDatapath) {
  // Datapath logic (xor-rich) should compact to less gate area on the
  // granular architecture than on the LUT architecture.
  const auto src = designs::make_ripple_adder(16);
  const auto lut = run(src, PlbArchitecture::lut_based());
  const auto gran = run(src, PlbArchitecture::granular());
  EXPECT_LT(gran.report.area_after_um2, lut.report.area_after_um2);
}

TEST(Compact, DepthReported) {
  const auto src = designs::make_ripple_adder(8);
  const auto c = run(src, PlbArchitecture::granular());
  EXPECT_GT(c.report.depth_after, 0);
  EXPECT_LE(c.report.depth_after, 64);
}

/// Asserts that two compactions agree node by node and in every report field.
void expect_same_compaction(const CompactionResult& a, const CompactionResult& b) {
  ASSERT_EQ(a.netlist.num_nodes(), b.netlist.num_nodes());
  for (netlist::NodeId id : a.netlist.all_nodes()) {
    const auto& x = a.netlist.node(id);
    const auto& y = b.netlist.node(id);
    EXPECT_EQ(x.type, y.type) << id.index();
    EXPECT_EQ(x.func, y.func) << id.index();
    EXPECT_EQ(x.cell, y.cell) << id.index();
    EXPECT_EQ(x.config_tag, y.config_tag) << id.index();
    EXPECT_EQ(x.macro_rep, y.macro_rep) << id.index();
    EXPECT_EQ(x.witness, y.witness) << id.index();
    const auto fx = a.netlist.fanins(id);
    const auto fy = b.netlist.fanins(id);
    EXPECT_TRUE(std::equal(fx.begin(), fx.end(), fy.begin(), fy.end())) << id.index();
  }
  EXPECT_EQ(a.report.area_before_um2, b.report.area_before_um2);
  EXPECT_EQ(a.report.area_after_um2, b.report.area_after_um2);
  EXPECT_EQ(a.report.nodes_before, b.report.nodes_before);
  EXPECT_EQ(a.report.nodes_after, b.report.nodes_after);
  EXPECT_EQ(a.report.depth_after, b.report.depth_after);
  EXPECT_EQ(a.report.config_histogram, b.report.config_histogram);
}

TEST(Compact, SubjectOverloadMatchesNetlistOverload) {
  // The flow builds one subject, maps it, then compacts from it; the netlist
  // overload builds a fresh subject per call. Agreement after the shared
  // subject went through tech_map shows that no cover mutates it.
  for (const auto& d : {designs::make_alu(8), designs::make_firewire(4, 8)}) {
    for (const auto& arch : {PlbArchitecture::granular(), PlbArchitecture::lut_based()}) {
      SCOPED_TRACE(d.netlist.name() + " / " + arch.name);
      const synth::Subject subject(d.netlist);
      const auto mapped = tech_map(subject, cell_target(arch), Objective::kDelay);
      const auto shared = compact_from(subject, mapped.netlist, arch);
      const auto fresh = compact_from(d.netlist, mapped.netlist, arch);
      expect_same_compaction(shared, fresh);
      expect_same_compaction(compact_from(subject, mapped.netlist, arch), fresh);
    }
  }
}

}  // namespace
}  // namespace vpga::compact

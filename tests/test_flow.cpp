// Integration tests: the end-to-end flows reproduce the paper's directional
// claims on scaled-down versions of the evaluation designs.

#include "flow/flow.hpp"

#include <gtest/gtest.h>

namespace vpga::flow {
namespace {

using core::PlbArchitecture;

TEST(Flow, FlowAProducesReport) {
  const auto d = designs::make_alu(8);
  const auto r = run_flow(d, PlbArchitecture::granular(), 'a');
  EXPECT_EQ(r.flow, 'a');
  EXPECT_GT(r.die_area_um2, 0.0);
  EXPECT_GT(r.gate_count_nand2, 0.0);
  EXPECT_GT(r.wirelength_um, 0.0);
  EXPECT_EQ(r.plbs, 0);
}

TEST(Flow, FlowBProducesReport) {
  const auto d = designs::make_alu(8);
  const auto r = run_flow(d, PlbArchitecture::granular(), 'b');
  EXPECT_EQ(r.flow, 'b');
  EXPECT_GT(r.plbs, 0);
  EXPECT_GT(r.die_area_um2, 0.0);
}

TEST(Flow, PackingCostsAreaAndTiming) {
  // Flow b pays for regularity in both area and slack (paper Tables 1/2:
  // flow b > flow a in area; slack degrades).
  const auto d = designs::make_alu(8);
  for (const auto& arch : {PlbArchitecture::granular(), PlbArchitecture::lut_based()}) {
    const auto a = run_flow(d, arch, 'a');
    const auto b = run_flow(d, arch, 'b');
    EXPECT_GT(b.die_area_um2, a.die_area_um2) << arch.name;
    EXPECT_LT(b.avg_slack_top10_ps, a.avg_slack_top10_ps) << arch.name;
  }
}

TEST(Flow, GranularBeatsLutOnDatapathAreaAndSlack) {
  // The paper's headline: on datapath designs the granular PLB gives smaller
  // die area and better slack in the full VPGA flow.
  const auto d = designs::make_alu(16);
  const auto g = run_flow(d, PlbArchitecture::granular(), 'b');
  const auto l = run_flow(d, PlbArchitecture::lut_based(), 'b');
  EXPECT_LT(g.die_area_um2, l.die_area_um2);
  EXPECT_GT(g.avg_slack_top10_ps, l.avg_slack_top10_ps);
}

TEST(Flow, GranularDegradesLessFromAToB) {
  // "there is about 68% less performance degradation from Flow a to Flow b
  // for designs employing the granular PLB."
  const auto d = designs::make_alu(16);
  const auto c = compare_architectures(d);
  const double deg_gran = c.granular_a.avg_slack_top10_ps - c.granular_b.avg_slack_top10_ps;
  const double deg_lut = c.lut_a.avg_slack_top10_ps - c.lut_b.avg_slack_top10_ps;
  EXPECT_GT(deg_gran, 0.0);
  EXPECT_LT(deg_gran, deg_lut);
}

TEST(Flow, CompactionReportedInBothFlows) {
  const auto d = designs::make_alu(8);
  const auto a = run_flow(d, PlbArchitecture::granular(), 'a');
  const auto b = run_flow(d, PlbArchitecture::granular(), 'b');
  EXPECT_GE(a.compaction.area_reduction(), 0.0);
  EXPECT_DOUBLE_EQ(a.compaction.area_before_um2, b.compaction.area_before_um2);
}

TEST(Flow, SequentialDesignFavorsLutArchitecture) {
  // Firewire direction: sequential-dominated control logic underutilizes the
  // granular PLB's extra combinational area, so the LUT-based array is no
  // longer larger (paper: the granular PLB gives a *bigger* die here).
  const auto d = designs::make_firewire(8, 8);
  const auto g = run_flow(d, PlbArchitecture::granular(), 'b');
  const auto l = run_flow(d, PlbArchitecture::lut_based(), 'b');
  EXPECT_GT(g.die_area_um2 / l.die_area_um2, 0.95);
}

TEST(Flow, DeterministicReports) {
  const auto d = designs::make_alu(8);
  const auto r1 = run_flow(d, PlbArchitecture::granular(), 'b');
  const auto r2 = run_flow(d, PlbArchitecture::granular(), 'b');
  EXPECT_DOUBLE_EQ(r1.die_area_um2, r2.die_area_um2);
  EXPECT_DOUBLE_EQ(r1.avg_slack_top10_ps, r2.avg_slack_top10_ps);
  EXPECT_EQ(r1.plbs, r2.plbs);
}

TEST(Flow, GateCountInNand2Units) {
  const auto d = designs::make_fpu(5, 10);
  const auto r = run_flow(d, PlbArchitecture::granular(), 'a');
  EXPECT_GT(r.gate_count_nand2, 100.0);
}

TEST(Flow, ScaledSuiteRunsEndToEnd) {
  for (const auto& d : designs::paper_suite(0.2)) {
    const auto r = run_flow(d, PlbArchitecture::granular(), 'b');
    EXPECT_GT(r.die_area_um2, 0.0) << d.netlist.name();
    EXPECT_GT(r.plbs, 0) << d.netlist.name();
  }
}

}  // namespace
}  // namespace vpga::flow

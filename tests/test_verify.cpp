// Seeded-corruption tests for the stage-boundary checker: each test mutates a
// known-good netlist in one targeted way and asserts that exactly the right
// rule id fires — plus the clean-pass direction: every bench design clears
// both flows at verify_level = lint+equiv with zero error diagnostics.

#include "verify/verify.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "compact/compact.hpp"
#include "core/vias.hpp"
#include "designs/designs.hpp"
#include "flow/flow.hpp"
#include "obs/obs.hpp"
#include "pack/packer.hpp"
#include "place/placement.hpp"
#include "synth/mapper.hpp"
#include "verify/rules.hpp"

namespace vpga::verify {
namespace {

using core::ConfigKind;
using core::PlbArchitecture;
using library::CellKind;
using netlist::Netlist;
using netlist::NodeId;
using netlist::NodeType;

VerifyReport lint(const Netlist& nl) {
  VerifyReport r;
  lint_netlist(nl, "test", r);
  return r;
}

/// Rules positively fired by this binary's corruption tests. The catalogue
/// coverage test (registered last, so it runs after every corruption test)
/// checks this registry against verify::kRuleCatalogue.
std::set<std::string, std::less<>>& fired_registry() {
  static std::set<std::string, std::less<>> reg;
  return reg;
}

/// Asserts `rule` fired and records it for the catalogue coverage test.
void expect_fired(const VerifyReport& r, std::string_view rule) {
  EXPECT_TRUE(r.fired(rule)) << "expected rule " << rule << "\n" << r.summary();
  if (r.fired(rule)) fired_registry().insert(std::string(rule));
}

/// A small clean netlist every lint rule is exercised against. (The counter
/// generator is not used here: it carries a genuinely dead comb node, which
/// the lint rightly flags as lint.unreachable.)
Netlist good_netlist() { return designs::make_ripple_adder(4); }

TEST(Lint, CleanNetlistHasNoFindings) {
  const auto r = lint(good_netlist());
  EXPECT_EQ(r.error_count(), 0) << r.summary();
  EXPECT_EQ(r.warning_count(), 0) << r.summary();
}

TEST(Lint, DroppedFaninFiresArityMismatch) {
  auto nl = good_netlist();
  for (NodeId id : nl.all_nodes()) {
    const auto& n = nl.node(id);
    if (n.type == NodeType::kComb && n.num_fanins() >= 2) {
      // The seeded corruption: one fanin dropped.
      const auto fins = nl.fanins(id);
      nl.replace_fanins(id, fins.subspan(0, fins.size() - 1));
      break;
    }
  }
  const auto r = lint(nl);
  expect_fired(r, "lint.arity-mismatch");
  EXPECT_TRUE(r.has_errors());
}

TEST(Lint, OutOfRangeFaninFiresInvalidFanin) {
  auto nl = good_netlist();
  for (NodeId id : nl.all_nodes()) {
    const auto& n = nl.node(id);
    if (n.type == NodeType::kComb && n.num_fanins() > 0) {
      nl.set_fanin(id, 0, NodeId(nl.num_nodes() + 100));
      break;
    }
  }
  expect_fired(lint(nl), "lint.invalid-fanin");
}

TEST(Lint, ReadingAPrimaryOutputFiresOutputRead) {
  auto nl = good_netlist();
  ASSERT_FALSE(nl.outputs().empty());
  for (NodeId id : nl.all_nodes()) {
    const auto& n = nl.node(id);
    if (n.type == NodeType::kComb && n.num_fanins() > 0) {
      nl.set_fanin(id, 0, nl.outputs().front());
      break;
    }
  }
  expect_fired(lint(nl), "lint.output-read");
}

TEST(Lint, BackEdgeFiresCombCycle) {
  auto nl = good_netlist();
  // Point an early comb node at a later one: a purely combinational loop.
  NodeId early, late;
  for (NodeId id : nl.all_nodes()) {
    if (nl.node(id).type != NodeType::kComb || nl.node(id).num_fanins() == 0) continue;
    if (!early.valid()) early = id;
    late = id;
  }
  ASSERT_TRUE(early.valid() && late.valid() && early != late);
  nl.set_fanin(early, 0, late);
  nl.set_fanin(late, 0, early);
  expect_fired(lint(nl), "lint.comb-cycle");
}

TEST(Lint, UnconnectedDffFiresUndrivenDff) {
  auto nl = good_netlist();
  nl.add_dff(NodeId{}, "orphan_ff");
  expect_fired(lint(nl), "lint.undriven-dff");
}

TEST(Lint, FaninOnAnInputFiresIoBoundary) {
  auto nl = good_netlist();
  ASSERT_FALSE(nl.inputs().empty());
  nl.replace_fanins(nl.inputs().front(), {{nl.inputs().front()}});
  expect_fired(lint(nl), "lint.io-boundary");
}

TEST(Lint, SharedNameFiresDuplicateNameWarning) {
  auto nl = good_netlist();
  const auto a = nl.add_input("twin");
  const auto b = nl.add_input("twin");
  (void)a;
  (void)b;
  const auto r = lint(nl);
  expect_fired(r, "lint.duplicate-name");
  EXPECT_FALSE(r.has_errors()) << "duplicate names are a warning, not an error";
}

TEST(Lint, DuplicateNamesReportInNodeOrderAgainstTheirFirstUse) {
  auto nl = good_netlist();
  const auto t0 = nl.add_input("twin");
  const auto p0 = nl.add_input("pair");
  const auto t1 = nl.add_input("twin");
  const auto p1 = nl.add_input("pair");
  const auto t2 = nl.add_input("twin");
  const auto r = lint(nl);
  std::vector<std::pair<NodeId, std::string>> got;
  for (const auto& d : r.diagnostics())
    if (d.rule == "lint.duplicate-name") got.emplace_back(d.node, d.message);
  const auto at = [](NodeId id) { return std::to_string(id.index()); };
  const std::vector<std::pair<NodeId, std::string>> want = {
      {t1, "name 'twin' already used by node " + at(t0)},
      {p1, "name 'pair' already used by node " + at(p0)},
      {t2, "name 'twin' already used by node " + at(t0)}};
  EXPECT_EQ(got, want);
}

TEST(Lint, DeadLogicFiresUnreachableWarning) {
  auto nl = good_netlist();
  ASSERT_GE(nl.inputs().size(), 2u);
  nl.add_and(nl.inputs()[0], nl.inputs()[1]);  // feeds nothing
  const auto r = lint(nl);
  expect_fired(r, "lint.unreachable");
  EXPECT_FALSE(r.has_errors());
}

/// Mapped/compacted/packed fixtures share this setup (granular architecture).
struct Staged {
  PlbArchitecture arch = PlbArchitecture::granular();
  Netlist golden, mapped, compacted;
  explicit Staged(Netlist src = designs::make_alu(4).netlist) : golden(std::move(src)) {
    mapped = synth::tech_map(golden, synth::cell_target(arch), synth::Objective::kDelay)
                 .netlist;
    compacted = compact::compact_from(golden, mapped, arch).netlist;
  }
};

TEST(StageChecks, CleanMappedAndCompactedNetlistsPass) {
  Staged s;
  VerifyReport r;
  check_post_map(s.mapped, s.arch, "post-map", r);
  check_post_compact(s.compacted, s.arch, "post-compact", r);
  EXPECT_EQ(r.error_count(), 0) << r.summary();
}

TEST(StageChecks, ClearedCellFiresUnmappedNode) {
  Staged s;
  for (NodeId id : s.mapped.all_nodes()) {
    auto& n = s.mapped.node(id);
    if (n.type == NodeType::kComb && n.cell) {
      n.cell.reset();
      break;
    }
  }
  VerifyReport r;
  check_post_map(s.mapped, s.arch, "post-map", r);
  expect_fired(r, "map.unmapped-node");
}

TEST(StageChecks, ForeignCellFiresIllegalCell) {
  Staged s;
  // The 3-LUT belongs to the LUT-based PLB, not the granular library.
  for (NodeId id : s.mapped.all_nodes()) {
    auto& n = s.mapped.node(id);
    if (n.type == NodeType::kComb && n.cell) {
      n.cell = CellKind::kLut3;
      break;
    }
  }
  VerifyReport r;
  check_post_map(s.mapped, s.arch, "post-map", r);
  expect_fired(r, "map.illegal-cell");
}

TEST(StageChecks, SwappedTruthTableFiresCellFunctionMismatch) {
  Staged s;
  // XOR3 is exactly what an ND3WI cannot realize (the S3 gap of Section 2).
  bool corrupted = false;
  for (NodeId id : s.mapped.all_nodes()) {
    auto& n = s.mapped.node(id);
    if (n.type == NodeType::kComb && n.cell == CellKind::kNd3wi && n.num_fanins() == 3) {
      n.func = logic::tt3::xor3();
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted) << "ALU mapping produced no 3-input ND3WI node";
  VerifyReport r;
  check_post_map(s.mapped, s.arch, "post-map", r);
  expect_fired(r, "map.cell-function-mismatch");
}

NodeId first_configured(const Netlist& nl) {
  for (NodeId id : nl.all_nodes()) {
    const auto& n = nl.node(id);
    if (n.type == NodeType::kComb && n.has_config()) return id;
  }
  return {};
}

TEST(StageChecks, ForgedConfigTagFiresBadConfigTag) {
  Staged s;
  const NodeId id = first_configured(s.compacted);
  ASSERT_TRUE(id.valid());
  s.compacted.node(id).config_tag = 0xEE;  // names no ConfigKind
  VerifyReport r;
  check_post_compact(s.compacted, s.arch, "post-compact", r);
  expect_fired(r, "compact.bad-config-tag");
}

TEST(StageChecks, ForeignConfigFiresUnsupportedConfig) {
  Staged s;
  const NodeId id = first_configured(s.compacted);
  ASSERT_TRUE(id.valid());
  s.compacted.node(id).config_tag = static_cast<std::uint8_t>(ConfigKind::kLut3);
  VerifyReport r;
  check_post_compact(s.compacted, s.arch, "post-compact", r);
  expect_fired(r, "compact.unsupported-config");
}

TEST(StageChecks, UndersizedTileFiresConfigOverflow) {
  // A crippled architecture that still lists XOAMX as supported but has no
  // MUX-class slots to realize it: supported yet unimplementable.
  Staged s;
  auto tiny = s.arch;
  tiny.component_count[static_cast<std::size_t>(core::PlbComponent::kMux)] = 0;
  tiny.component_count[static_cast<std::size_t>(core::PlbComponent::kXoa)] = 0;
  const NodeId id = first_configured(s.compacted);
  ASSERT_TRUE(id.valid());
  s.compacted.node(id).config_tag = static_cast<std::uint8_t>(ConfigKind::kXoamx);
  VerifyReport r;
  check_post_compact(s.compacted, tiny, "post-compact", r);
  expect_fired(r, "compact.config-overflow");
}

TEST(StageChecks, BrokenMacroGroupingFiresMacroRep) {
  Staged s{designs::make_ripple_adder(8)};  // compaction forms FA macros here
  bool corrupted = false;
  for (NodeId id : s.compacted.all_nodes()) {
    auto& n = s.compacted.node(id);
    if (n.in_macro() && n.macro_rep != id) {
      n.macro_rep = id == NodeId(0u) ? NodeId(1u) : NodeId(0u);  // a non-macro node
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted);
  VerifyReport r;
  check_post_compact(s.compacted, s.arch, "post-compact", r);
  expect_fired(r, "compact.macro-rep");
}

TEST(StageChecks, StrippedConfigFiresMissingConfig) {
  Staged s;
  const NodeId id = first_configured(s.compacted);
  ASSERT_TRUE(id.valid());
  s.compacted.node(id).config_tag = netlist::Node::kNoConfig;
  s.compacted.node(id).cell.reset();
  VerifyReport r;
  check_post_compact(s.compacted, s.arch, "post-compact", r);
  expect_fired(r, "compact.missing-config");
}

/// Packed fixture: the compacted design legalized into the granular array.
/// Defaults to the ripple adder, whose compaction produces full-adder macros
/// (the ALU's re-cover does not), so macro co-location is exercised too.
struct PackedStage : Staged {
  place::Placement placed;
  pack::PackedDesign packed;
  explicit PackedStage(Netlist src = designs::make_ripple_adder(8))
      : Staged(std::move(src)) {
    placed = place::place(compacted);
    packed = pack::pack(compacted, placed, arch);
  }
};

TEST(StageChecks, CleanPackedDesignPasses) {
  PackedStage s;
  VerifyReport r;
  check_post_pack(s.compacted, s.packed, s.arch, "post-pack", r);
  EXPECT_EQ(r.error_count(), 0) << r.summary();
}

TEST(StageChecks, OutOfGridTileFiresTileBounds) {
  PackedStage s;
  const NodeId id = first_configured(s.compacted);
  ASSERT_TRUE(id.valid());
  s.packed.tile_of_node[id.index()] = s.packed.grid_w * s.packed.grid_h + 7;
  VerifyReport r;
  check_post_pack(s.compacted, s.packed, s.arch, "post-pack", r);
  expect_fired(r, "pack.tile-bounds");
}

TEST(StageChecks, DroppedAssignmentFiresUnassigned) {
  PackedStage s;
  const NodeId id = first_configured(s.compacted);
  ASSERT_TRUE(id.valid());
  s.packed.tile_of_node[id.index()] = -1;
  VerifyReport r;
  check_post_pack(s.compacted, s.packed, s.arch, "post-pack", r);
  expect_fired(r, "pack.unassigned");
}

TEST(StageChecks, OverstuffedTileFiresCapacity) {
  PackedStage s;
  for (NodeId id : s.compacted.all_nodes()) {
    const auto& n = s.compacted.node(id);
    if (n.type == NodeType::kDff || (n.type == NodeType::kComb && n.has_config()))
      s.packed.tile_of_node[id.index()] = 0;  // everything into one tile
  }
  VerifyReport r;
  check_post_pack(s.compacted, s.packed, s.arch, "post-pack", r);
  expect_fired(r, "pack.capacity");
}

TEST(StageChecks, SeparatedMacroMembersFireMacroSplit) {
  PackedStage s;
  ASSERT_GE(s.packed.grid_w * s.packed.grid_h, 2);
  bool corrupted = false;
  for (NodeId id : s.compacted.all_nodes()) {
    const auto& n = s.compacted.node(id);
    if (n.in_macro() && n.macro_rep != id) {  // a non-representative FA member
      const int tile = s.packed.tile_of_node[id.index()];
      s.packed.tile_of_node[id.index()] = tile == 0 ? 1 : 0;
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted) << "ALU compaction produced no full-adder macro";
  VerifyReport r;
  check_post_pack(s.compacted, s.packed, s.arch, "post-pack", r);
  expect_fired(r, "pack.macro-split");
}

TEST(StageChecks, RoutedDesignWithinViaBudgetPasses) {
  PackedStage s;
  VerifyReport r;
  check_post_route(s.compacted, s.packed, s.arch, "post-route", r);
  EXPECT_EQ(r.error_count(), 0) << r.summary();
}

TEST(StageChecks, OverBudgetTileFiresViaBudget) {
  PackedStage s;
  // Cram every slot-consuming node into tile 0: its configuration vias alone
  // (eight full adders at 13 vias each, plus DFF taps) exceed the candidate
  // sites of a crippled single-MUX architecture (4 pins x 10 sources = 40).
  for (NodeId id : s.compacted.all_nodes()) {
    const auto& n = s.compacted.node(id);
    if (n.type == NodeType::kDff || (n.type == NodeType::kComb && n.has_config()))
      s.packed.tile_of_node[id.index()] = 0;
  }
  auto tiny = s.arch;
  for (auto& c : tiny.component_count) c = 0;
  tiny.component_count[static_cast<std::size_t>(core::PlbComponent::kMux)] = 1;
  ASSERT_EQ(core::potential_via_sites(tiny), 40);
  VerifyReport r;
  check_post_route(s.compacted, s.packed, tiny, "post-route", r);
  expect_fired(r, "route.via-budget");
}

TEST(StageChecks, ViaBudgetOverrunsCounterCountsOverBudgetTiles) {
  // check_post_route adds its over-budget tiles to the run's
  // verify.via_budget.overruns counter: one per route.via-budget finding.
  PackedStage s;
  obs::ObsContext ctx(/*trace=*/false, /*metrics=*/true);
  const obs::ScopedObs bind(&ctx);
  const auto overrun_findings = [](const VerifyReport& r) {
    return std::count_if(r.diagnostics().begin(), r.diagnostics().end(),
                         [](const Diagnostic& d) { return d.rule == "route.via-budget"; });
  };
  VerifyReport ok;
  check_post_route(s.compacted, s.packed, s.arch, "post-route", ok);
  EXPECT_EQ(overrun_findings(ok), 0);
  EXPECT_EQ(ctx.report().counter("verify.via_budget.overruns"), 0);
  for (NodeId id : s.compacted.all_nodes()) {
    const auto& n = s.compacted.node(id);
    if (n.type == NodeType::kDff || (n.type == NodeType::kComb && n.has_config()))
      s.packed.tile_of_node[id.index()] = 0;
  }
  auto tiny = s.arch;
  for (auto& c : tiny.component_count) c = 0;
  tiny.component_count[static_cast<std::size_t>(core::PlbComponent::kMux)] = 1;
  VerifyReport bad;
  check_post_route(s.compacted, s.packed, tiny, "post-route", bad);
  EXPECT_GT(overrun_findings(bad), 0);
  EXPECT_EQ(ctx.report().counter("verify.via_budget.overruns"), overrun_findings(bad));
}

TEST(StageChecks, FlowVerifierRoutesViaBudgetThroughPostRouteStage) {
  PackedStage s;
  for (NodeId id : s.compacted.all_nodes()) {
    const auto& n = s.compacted.node(id);
    if (n.type == NodeType::kDff || (n.type == NodeType::kComb && n.has_config()))
      s.packed.tile_of_node[id.index()] = 0;
  }
  auto tiny = s.arch;
  for (auto& c : tiny.component_count) c = 0;
  tiny.component_count[static_cast<std::size_t>(core::PlbComponent::kMux)] = 1;
  VerifyOptions opts;
  FlowVerifier v(tiny, opts);
  const auto r = v.check(Stage::kPostRoute, s.compacted, nullptr, &s.packed);
  expect_fired(r, "route.via-budget");
  for (const auto& d : r.diagnostics())
    if (d.rule == "route.via-budget") EXPECT_EQ(d.stage, "post-route");
}

TEST(Equiv, ComplementedNodeFiresOutputDiverges) {
  const auto golden = designs::make_ripple_adder(4);
  auto revised = golden;
  for (NodeId id : revised.all_nodes()) {
    auto& n = revised.node(id);
    if (n.type == NodeType::kComb && n.num_fanins() >= 2) {
      n.func = ~n.func;  // structurally legal, functionally wrong
      break;
    }
  }
  VerifyReport r;
  check_equivalence(golden, revised, "test", r);
  expect_fired(r, "equiv.output-diverges");
  ASSERT_FALSE(r.diagnostics().empty());
  // The diagnostic names the diverging cone.
  EXPECT_NE(r.diagnostics().front().message.find("cone"), std::string::npos);
}

TEST(Equiv, DifferentInterfacesFireInterfaceMismatch) {
  VerifyReport r;
  check_equivalence(designs::make_ripple_adder(4), designs::make_ripple_adder(8), "test", r);
  expect_fired(r, "equiv.interface-mismatch");
}

TEST(Equiv, LateStateDivergencePinsMessageAndVectors) {
  // Bit 2's increment XOR becomes an OR: the next state differs only when a
  // lane's count wraps 7 -> 8, so the outputs first diverge cycles after reset.
  const auto golden = designs::make_counter(8);
  auto revised = golden;
  const NodeId mux = revised.fanin(revised.dffs()[2], 0);
  const NodeId sum = revised.fanin(mux, 2);
  ASSERT_EQ(revised.node(sum).func, logic::TruthTable(2, 0x6));
  revised.node(sum).func = logic::TruthTable(2, 0xE);

  obs::ObsContext ctx(/*trace=*/false, /*metrics=*/true);
  const obs::ScopedObs bind(&ctx);
  VerifyReport r;
  check_equivalence(golden, revised, "test", r);
  ASSERT_EQ(r.diagnostics().size(), 1u) << r.summary();
  EXPECT_EQ(r.diagnostics().front().rule, "equiv.output-diverges");
  EXPECT_EQ(r.diagnostics().front().message,
            "output 'count[2]' (index 2) diverges at cycle 10, pattern 3; revised cone: "
            "14 nodes / 1 supporting inputs");
  EXPECT_EQ(ctx.report().counter("verify.equiv.vectors"), 64 * 11);  // cycles 0..10
}

TEST(Equiv, EquivalentNetlistsPass) {
  const auto golden = designs::make_ripple_adder(6);
  Staged s;  // mapped ALU is equivalent to its source by construction
  VerifyReport r;
  check_equivalence(s.golden, s.mapped, "test", r);
  EXPECT_EQ(r.error_count(), 0) << r.summary();
}

TEST(FlowVerifier, AccumulatesAcrossStages) {
  Staged s;
  VerifyOptions opts;
  opts.level = VerifyLevel::kLintEquiv;
  FlowVerifier v(s.arch, opts);
  EXPECT_EQ(v.check(Stage::kInput, s.golden).error_count(), 0);
  EXPECT_EQ(v.check(Stage::kPostMap, s.mapped, &s.golden).error_count(), 0);
  EXPECT_EQ(v.check(Stage::kPostCompact, s.compacted, &s.golden).error_count(), 0);
  EXPECT_EQ(v.report().error_count(), 0) << v.report().summary();
}

TEST(FlowVerifier, OffLevelChecksNothing) {
  auto nl = good_netlist();
  nl.add_dff(NodeId{}, "orphan_ff");  // would be an error at kLint
  VerifyOptions opts;
  opts.level = VerifyLevel::kOff;
  FlowVerifier v(PlbArchitecture::granular(), opts);
  EXPECT_TRUE(v.check(Stage::kInput, nl).empty());
}

// The acceptance gate: every bench design runs both flows on both paper
// architectures at lint+equiv with zero error diagnostics.
TEST(FlowVerifier, BenchSuitePassesLintEquivCleanly) {
  flow::FlowOptions opts;
  opts.verify_level = VerifyLevel::kLintEquiv;
  for (const auto& d : designs::paper_suite(0.2)) {
    for (const auto& arch : {PlbArchitecture::granular(), PlbArchitecture::lut_based()}) {
      for (char which : {'a', 'b'}) {
        const auto rep = flow::run_flow(d, arch, which, opts);
        EXPECT_EQ(rep.verify.error_count(), 0)
            << d.netlist.name() << "/" << arch.name << "/" << which << "\n"
            << rep.verify.summary();
      }
    }
  }
}

// --- Exact equivalence gate (cec.*) ------------------------------------------

TEST(Cec, DifferentInterfacesFireInterfaceMismatch) {
  VerifyReport r;
  check_cec(designs::make_ripple_adder(4), designs::make_ripple_adder(8), "test", r);
  expect_fired(r, "cec.interface-mismatch");
}

TEST(Cec, ComplementedNodeFiresOutputDiverges) {
  const auto golden = designs::make_ripple_adder(4);
  auto revised = golden;
  for (NodeId id : revised.all_nodes()) {
    auto& n = revised.node(id);
    if (n.type == NodeType::kComb && n.num_fanins() >= 2) {
      n.func = ~n.func;  // structurally legal, functionally wrong
      break;
    }
  }
  VerifyReport r;
  check_cec(golden, revised, "test", r);
  expect_fired(r, "cec.output-diverges");
  ASSERT_FALSE(r.diagnostics().empty());
  // The diagnostic carries the replayed counterexample vector.
  EXPECT_NE(r.diagnostics().front().message.find("counterexample"), std::string::npos);
}

TEST(Cec, CorruptedNextStateFiresStateDiverges) {
  const auto golden = designs::make_counter(4);
  auto revised = golden;
  // Complement the D cone of the last register without touching any output.
  const NodeId dff = revised.dffs().back();
  const NodeId d = revised.fanin(dff, 0);
  revised.set_dff_input(dff, revised.add_not(d));
  VerifyReport r;
  check_cec(golden, revised, "test", r);
  expect_fired(r, "cec.state-diverges");
}

TEST(Cec, CrossPositionOrphanRegistersFireStateUnmatched) {
  // Golden registers: [X: a&b, Y: a^b]. Revised registers: [Y: a^b, Z: a|b].
  // Y finds its class-mate across positions; the leftovers X (golden, pos 0)
  // and Z (revised, pos 1) sit at different positions, so even the positional
  // fallback cannot pair them — the correspondence is incomplete and the
  // checker must refuse to compare points rather than guess a bijection.
  Netlist golden;
  {
    const NodeId a = golden.add_input("a");
    const NodeId b = golden.add_input("b");
    const NodeId x = golden.add_dff(NodeId(), "X");
    const NodeId y = golden.add_dff(NodeId(), "Y");
    golden.set_dff_input(x, golden.add_and(a, b));
    golden.set_dff_input(y, golden.add_xor(a, b));
    golden.add_output(golden.add_or(x, y), "o");
  }
  Netlist revised;
  {
    const NodeId a = revised.add_input("a");
    const NodeId b = revised.add_input("b");
    const NodeId y = revised.add_dff(NodeId(), "Y");
    const NodeId z = revised.add_dff(NodeId(), "Z");
    revised.set_dff_input(y, revised.add_xor(a, b));
    revised.set_dff_input(z, revised.add_or(a, b));
    revised.add_output(revised.add_or(y, z), "o");
  }
  VerifyReport r;
  check_cec(golden, revised, "test", r);
  expect_fired(r, "cec.state-unmatched");
  EXPECT_GT(r.error_count(), 0);
}

TEST(Cec, ExhaustedBudgetFiresResourceLimit) {
  CecOptions opts;
  opts.sat_sweep = false;
  opts.bdd_tier = false;
  opts.max_exhaustive_inputs = 6;
  opts.sat_conflict_budget = 0;
  VerifyReport r;
  check_cec(designs::make_ripple_adder(16), designs::make_prefix_adder(16), "test", r);
  EXPECT_EQ(r.error_count(), 0);  // full budget: proves clean
  check_cec(designs::make_ripple_adder(16), designs::make_prefix_adder(16), "test", r, opts);
  expect_fired(r, "cec.resource-limit");
  EXPECT_EQ(r.error_count(), 0);  // undecided is a warning, not a verdict
  // With the BDD tier on, an undecided point has run out of both budgets,
  // and the warning names both.
  opts.bdd_tier = true;
  opts.bdd_node_budget = 16;
  VerifyReport both;
  check_cec(designs::make_ripple_adder(16), designs::make_prefix_adder(16), "test", both, opts);
  expect_fired(both, "cec.resource-limit");
  for (const Diagnostic& d : both.diagnostics()) {
    if (d.rule != "cec.resource-limit") continue;
    EXPECT_NE(d.message.find("SAT conflict budget (0)"), std::string::npos) << d.message;
    EXPECT_NE(d.message.find("BDD node budget (16)"), std::string::npos) << d.message;
  }
}

TEST(FlowVerifier, ExactLevelProvesMappedStages) {
  Staged s;
  VerifyOptions opts;
  opts.level = VerifyLevel::kExact;
  FlowVerifier v(s.arch, opts);
  EXPECT_EQ(v.check(Stage::kInput, s.golden).error_count(), 0);
  EXPECT_EQ(v.check(Stage::kPostMap, s.mapped, &s.golden).error_count(), 0);
  EXPECT_EQ(v.check(Stage::kPostCompact, s.compacted, &s.golden).error_count(), 0);
  EXPECT_EQ(v.report().error_count(), 0) << v.report().summary();
}

// --- Rule-catalogue audit ----------------------------------------------------
// These two suites are registered last in this translation unit so they run
// after every corruption test above has populated fired_registry() (gtest
// runs suites in registration order unless shuffling is requested).

// Every rule id in the canonical catalogue must have been exercised by a
// seeded-corruption test in this file.
TEST(RuleCatalogue, EveryRuleIsExercised) {
  for (std::string_view rule : kRuleCatalogue) {
    EXPECT_TRUE(fired_registry().count(rule) > 0)
        << "rule " << rule << " is in kRuleCatalogue but no test in "
        << "test_verify.cpp triggered it";
  }
  // And nothing fired that the catalogue does not know about.
  for (const auto& fired : fired_registry()) {
    EXPECT_TRUE(std::find(kRuleCatalogue.begin(), kRuleCatalogue.end(), fired) !=
                kRuleCatalogue.end())
        << "rule " << fired << " fired in tests but is missing from kRuleCatalogue";
  }
}

// The docs-table <-> catalogue sync check that used to live here (a string
// scrape of docs/VERIFY.md) moved into fabriclint's tree-level
// `verify.rule-sync` check (tools/fabriclint, docs/LINT.md), which runs as
// the `fabriclint` ctest and in CI; test_fabriclint.cpp covers the scrape
// logic itself against the real files.

}  // namespace
}  // namespace vpga::verify

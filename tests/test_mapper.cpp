// Tests for the technology mapper: functional equivalence, target legality,
// and the architectural properties the paper relies on.

#include "synth/mapper.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "designs/designs.hpp"
#include "logic/npn.hpp"
#include "netlist/bitsim.hpp"
#include "synth/buffering.hpp"
#include "synth/match_index.hpp"

namespace vpga::synth {
namespace {

using core::PlbArchitecture;

void expect_only_cells(const netlist::Netlist& nl,
                       std::initializer_list<library::CellKind> allowed) {
  for (netlist::NodeId id : nl.all_nodes()) {
    const auto& n = nl.node(id);
    if (n.type != netlist::NodeType::kComb) continue;
    ASSERT_TRUE(n.cell.has_value());
    bool ok = false;
    for (auto k : allowed) ok = ok || *n.cell == k;
    EXPECT_TRUE(ok) << "unexpected cell " << library::to_string(*n.cell);
  }
}

TEST(Mapper, LutTargetMapsAdderEquivalently) {
  const auto src = designs::make_ripple_adder(8);
  const auto r = tech_map(src, cell_target(PlbArchitecture::lut_based()), Objective::kDelay);
  EXPECT_TRUE(r.netlist.check().ok);
  EXPECT_FALSE(netlist::random_divergence(src, r.netlist, 300));
  expect_only_cells(r.netlist, {library::CellKind::kLut3, library::CellKind::kNd3wi,
                                library::CellKind::kInv, library::CellKind::kBuf});
}

TEST(Mapper, GranularTargetMapsAdderEquivalently) {
  const auto src = designs::make_ripple_adder(8);
  const auto r = tech_map(src, cell_target(PlbArchitecture::granular()), Objective::kDelay);
  EXPECT_TRUE(r.netlist.check().ok);
  EXPECT_FALSE(netlist::random_divergence(src, r.netlist, 300));
  expect_only_cells(r.netlist, {library::CellKind::kMux2, library::CellKind::kNd3wi,
                                library::CellKind::kInv, library::CellKind::kBuf});
}

TEST(Mapper, SequentialDesignsSurviveMapping) {
  const auto src = designs::make_counter(6);
  const auto r = tech_map(src, cell_target(PlbArchitecture::granular()), Objective::kDelay);
  EXPECT_TRUE(r.netlist.check().ok);
  EXPECT_EQ(r.netlist.dffs().size(), 6u);
  EXPECT_FALSE(netlist::random_divergence(src, r.netlist, 200));
}

TEST(Mapper, AluMapsOnBothArchitectures) {
  const auto d = designs::make_alu(8);
  for (const auto& arch : {PlbArchitecture::lut_based(), PlbArchitecture::granular()}) {
    const auto r = tech_map(d.netlist, cell_target(arch), Objective::kDelay);
    EXPECT_TRUE(r.netlist.check().ok) << arch.name;
    EXPECT_FALSE(netlist::random_divergence(d.netlist, r.netlist, 150)) << arch.name;
    EXPECT_GT(r.stats.area_um2, 0.0);
    EXPECT_GT(r.stats.depth, 0);
  }
}

TEST(Mapper, AreaObjectiveNeverLarger) {
  const auto d = designs::make_alu(8);
  const auto t = cell_target(PlbArchitecture::lut_based());
  const auto delay = tech_map(d.netlist, t, Objective::kDelay);
  const auto area = tech_map(d.netlist, t, Objective::kArea);
  EXPECT_LE(area.stats.area_um2, delay.stats.area_um2 * 1.001);
  EXPECT_FALSE(netlist::random_divergence(delay.netlist, area.netlist, 150));
}

TEST(Mapper, DelayObjectiveNeverSlower) {
  const auto d = designs::make_alu(8);
  const auto t = cell_target(PlbArchitecture::granular());
  const auto delay = tech_map(d.netlist, t, Objective::kDelay);
  const auto area = tech_map(d.netlist, t, Objective::kArea);
  EXPECT_LE(delay.stats.est_delay_ps, area.stats.est_delay_ps * 1.001);
}

TEST(Mapper, ConfigTargetProducesConfigTags) {
  const auto src = designs::make_ripple_adder(6);
  const auto r = tech_map(src, config_target(PlbArchitecture::granular()), Objective::kArea);
  EXPECT_FALSE(netlist::random_divergence(src, r.netlist, 200));
  int tagged = 0;
  for (netlist::NodeId id : r.netlist.all_nodes()) {
    const auto& n = r.netlist.node(id);
    if (n.type == netlist::NodeType::kComb && n.has_config()) ++tagged;
  }
  EXPECT_GT(tagged, 0);
}

TEST(Mapper, XorChainsPreferMuxOnGranular) {
  // A pure xor tree: on the granular target every node should map to MUX2
  // (an ND3WI cannot express xor).
  netlist::Netlist src("xor_tree");
  auto a = src.add_input("a");
  for (int i = 0; i < 7; ++i) a = src.add_xor(a, src.add_input("x" + std::to_string(i)));
  src.add_output(a, "y");
  const auto r = tech_map(src, cell_target(PlbArchitecture::granular()), Objective::kDelay);
  for (netlist::NodeId id : r.netlist.all_nodes()) {
    const auto& n = r.netlist.node(id);
    if (n.type == netlist::NodeType::kComb && n.num_fanins() >= 2)
      EXPECT_EQ(*n.cell, library::CellKind::kMux2);
  }
  EXPECT_FALSE(netlist::random_divergence(src, r.netlist, 200));
}

TEST(Mapper, GranularMappingBeatsLutDelayEstimate) {
  // The paper's performance claim at the mapping level: granular components
  // realize the same logic with lower stage delay than 3-LUTs.
  const auto d = designs::make_alu(16);
  const auto lut = tech_map(d.netlist, cell_target(PlbArchitecture::lut_based()),
                            Objective::kDelay);
  const auto gran = tech_map(d.netlist, cell_target(PlbArchitecture::granular()),
                             Objective::kDelay);
  EXPECT_LT(gran.stats.est_delay_ps, lut.stats.est_delay_ps);
}

TEST(Buffering, CapsFanout) {
  netlist::Netlist nl("fanout");
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto g = nl.add_and(a, b);
  for (int i = 0; i < 40; ++i) nl.add_output(nl.add_not(g), "o" + std::to_string(i));
  const int inserted = insert_buffers(nl, 8);
  EXPECT_GT(inserted, 0);
  const auto fan = nl.fanout_counts();
  for (netlist::NodeId id : nl.all_nodes())
    if (nl.node(id).type != netlist::NodeType::kOutput)
      EXPECT_LE(fan[id.index()], 8) << id.index();
  EXPECT_TRUE(nl.check().ok);
}

TEST(Buffering, PreservesFunction) {
  const auto src = designs::make_ripple_adder(8);
  auto buffered = src;
  insert_buffers(buffered, 3);
  EXPECT_FALSE(netlist::random_divergence(src, buffered, 200));
}

/// What insert_buffers at the flow's fanout limit (8) does to a netlist:
/// the buffers it adds, and every pin it rewires — each pin of an original
/// node whose fanin changed, and each pin of an added buffer — as a count and
/// an FNV-1a digest of (node, pin, fanin) in node, then pin order.
struct BufferingOutcome {
  int buffers = 0;
  int moved_pins = 0;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
};

BufferingOutcome buffer_outcome(const netlist::Netlist& original) {
  auto nl = original;
  BufferingOutcome out;
  out.buffers = insert_buffers(nl, 8);
  for (netlist::NodeId id : nl.all_nodes()) {
    const auto fins = nl.fanins(id);
    for (std::size_t p = 0; p < fins.size(); ++p) {
      if (id.index() < original.num_nodes() && fins[p] == original.fanin(id, static_cast<int>(p)))
        continue;
      ++out.moved_pins;
      for (const std::uint64_t x : {std::uint64_t{id.value()}, std::uint64_t{p},
                                    std::uint64_t{fins[p].value()}})
        out.digest = (out.digest ^ x) * 0x100000001b3ULL;
    }
  }
  return out;
}

TEST(Buffering, PinnedOnAluAndSwitch) {
  // The digests pin the sink order (consumer ascending, then pin ascending)
  // that decides which sinks each buffer takes over.
  const auto alu = buffer_outcome(designs::make_alu(32).netlist);
  EXPECT_EQ(alu.buffers, 119);
  EXPECT_EQ(alu.moved_pins, 904);
  EXPECT_EQ(alu.digest, 11389029993283779472ULL);
  const auto sw = buffer_outcome(designs::make_network_switch(8, 32).netlist);
  EXPECT_EQ(sw.buffers, 2208);
  EXPECT_EQ(sw.moved_pins, 16376);
  EXPECT_EQ(sw.digest, 18221526704823451585ULL);
}

TEST(Buffering, NoChangeBelowLimit) {
  auto nl = designs::make_ripple_adder(4);
  const auto before = nl.num_nodes();
  EXPECT_EQ(insert_buffers(nl, 64), 0);
  EXPECT_EQ(nl.num_nodes(), before);
}

// --- Reference oracle -----------------------------------------------------

// synth::cover before the dense DP arrays, kept verbatim as the oracle: one
// match mask per cut in a side vector, and each candidate's option delay,
// option area and leaf flow shares computed inside the loop.
Cover reference_cover(const Subject& subject, const MapTarget& target, Objective objective) {
  constexpr double kNominalLoadFf = 3.0;
  using aig::Lit;
  const aig::Aig& g = subject.mapping().aig;
  const CutDatabase& cuts = subject.cuts();

  const MatchIndex index(target);
  std::vector<MatchIndex::OptionMask> cut_masks(cuts.total_cuts());
  for (std::uint32_t n = 0; n < g.num_nodes(); ++n) {
    const auto node_cuts = cuts.cuts(n);
    const std::size_t flat = cuts.offset(n);
    for (std::size_t ci = 0; ci < node_cuts.size(); ++ci)
      cut_masks[flat + ci] = index.options_for(node_cuts[ci].tt);
  }

  std::vector<int> fanout(g.num_nodes(), 0);
  for (std::uint32_t n = 0; n < g.num_nodes(); ++n)
    if (g.node(n).is_and) {
      ++fanout[aig::node_of(g.node(n).fanin0)];
      ++fanout[aig::node_of(g.node(n).fanin1)];
    }
  for (Lit o : g.outputs()) ++fanout[aig::node_of(o)];

  using Choice = Cover::Choice;
  Cover result;
  std::vector<Choice>& best = result.choice;
  std::vector<char>& needed = result.needed;
  best.resize(g.num_nodes());
  needed.assign(g.num_nodes(), 0);

  auto run_dp = [&] {
    for (std::uint32_t n = 1; n < g.num_nodes(); ++n) {
      if (!g.node(n).is_and) continue;
      Choice bc;
      bc.arrival = std::numeric_limits<double>::infinity();
      bc.area_flow = std::numeric_limits<double>::infinity();
      const auto node_cuts = cuts.cuts(n);
      const std::size_t flat = cuts.offset(n);
      for (int ci = 0; ci < static_cast<int>(node_cuts.size()); ++ci) {
        const Cut& c = node_cuts[static_cast<std::size_t>(ci)];
        if (c.size == 1 && c.leaves[0] == n) continue;
        MatchIndex::OptionMask mask = cut_masks[flat + static_cast<std::size_t>(ci)];
        if (mask == 0) continue;
        double leaves_arrival = 0.0;
        double leaves_flow = 0.0;
        for (int li = 0; li < c.size; ++li) {
          const auto leaf = c.leaves[static_cast<std::size_t>(li)];
          leaves_arrival = std::max(leaves_arrival, best[leaf].arrival);
          leaves_flow += best[leaf].area_flow / std::max(1, fanout[leaf]);
        }
        for (; mask != 0; mask &= mask - 1) {
          const int oi = std::countr_zero(mask);
          const MatchOption& opt = target.options[static_cast<std::size_t>(oi)];
          Choice cand;
          cand.cut = ci;
          cand.option = oi;
          cand.arrival = leaves_arrival + opt.arc.delay(kNominalLoadFf);
          cand.area_flow = leaves_flow + opt.area_um2;
          const bool better =
              objective == Objective::kDelay
                  ? (cand.arrival < bc.arrival - 1e-9 ||
                     (cand.arrival < bc.arrival + 1e-9 && cand.area_flow < bc.area_flow))
                  : (cand.area_flow < bc.area_flow - 1e-9 ||
                     (cand.area_flow < bc.area_flow + 1e-9 && cand.arrival < bc.arrival));
          if (better) bc = cand;
        }
      }
      best[n] = bc;
    }
  };

  std::vector<std::uint32_t> stack;
  auto extract_cover = [&] {
    std::fill(needed.begin(), needed.end(), 0);
    stack.clear();
    for (Lit o : g.outputs()) {
      const auto root = aig::node_of(o);
      if (g.node(root).is_and && !needed[root]) {
        needed[root] = 1;
        stack.push_back(root);
      }
    }
    while (!stack.empty()) {
      const auto n = stack.back();
      stack.pop_back();
      const Cut& c = cuts.cuts(n)[static_cast<std::size_t>(best[n].cut)];
      for (int li = 0; li < c.size; ++li) {
        const auto leaf = c.leaves[static_cast<std::size_t>(li)];
        if (g.node(leaf).is_and && !needed[leaf]) {
          needed[leaf] = 1;
          stack.push_back(leaf);
        }
      }
    }
  };

  constexpr int kRounds = 3;
  for (int round = 0; round < kRounds; ++round) {
    run_dp();
    extract_cover();
    if (round + 1 == kRounds) break;
    std::fill(fanout.begin(), fanout.end(), 0);
    for (std::uint32_t n = 1; n < g.num_nodes(); ++n) {
      if (!needed[n]) continue;
      const Cut& c = cuts.cuts(n)[static_cast<std::size_t>(best[n].cut)];
      for (int li = 0; li < c.size; ++li) ++fanout[c.leaves[static_cast<std::size_t>(li)]];
    }
    for (Lit o : g.outputs()) ++fanout[aig::node_of(o)];
  }
  return result;
}

/// The compaction pass's FA-half option: XOR3/XNOR3 sums and majority-family
/// carries at half the full adder's area, tagged as the full adder.
MatchOption fa_half_option() {
  const auto& lib = library::CellLibrary::standard();
  MatchOption half;
  half.name = "FA-half";
  for (const auto& f : {logic::tt3::maj3(), logic::tt3::xor3()})
    for (const std::uint8_t member : logic::npn_class_of(static_cast<std::uint8_t>(f.bits())))
      half.coverage.set(member);
  half.arc = core::config_spec(core::ConfigKind::kXoamx, lib).arc;
  half.area_um2 = 0.5 * core::config_spec(core::ConfigKind::kFullAdder, lib).mapped_area_um2;
  half.config_tag = static_cast<std::uint8_t>(core::ConfigKind::kFullAdder);
  return half;
}

TEST(Mapper, CoverMatchesReference) {
  // Every Choice, bit for bit, and the needed set against the cover it
  // replaced: cell and configuration targets (with the FA-half where the
  // PLB has a full adder), both objectives, and targets repriced the way the
  // compaction rounds reprice them.
  auto same_bits = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  int compared = 0;
  for (const auto& d : designs::paper_suite(0.15)) {
    const Subject subject(d.netlist);
    for (const auto& arch : {PlbArchitecture::granular(), PlbArchitecture::lut_based()}) {
      std::vector<std::pair<std::string, MapTarget>> targets;
      targets.emplace_back("cells", cell_target(arch));
      targets.emplace_back("configs", config_target(arch));
      if (arch.supports(core::ConfigKind::kFullAdder)) {
        MapTarget with_half = config_target(arch);
        with_half.options.push_back(fa_half_option());
        targets.emplace_back("configs+FA-half", with_half);
      }
      for (std::size_t t = 0, n = targets.size(); t < n; ++t) {
        MapTarget repriced = targets[t].second;
        for (std::size_t oi = 0; oi < repriced.options.size(); ++oi)
          repriced.options[oi].area_um2 *= 1.0 + 0.37 * static_cast<double>((oi * 5 + t) % 4);
        targets.emplace_back(targets[t].first + " repriced", std::move(repriced));
      }
      for (const auto& [name, target] : targets) {
        for (const Objective objective : {Objective::kDelay, Objective::kArea}) {
          const std::string label = d.netlist.name() + "/" + arch.name + "/" + name + "/" +
                                    (objective == Objective::kDelay ? "delay" : "area");
          const Cover got = cover(subject, target, objective);
          const Cover want = reference_cover(subject, target, objective);
          ASSERT_EQ(got.needed, want.needed) << label;
          ASSERT_EQ(got.choice.size(), want.choice.size()) << label;
          for (std::size_t n = 0; n < want.choice.size(); ++n) {
            const Cover::Choice& a = got.choice[n];
            const Cover::Choice& b = want.choice[n];
            ASSERT_TRUE(a.cut == b.cut && a.option == b.option &&
                        same_bits(a.arrival, b.arrival) && same_bits(a.area_flow, b.area_flow))
                << label << " node " << n;
          }
          ++compared;
        }
      }
    }
  }
  EXPECT_GE(compared, 4 * 2 * 4 * 2);
}

}  // namespace
}  // namespace vpga::synth

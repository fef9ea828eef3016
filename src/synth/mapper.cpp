#include "synth/mapper.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>

#include "aig/aig.hpp"
#include "common/assert.hpp"
#include "core/config.hpp"
#include "obs/obs.hpp"
#include "synth/cuts.hpp"
#include "synth/match_index.hpp"

namespace vpga::synth {
namespace {

using aig::Lit;

/// Electrical load assumed per sink during mapping (placement is not known
/// yet; this is the usual pre-layout fanout-of-2 style estimate).
constexpr double kNominalLoadFf = 3.0;

MatchOption cell_option(library::CellKind k, const library::CellLibrary& lib) {
  const auto& s = lib.spec(k);
  MatchOption o;
  o.name = s.name;
  o.coverage = s.coverage;
  o.arc = s.arc;
  o.area_um2 = s.area_um2;
  o.cell = k;
  return o;
}

MatchOption config_option(core::ConfigKind k, const library::CellLibrary& lib) {
  const auto& s = core::config_spec(k, lib);
  MatchOption o;
  o.name = s.name;
  o.coverage = s.coverage;
  o.arc = s.arc;
  o.area_um2 = s.mapped_area_um2;
  o.config_tag = static_cast<std::uint8_t>(k);
  return o;
}

}  // namespace

MapTarget cell_target(const core::PlbArchitecture& arch, const library::CellLibrary& lib) {
  MapTarget t;
  if (arch.count(core::PlbComponent::kLut3) > 0)
    t.options.push_back(cell_option(library::CellKind::kLut3, lib));
  if (arch.count(core::PlbComponent::kMux) > 0 || arch.count(core::PlbComponent::kXoa) > 0)
    t.options.push_back(cell_option(library::CellKind::kMux2, lib));
  if (arch.count(core::PlbComponent::kNd3) > 0)
    t.options.push_back(cell_option(library::CellKind::kNd3wi, lib));
  t.inverter = cell_option(library::CellKind::kInv, lib);
  t.buffer = cell_option(library::CellKind::kBuf, lib);
  return t;
}

MapTarget config_target(const core::PlbArchitecture& arch, const library::CellLibrary& lib) {
  MapTarget t;
  for (core::ConfigKind k : arch.configs) {
    if (k == core::ConfigKind::kFf || k == core::ConfigKind::kFullAdder) continue;
    t.options.push_back(config_option(k, lib));
  }
  t.inverter = cell_option(library::CellKind::kInv, lib);
  t.buffer = cell_option(library::CellKind::kBuf, lib);
  return t;
}

Subject::Subject(const netlist::Netlist& src) : src_(&src) {
  const obs::Span span("map.subject");
  {
    const obs::Span aig_span("map.aig");
    mapping_ = aig::from_netlist(src);
    // The cover needs only the AIG, which is complete. Release the per-node
    // literal table and the structural hash before the cut database fills
    // the heap: kept alive, they fragment it and raise the flow's peak RSS.
    mapping_.node_lit = std::vector<Lit>();
    mapping_.aig.drop_strash();
  }
  const obs::Span cuts_span("map.cuts");
  cuts_ = CutDatabase(mapping_.aig);
}

Cover cover(const Subject& subject, const MapTarget& target, Objective objective) {
  VPGA_ASSERT_MSG(!target.options.empty(), "mapping target has no options");
  const aig::Aig& g = subject.mapping().aig;
  const CutDatabase& cuts = subject.cuts();

  // NPN match index: a cut's matching-option set is one table load by its
  // function. `match_attempts` counts one match per cut.
  const MatchIndex index(target);
  obs::count("map.match_attempts", static_cast<long long>(cuts.total_cuts()));
  // Each option's delay and area, read once instead of per candidate.
  std::array<double, MatchIndex::kMaxOptions> opt_delay{};
  std::array<double, MatchIndex::kMaxOptions> opt_area{};
  for (std::size_t oi = 0; oi < target.options.size(); ++oi) {
    opt_delay[oi] = target.options[oi].arc.delay(kNominalLoadFf);
    opt_area[oi] = target.options[oi].area_um2;
  }

  // Fanout estimates for area flow, refined from the chosen cover each round
  // (structural AIG fanouts systematically overestimate sharing, which makes
  // composite supernodes look worse than they are).
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
  // What a cut reads of each leaf, dense: the leaf's arrival and its share
  // of area flow, best.area_flow / max(1, fanout) under this round's
  // fanouts, set when the DP settles the leaf. Inputs stay at 0.
  std::vector<double> arrival(g.num_nodes(), 0.0);
  std::vector<double> flow_share(g.num_nodes(), 0.0);

  // Dynamic program over AND nodes (node indices are topological).
  auto run_dp = [&] {
    for (std::uint32_t n = 1; n < g.num_nodes(); ++n) {
      if (!g.node(n).is_and) continue;
      Choice bc;
      bc.arrival = std::numeric_limits<double>::infinity();
      bc.area_flow = std::numeric_limits<double>::infinity();
      // An AND's trivial self-cut is its last; the DP skips it.
      const auto all_cuts = cuts.cuts(n);
      const auto node_cuts = all_cuts.first(all_cuts.size() - 1);
      for (int ci = 0; ci < static_cast<int>(node_cuts.size()); ++ci) {
        const Cut& c = node_cuts[static_cast<std::size_t>(ci)];
        MatchIndex::OptionMask mask = index.options_for(c.tt);
        if (mask == 0) continue;
        double leaves_arrival = 0.0;
        double leaves_flow = 0.0;
        for (int li = 0; li < c.size; ++li) {
          const auto leaf = c.leaves[static_cast<std::size_t>(li)];
          leaves_arrival = std::max(leaves_arrival, arrival[leaf]);
          leaves_flow += flow_share[leaf];
        }
        // Iterate matching options lowest-index-first (countr_zero), which is
        // the same ascending order as the old per-option scan, so every
        // tie-break — and therefore the chosen cover — is unchanged.
        for (; mask != 0; mask &= mask - 1) {
          const int oi = std::countr_zero(mask);
          Choice cand;
          cand.cut = ci;
          cand.option = oi;
          cand.arrival = leaves_arrival + opt_delay[static_cast<std::size_t>(oi)];
          cand.area_flow = leaves_flow + opt_area[static_cast<std::size_t>(oi)];
          const bool better =
              objective == Objective::kDelay
                  ? (cand.arrival < bc.arrival - 1e-9 ||
                     (cand.arrival < bc.arrival + 1e-9 && cand.area_flow < bc.area_flow))
                  : (cand.area_flow < bc.area_flow - 1e-9 ||
                     (cand.area_flow < bc.area_flow + 1e-9 && cand.arrival < bc.arrival));
          if (better) bc = cand;
        }
      }
      VPGA_ASSERT_MSG(bc.cut >= 0, "no match covers a 2-input cut; target incomplete");
      best[n] = bc;
      arrival[n] = bc.arrival;
      flow_share[n] = bc.area_flow / std::max(1, fanout[n]);
    }
  };

  // Cover extraction from the outputs.
  std::vector<std::uint32_t> stack;  // reused across rounds
  stack.reserve(g.num_nodes());
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
    obs::count("map.dp_rounds");
    run_dp();
    extract_cover();
    if (round + 1 == kRounds) break;
    // Refine fanouts from the actual cover.
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

MapResult emit(const Subject& subject, const Cover& cover, const MapTarget& target) {
  const aig::AigMapping& m = subject.mapping();
  const aig::Aig& g = m.aig;
  const CutDatabase& cuts = subject.cuts();
  const netlist::Netlist& src = subject.source();
  const std::vector<Cover::Choice>& best = cover.choice;
  VPGA_ASSERT(best.size() == g.num_nodes() && cover.needed.size() == g.num_nodes());

  MapResult result;
  netlist::Netlist& out = result.netlist;
  out = netlist::Netlist(src.name());
  std::vector<netlist::NodeId> emitted(g.num_nodes());
  std::vector<netlist::NodeId> dff_nodes;
  dff_nodes.reserve(g.num_inputs() - m.num_pis);
  for (std::size_t i = 0; i < g.num_inputs(); ++i) {
    if (i < m.num_pis) {
      emitted[g.inputs()[i]] = out.add_input(src.name_of(src.inputs()[i]));
    } else {
      const auto& ff_name = src.name_of(src.dffs()[i - m.num_pis]);
      const auto ff = out.add_dff(netlist::NodeId{}, ff_name);
      emitted[g.inputs()[i]] = ff;
      dff_nodes.push_back(ff);
    }
  }

  auto emit_node = [&](std::uint32_t n) {
    const Cover::Choice& ch = best[n];
    const Cut& c = cuts.cuts(n)[static_cast<std::size_t>(ch.cut)];
    const MatchOption& opt = target.options[static_cast<std::size_t>(ch.option)];
    std::array<netlist::NodeId, 3> fanins;
    for (int li = 0; li < c.size; ++li) {
      const auto leaf = c.leaves[static_cast<std::size_t>(li)];
      VPGA_ASSERT(emitted[leaf].valid());
      fanins[static_cast<std::size_t>(li)] = emitted[leaf];
    }
    const auto mask = (std::uint64_t{1} << (1 << c.size)) - 1;
    const auto id = out.add_comb(logic::TruthTable(c.size, c.tt & mask),
                                 std::span<const netlist::NodeId>(fanins.data(), c.size));
    out.node(id).cell = opt.cell;
    out.node(id).config_tag = opt.config_tag;
    out.node(id).witness = aig::lit(n, false);
    result.stats.area_um2 += opt.area_um2;
    ++result.stats.nodes;
    emitted[n] = id;
  };
  for (std::uint32_t n = 1; n < g.num_nodes(); ++n)
    if (cover.needed[n]) emit_node(n);

  // Polarity repair and boundary wiring.
  netlist::NodeId const0, const1;
  auto constant = [&](bool v) {
    netlist::NodeId& slot = v ? const1 : const0;
    if (!slot.valid()) slot = out.add_constant(v);
    return slot;
  };
  auto resolve = [&](Lit l) {
    if (aig::node_of(l) == 0) return constant(aig::is_complemented(l));
    const netlist::NodeId base = emitted[aig::node_of(l)];
    VPGA_ASSERT(base.valid());
    if (!aig::is_complemented(l)) return base;
    const auto inv = out.add_comb(logic::TruthTable(1, 0b01), {base});
    out.node(inv).cell = target.inverter.cell;
    out.node(inv).config_tag = target.inverter.config_tag;
    result.stats.area_um2 += target.inverter.area_um2;
    ++result.stats.nodes;
    return inv;
  };
  for (std::size_t j = 0; j < g.outputs().size(); ++j) {
    const auto driver = resolve(g.outputs()[j]);
    if (j < m.num_pos) {
      out.add_output(driver, src.name_of(src.outputs()[j]));
    } else {
      out.set_dff_input(dff_nodes[j - m.num_pos], driver);
    }
  }

  // Stats: arrival estimate and mapped depth.
  double worst = 0.0;
  for (Lit o : g.outputs())
    if (g.node(aig::node_of(o)).is_and)
      worst = std::max(worst, best[aig::node_of(o)].arrival);
  result.stats.est_delay_ps = worst;
  {
    std::vector<int> level(out.num_nodes(), 0);
    int depth = 0;
    for (netlist::NodeId id : out.topo_order()) {
      const auto& n = out.node(id);
      if (n.type != netlist::NodeType::kComb) continue;
      int l = 0;
      for (netlist::NodeId fi : out.fanins(id))
        if (out.node(fi).type == netlist::NodeType::kComb)
          l = std::max(l, level[fi.index()]);
      level[id.index()] = l + 1;
      depth = std::max(depth, l + 1);
    }
    result.stats.depth = depth;
  }
  obs::count("map.nodes_emitted", result.stats.nodes);
  return result;
}

MapResult tech_map(const Subject& subject, const MapTarget& target, Objective objective) {
  const obs::Span map_span("map.tech_map");
  return emit(subject, cover(subject, target, objective), target);
}

MapResult tech_map(const netlist::Netlist& src, const MapTarget& target, Objective objective) {
  return tech_map(Subject(src), target, objective);
}

}  // namespace vpga::synth

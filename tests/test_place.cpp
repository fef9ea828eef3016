// Tests for the ASIC-style placer.

#include "place/placement.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>

#include "common/rng.hpp"
#include "compact/compact.hpp"
#include "core/plb.hpp"
#include "designs/designs.hpp"
#include "obs/obs.hpp"
#include "synth/buffering.hpp"
#include "synth/mapper.hpp"
#include "timing/sta.hpp"

namespace vpga::place {
namespace {

netlist::Netlist compacted_adder(int bits) {
  const auto src = designs::make_ripple_adder(bits);
  const auto mapped = synth::tech_map(src, synth::cell_target(core::PlbArchitecture::granular()),
                                      synth::Objective::kDelay);
  return compact::compact(mapped.netlist, core::PlbArchitecture::granular()).netlist;
}

TEST(Place, AllNodesInsideDie) {
  const auto nl = compacted_adder(16);
  const auto p = place(nl);
  EXPECT_GT(p.width_um, 0.0);
  for (netlist::NodeId id : nl.all_nodes()) {
    const auto& pt = p.pos[id.index()];
    EXPECT_GE(pt.x, -1e-9);
    EXPECT_LE(pt.x, p.width_um + 1e-9);
    EXPECT_GE(pt.y, -1e-9);
    EXPECT_LE(pt.y, p.height_um + 1e-9);
  }
}

TEST(Place, DeterministicForSameSeed) {
  const auto nl = compacted_adder(12);
  const auto p1 = place(nl);
  const auto p2 = place(nl);
  for (std::size_t i = 0; i < p1.pos.size(); ++i) {
    EXPECT_DOUBLE_EQ(p1.pos[i].x, p2.pos[i].x);
    EXPECT_DOUBLE_EQ(p1.pos[i].y, p2.pos[i].y);
  }
}

TEST(Place, SeedChangesResult) {
  const auto nl = compacted_adder(12);
  PlacerOptions a, b;
  a.seed = 1;
  b.seed = 99;
  const auto p1 = place(nl, a);
  const auto p2 = place(nl, b);
  int moved = 0;
  for (std::size_t i = 0; i < p1.pos.size(); ++i)
    if (p1.pos[i].x != p2.pos[i].x || p1.pos[i].y != p2.pos[i].y) ++moved;
  EXPECT_GT(moved, 0);
}

TEST(Place, RefinementImprovesOverNaive) {
  // A netlist whose creation order carries no locality (random 2-input
  // network): the initial serpentine is poor and refinement must win big.
  netlist::Netlist nl("scrambled");
  common::Rng rng(17);
  std::vector<netlist::NodeId> pool;
  for (int i = 0; i < 24; ++i) pool.push_back(nl.add_input("i" + std::to_string(i)));
  for (int i = 0; i < 400; ++i) {
    const auto a = pool[rng.next_below(pool.size())];
    const auto b = pool[rng.next_below(pool.size())];
    pool.push_back(nl.add_xor(a, b));
  }
  for (int i = 0; i < 16; ++i)
    nl.add_output(pool[pool.size() - 1 - static_cast<std::size_t>(i)],
                  "o" + std::to_string(i));
  // Give nodes mapped identities so the placer can size the die.
  for (netlist::NodeId id : nl.all_nodes())
    if (nl.node(id).type == netlist::NodeType::kComb)
      nl.node(id).cell = library::CellKind::kMux2;
  PlacerOptions naive;
  naive.median_sweeps = 0;
  naive.sa_moves_per_node = 0;
  const auto p0 = place(nl, naive);
  const auto p1 = place(nl);
  EXPECT_LT(total_hpwl(nl, p1), total_hpwl(nl, p0));
}

TEST(Place, NoTwoCellsShareASlot) {
  const auto nl = compacted_adder(16);
  const auto p = place(nl);
  std::vector<std::pair<double, double>> seen;
  for (netlist::NodeId id : nl.all_nodes()) {
    const auto& n = nl.node(id);
    if (n.type != netlist::NodeType::kComb && n.type != netlist::NodeType::kDff) continue;
    for (const auto& s : seen) {
      EXPECT_FALSE(s.first == p.pos[id.index()].x && s.second == p.pos[id.index()].y)
          << "overlap at " << s.first << "," << s.second;
    }
    seen.emplace_back(p.pos[id.index()].x, p.pos[id.index()].y);
  }
}

TEST(Place, DieAreaMatchesUtilization) {
  const auto nl = compacted_adder(16);
  const double a85 = asic_die_area(nl, 0.85);
  const double a50 = asic_die_area(nl, 0.50);
  EXPECT_NEAR(a50 / a85, 0.85 / 0.50, 1e-9);
  EXPECT_GT(a85, compact::gate_area(nl) - 1e-9);
}

TEST(Place, HpwlIsPositiveAndFinite) {
  const auto nl = compacted_adder(8);
  const auto p = place(nl);
  const double h = total_hpwl(nl, p);
  EXPECT_GT(h, 0.0);
  EXPECT_LT(h, 1e9);
}

TEST(Place, CriticalityWeightingShiftsResult) {
  const auto nl = compacted_adder(16);
  PlacerOptions base;
  const auto p1 = place(nl, base);
  PlacerOptions crit = base;
  crit.criticality.assign(nl.num_nodes(), 0.0);
  for (std::size_t i = 0; i < nl.num_nodes(); i += 3) crit.criticality[i] = 1.0;
  const auto p2 = place(nl, crit);
  int moved = 0;
  for (std::size_t i = 0; i < p1.pos.size(); ++i)
    if (p1.pos[i].x != p2.pos[i].x || p1.pos[i].y != p2.pos[i].y) ++moved;
  EXPECT_GT(moved, 0);
}

// ---------------------------------------------------------------------------
// The single-call placer that Placer replaced, kept verbatim as the
// reference: every Placer::anneal result must equal it bit for bit.

using netlist::Netlist;
using netlist::NodeId;
using netlist::NodeType;

bool is_placeable(const Netlist& nl, NodeId id) {
  const auto t = nl.node(id).type;
  return t == NodeType::kComb || t == NodeType::kDff;
}

/// Adjacency: for each node, its connected partners (fanins + fanouts),
/// restricted to placeable/boundary nodes.
std::vector<std::vector<std::uint32_t>> adjacency(const Netlist& nl) {
  std::vector<std::vector<std::uint32_t>> adj(nl.num_nodes());
  for (NodeId id : nl.all_nodes()) {
    for (NodeId fi : nl.fanins(id)) {
      if (!fi.valid()) continue;
      adj[id.index()].push_back(fi.value());
      adj[fi.index()].push_back(id.value());
    }
  }
  return adj;
}

Placement reference_place(const Netlist& nl, const PlacerOptions& opts,
                          const library::CellLibrary& lib = library::CellLibrary::standard()) {
  Placement p;
  p.pos.resize(nl.num_nodes());
  const double die_area = asic_die_area(nl, opts.utilization, lib);
  const double side = std::max(1.0, std::sqrt(die_area));
  p.width_um = side;
  p.height_um = side;

  // Collect placeable nodes in creation order (generators construct buses in
  // spatial order, so this seeds good locality).
  std::vector<NodeId> cells;
  cells.reserve(nl.num_nodes());
  for (NodeId id : nl.all_nodes())
    if (is_placeable(nl, id)) cells.push_back(id);

  // Initial placement: boustrophedon row fill.
  const std::size_t ncells = std::max<std::size_t>(1, cells.size());
  const int cols = std::max(1, static_cast<int>(std::ceil(std::sqrt(static_cast<double>(ncells)))));
  const double pitch_x = side / cols;
  const int rows = static_cast<int>(std::ceil(static_cast<double>(ncells) / cols));
  const double pitch_y = side / std::max(1, rows);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const int r = static_cast<int>(i) / cols;
    int c = static_cast<int>(i) % cols;
    if (r % 2) c = cols - 1 - c;  // serpentine
    p.pos[cells[i].index()] = {(c + 0.5) * pitch_x, (r + 0.5) * pitch_y};
  }

  // Pin I/O on the periphery (inputs left edge, outputs right edge).
  const auto place_boundary = [&](const std::vector<NodeId>& ids, double x) {
    for (std::size_t i = 0; i < ids.size(); ++i)
      p.pos[ids[i].index()] = {x, side * (i + 0.5) / std::max<std::size_t>(1, ids.size())};
  };
  place_boundary(nl.inputs(), 0.0);
  place_boundary(nl.outputs(), side);

  const auto adj = adjacency(nl);

  // Force-directed median sweeps: each cell moves to the mean of its
  // neighbors, then a per-row spreading pass removes pile-ups.
  std::optional<obs::Span> sweep_span(std::in_place, "place.median_sweeps");
  std::vector<NodeId> order;  // per-sweep sort scratch, hoisted
  for (int sweep = 0; sweep < opts.median_sweeps; ++sweep) {
    obs::count("place.median_sweeps");
    for (NodeId id : cells) {
      const auto& nbrs = adj[id.index()];
      if (nbrs.empty()) continue;
      double sx = 0.0, sy = 0.0;
      for (auto v : nbrs) {
        sx += p.pos[v].x;
        sy += p.pos[v].y;
      }
      p.pos[id.index()] = {sx / static_cast<double>(nbrs.size()),
                           sy / static_cast<double>(nbrs.size())};
    }
    // Spreading: sort by y into rows, then by x within a row, and re-grid.
    order.assign(cells.begin(), cells.end());
    std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
      return p.pos[a.index()].y < p.pos[b.index()].y;
    });
    for (int r = 0; r < rows; ++r) {
      const auto lo = static_cast<std::size_t>(r) * static_cast<std::size_t>(cols);
      const auto hi = std::min(order.size(), lo + static_cast<std::size_t>(cols));
      if (lo >= hi) break;
      std::sort(order.begin() + static_cast<long>(lo), order.begin() + static_cast<long>(hi),
                [&](NodeId a, NodeId b) { return p.pos[a.index()].x < p.pos[b.index()].x; });
      for (std::size_t i = lo; i < hi; ++i)
        p.pos[order[i].index()] = {(static_cast<double>(i - lo) + 0.5) * pitch_x,
                                   (r + 0.5) * pitch_y};
    }
  }

  sweep_span.reset();
  const obs::Span anneal_span("place.anneal");

  // Simulated-annealing refinement on a slot grid with a shrinking move
  // window (VPR-style). Cells sit on grid slots; a move swaps a random cell
  // with the occupant of a slot within the window (or moves it to an empty
  // slot). Incremental cost uses the star model (sum of edge lengths), so a
  // move is O(degree of the two cells).
  // Rebuild the slot assignment from the final spreading pass.
  const int total_slots = rows * cols;
  std::vector<std::int32_t> node_of_slot(static_cast<std::size_t>(total_slots), -1);
  std::vector<int> slot_of_node(nl.num_nodes(), -1);
  {
    std::vector<NodeId> order = cells;
    std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
      const auto& pa = p.pos[a.index()];
      const auto& pb = p.pos[b.index()];
      return pa.y != pb.y ? pa.y < pb.y : pa.x < pb.x;
    });
    for (std::size_t i = 0; i < order.size(); ++i) {
      node_of_slot[i] = static_cast<std::int32_t>(order[i].value());
      slot_of_node[order[i].index()] = static_cast<int>(i);
      const int r = static_cast<int>(i) / cols, c = static_cast<int>(i) % cols;
      p.pos[order[i].index()] = {(c + 0.5) * pitch_x, (r + 0.5) * pitch_y};
    }
  }
  auto slot_center = [&](int slot) {
    return Point{(slot % cols + 0.5) * pitch_x, (slot / cols + 0.5) * pitch_y};
  };
  auto node_weight = [&](std::uint32_t v) {
    if (opts.criticality.empty()) return 1.0;
    return 1.0 + 3.0 * opts.criticality[v];
  };
  auto star_cost = [&](std::uint32_t v) {
    double c = 0.0;
    const auto& pp = p.pos[v];
    for (auto u : adj[v])
      c += (std::abs(pp.x - p.pos[u].x) + std::abs(pp.y - p.pos[u].y)) *
           std::max(node_weight(v), node_weight(u));
    return c;
  };
  common::Rng rng(opts.seed);
  const std::size_t moves = cells.size() * static_cast<std::size_t>(opts.sa_moves_per_node);
  double temperature = pitch_x * 1.5;
  const double cooling = moves > 0 ? std::pow(0.02, 1.0 / static_cast<double>(moves)) : 1.0;
  double window = std::max(rows, cols) / 2.0;
  const double window_cooling =
      moves > 0 ? std::pow(1.5 / std::max(1.5, window), 1.0 / static_cast<double>(moves)) : 1.0;
  long long sa_attempted = 0, sa_accepted = 0;  // counted once after the loop
  for (std::size_t mv = 0; mv < moves; ++mv, temperature *= cooling, window *= window_cooling) {
    ++sa_attempted;
    const std::uint32_t a = cells[rng.next_below(cells.size())].value();
    const int sa_slot = slot_of_node[a];
    const int w = std::max(1, static_cast<int>(window));
    const int r0 = sa_slot / cols, c0 = sa_slot % cols;
    const int r1 = std::clamp(r0 + static_cast<int>(rng.next_in(-w, w)), 0, rows - 1);
    const int c1 = std::clamp(c0 + static_cast<int>(rng.next_in(-w, w)), 0, cols - 1);
    const int target = r1 * cols + c1;
    if (target == sa_slot || target >= total_slots) continue;
    const std::int32_t b = node_of_slot[static_cast<std::size_t>(target)];
    const double before = star_cost(a) + (b >= 0 ? star_cost(static_cast<std::uint32_t>(b)) : 0.0);
    const Point pa = p.pos[a];
    p.pos[a] = slot_center(target);
    if (b >= 0) p.pos[static_cast<std::uint32_t>(b)] = pa;
    const double after = star_cost(a) + (b >= 0 ? star_cost(static_cast<std::uint32_t>(b)) : 0.0);
    const double delta = after - before;
    if (delta <= 0.0 || rng.next_double() < std::exp(-delta / std::max(1e-9, temperature))) {
      // accept: commit slot bookkeeping
      ++sa_accepted;
      node_of_slot[static_cast<std::size_t>(sa_slot)] = b;
      node_of_slot[static_cast<std::size_t>(target)] = static_cast<std::int32_t>(a);
      slot_of_node[a] = target;
      if (b >= 0) slot_of_node[static_cast<std::size_t>(b)] = sa_slot;
    } else {
      p.pos[a] = pa;
      if (b >= 0) p.pos[static_cast<std::uint32_t>(b)] = slot_center(target);
    }
  }
  obs::count("place.sa_moves", sa_attempted);
  obs::count("place.sa_accepted", sa_accepted);
  return p;
}

/// True iff both placements hold the same bits in every coordinate.
bool same_bits(const Placement& a, const Placement& b) {
  return a.width_um == b.width_um && a.height_um == b.height_um &&
         a.pos.size() == b.pos.size() &&
         std::memcmp(a.pos.data(), b.pos.data(), a.pos.size() * sizeof(Point)) == 0;
}

// One Placer annealed for every criticality of the flow (none, then a seeded
// random vector, then the STA's on the first placement) equals the old
// single-call placer run afresh per criticality, and so does place().
TEST(Place, PlacerMatchesReferencePlace) {
  for (const auto& design : designs::paper_suite(0.15)) {
    for (const auto& arch :
         {core::PlbArchitecture::granular(), core::PlbArchitecture::lut_based()}) {
      const auto mapped = synth::tech_map(design.netlist, synth::cell_target(arch),
                                          synth::Objective::kDelay);
      auto nl = compact::compact(mapped.netlist, arch).netlist;
      synth::insert_buffers(nl, 8);
      // Without a median sweep the slot grid comes from sorting the
      // serpentine seed; after one, it is the last spreading pass's order.
      for (const std::uint64_t seed : {1u, 7u}) for (const int sweeps : {0, 1, 7}) {
        const std::string label = nl.name() + "/" + arch.name + "/seed " + std::to_string(seed) +
                                  "/sweeps " + std::to_string(sweeps);
        PlacerOptions opts;
        opts.seed = seed;
        opts.median_sweeps = sweeps;
        const Placer placer(nl, opts);
        const Placement first = placer.anneal({});
        ASSERT_TRUE(same_bits(first, reference_place(nl, opts))) << label;
        ASSERT_TRUE(same_bits(first, place(nl, opts))) << label;

        std::vector<double> random(nl.num_nodes());
        common::Rng rng(seed);
        for (double& c : random) c = rng.next_double();
        timing::StaOptions sta;
        sta.clock_period_ps = design.clock_period_ps;
        for (const auto& crit : {random, timing::analyze(nl, first, sta).criticality}) {
          PlacerOptions weighted = opts;
          weighted.criticality = crit;
          const Placement annealed = placer.anneal(crit);
          EXPECT_TRUE(same_bits(annealed, reference_place(nl, weighted))) << label;
          EXPECT_TRUE(same_bits(annealed, place(nl, weighted))) << label;
          EXPECT_FALSE(same_bits(annealed, first)) << label;
        }
      }
    }
  }
}

TEST(Place, EarlyMetropolisRejectionKeepsEveryVerdict) {
  // The annealer rejects an uphill move without std::exp when its cubic
  // bound already rules it out. Over random (u, x) pairs with x in
  // [0, 900], dense near 0 where the bound is tight, and over pairs on each
  // side of u = exp(-x), it may only ever reject what u < exp(-x) rejects,
  // and it must skip the call on most of the random pairs.
  common::Rng rng(0x3E7A);
  long long skipped = 0;
  constexpr long long kPairs = 20'000'000;
  for (long long i = 0; i < kPairs; ++i) {
    const double v = rng.next_double();
    const double x = 900.0 * v * v * v;
    const double u = rng.next_double();
    if (!metropolis_rejects_early(u, x)) continue;
    ++skipped;
    ASSERT_FALSE(u < std::exp(-x)) << "u " << u << ", x " << x;
  }
  EXPECT_GT(skipped, kPairs / 2);
  for (int i = 0; i < 100'000; ++i) {
    const double x = 30.0 * rng.next_double();
    const double e = std::exp(-x);
    for (const double u : {std::nextafter(e, 0.0), e, std::nextafter(e, 1.0)}) {
      EXPECT_FALSE(metropolis_rejects_early(u, x) && u < e) << "u " << u << ", x " << x;
    }
  }
  EXPECT_FALSE(metropolis_rejects_early(0.0, 0.0));
  EXPECT_FALSE(metropolis_rejects_early(0.999999, 0.0));
}

}  // namespace
}  // namespace vpga::place

// Tests for the global router and the static timing analyzer.

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <limits>
#include <queue>
#include <random>
#include <thread>
#include <vector>

#include "compact/compact.hpp"
#include "designs/designs.hpp"
#include "flow/flow.hpp"
#include "obs/obs.hpp"
#include "place/placement.hpp"
#include "route/maze.hpp"
#include "route/router.hpp"
#include "synth/mapper.hpp"
#include "timing/sta.hpp"

namespace vpga {
namespace {

using core::PlbArchitecture;

struct Prepared {
  netlist::Netlist nl;
  place::Placement placed;
};

Prepared prepare(const netlist::Netlist& src) {
  const auto arch = PlbArchitecture::granular();
  const auto mapped =
      synth::tech_map(src, synth::cell_target(arch), synth::Objective::kDelay);
  auto comp = compact::compact(mapped.netlist, arch);
  Prepared p{std::move(comp.netlist), {}};
  p.placed = place::place(p.nl);
  return p;
}

TEST(Route, WirelengthAtLeastHpwl) {
  const auto p = prepare(designs::make_ripple_adder(16));
  const auto r = route::route(p.nl, p.placed, 8.0);
  // Rectilinear MST length >= HPWL on a per-net basis (grid-quantized, so
  // allow slack of one tile per connection).
  EXPECT_GT(r.total_wirelength_um, 0.0);
  EXPECT_GE(r.grid_w, 2);
  EXPECT_GE(r.grid_h, 2);
}

TEST(Route, NetLengthsConsistentWithTotal) {
  const auto p = prepare(designs::make_ripple_adder(12));
  const auto r = route::route(p.nl, p.placed, 8.0);
  double sum = 0.0;
  for (double l : r.net_length_um) sum += l;
  EXPECT_NEAR(sum, r.total_wirelength_um, 1e-6);
}

TEST(Route, CongestionNegotiationReducesOverflow) {
  const auto p = prepare(designs::make_alu(8).netlist);
  route::RouterOptions tight;
  tight.capacity_per_edge = 2;
  tight.ripup_iterations = 0;
  const auto r0 = route::route(p.nl, p.placed, 8.0, tight);
  tight.ripup_iterations = 3;
  const auto r1 = route::route(p.nl, p.placed, 8.0, tight);
  // Negotiation + maze detours trade hotspots for mild spread: the peak must
  // drop (or hold) even if more edges sit slightly over a tiny capacity.
  EXPECT_LE(r1.peak_congestion, r0.peak_congestion + 1e-9);
  EXPECT_LT(r1.peak_congestion, r0.peak_congestion);
  EXPECT_LE(r1.overflow_edges, 2 * r0.overflow_edges + 2);
  // Detours lengthen wires, but boundedly.
  EXPECT_GE(r1.total_wirelength_um, r0.total_wirelength_um);
  EXPECT_LE(r1.total_wirelength_um, 2.0 * r0.total_wirelength_um);
}

TEST(Route, DeterministicAndFinite) {
  const auto p = prepare(designs::make_counter(8));
  const auto r1 = route::route(p.nl, p.placed, 8.0);
  const auto r2 = route::route(p.nl, p.placed, 8.0);
  EXPECT_DOUBLE_EQ(r1.total_wirelength_um, r2.total_wirelength_um);
  EXPECT_GE(r1.peak_congestion, 0.0);
}

/// Routes with metrics on and reads the maze-repair counters of the call.
struct CountedRoute {
  route::RoutingResult result;
  long long maze_routes = 0;
  long long maze_expansions = 0;
};

CountedRoute route_counted(const Prepared& p, int capacity) {
  route::RouterOptions opts;
  opts.capacity_per_edge = capacity;
  obs::ObsContext ctx(/*trace=*/false, /*metrics=*/true);
  CountedRoute run;
  {
    const obs::ScopedObs bind(&ctx);
    run.result = route::route(p.nl, p.placed, 8.0, opts);
  }
  run.maze_routes = ctx.metrics().counter("route.maze_routes");
  run.maze_expansions = ctx.metrics().counter("route.maze_expansions");
  return run;
}

/// Routed length of every net in tiles (lengths are whole tiles of 8 um).
std::vector<int> tile_counts(const route::RoutingResult& r) {
  std::vector<int> tiles;
  tiles.reserve(r.net_length_um.size());
  for (double len : r.net_length_um) {
    tiles.push_back(static_cast<int>(len / 8.0));
    EXPECT_EQ(tiles.back() * 8.0, len);
  }
  return tiles;
}

std::uint64_t fnv1a(const std::vector<int>& values) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (int v : values) {
    hash ^= static_cast<std::uint32_t>(v);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// At these capacities most connections fall through orientation negotiation
// into maze repair, so the search decides the routes. The routes were
// recorded from a router whose repair ran reference_maze_route (below) in
// each connection's search box instead of MazeSearch, and the settled-node
// counts from MazeSearch itself: the settled set does not depend on the
// queue's pop order.
TEST(Route, MazeRepairResultsPinned) {
  {
    const auto p = prepare(designs::make_alu(8).netlist);
    const auto run = route_counted(p, 2);
    EXPECT_EQ(run.maze_routes, 443);
    EXPECT_EQ(run.result.total_wirelength_um, 7400.0);
    EXPECT_EQ(run.result.overflow_edges, 137);
    EXPECT_EQ(run.result.peak_congestion, 5.0);
    constexpr int kTiles[] = {
        12, 5, 2, 1, 4, 5, 0, 0, 5, 5, 6, 1, 2, 3, 2, 1, 5, 9, 9, 7, 8, 12, 13, 13, 12, 14, 8, 14,
        16, 12, 8, 7, 6, 8, 2, 22, 11, 5, 4, 1, 1, 1, 2, 2, 1, 2, 0, 1, 4, 7, 1, 5, 2, 6, 0, 17, 9,
        20, 1, 9, 1, 1, 6, 1, 4, 2, 1, 8, 3, 1, 2, 0, 2, 0, 2, 3, 2, 3, 1, 3, 1, 3, 1, 4, 1, 2, 3,
        1, 0, 3, 11, 2, 0, 2, 1, 3, 1, 2, 1, 1, 0, 2, 4, 2, 4, 2, 3, 3, 2, 3, 2, 3, 3, 3, 4, 5, 1,
        2, 2, 1, 4, 2, 9, 1, 6, 3, 4, 8, 1, 1, 3, 2, 1, 5, 1, 11, 0, 7, 2, 2, 2, 5, 4, 2, 3, 0, 3,
        0, 4, 4, 2, 4, 0, 2, 3, 1, 7, 2, 2, 2, 1, 1, 3, 15, 0, 3, 1, 13, 1, 8, 2, 1, 2, 17, 1, 3,
        2, 2, 5, 4, 3, 3, 4, 3, 3, 17, 1, 3, 13, 2, 2, 9, 6, 2, 1, 2, 4, 3, 2, 2, 6, 1, 1, 6, 2, 1,
        15, 3, 2, 0, 2, 1, 0, 1, 3, 1, 2, 0, 5, 1, 1, 5, 3, 1, 2, 4, 3, 1, 0, 1, 3, 1, 1, 1, 2, 3,
        4, 1, 1, 1, 1, 9, 2, 0, 0, 4, 3, 2, 3, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    };
    EXPECT_EQ(tile_counts(run.result), std::vector<int>(std::begin(kTiles), std::end(kTiles)));
    EXPECT_EQ(run.maze_expansions, 2274);
    EXPECT_EQ(route_counted(p, 2).maze_expansions, run.maze_expansions);
  }
  {
    const auto p = prepare(designs::make_network_switch(4, 8).netlist);
    const auto run = route_counted(p, 4);
    EXPECT_EQ(run.maze_routes, 2661);
    EXPECT_EQ(run.result.total_wirelength_um, 67544.0);
    EXPECT_EQ(run.result.overflow_edges, 794);
    EXPECT_EQ(run.result.peak_congestion, 5.0);
    // 1544 nets: pinned by size, sum and an FNV-1a digest of the tile counts.
    const auto tiles = tile_counts(run.result);
    ASSERT_EQ(tiles.size(), 1544u);
    long long sum = 0;
    for (int t : tiles) sum += t;
    EXPECT_EQ(sum, 8443);
    EXPECT_EQ(fnv1a(tiles), 0xbbc2e75ce511ecc2ULL);
    EXPECT_EQ(run.maze_expansions, 42922);
    EXPECT_EQ(route_counted(p, 4).maze_expansions, run.maze_expansions);
  }
}

// The paper-scale runs that route legally must stay legal: the ALU's flow a
// and both of Firewire's flows, on both PLBs, end with no edge over
// capacity.
TEST(Route, CleanPaperRunsStayClean) {
  const auto alu = designs::make_alu(32);
  const auto firewire = designs::make_firewire();
  for (const auto& arch : {PlbArchitecture::granular(), PlbArchitecture::lut_based()}) {
    EXPECT_EQ(flow::run_flow(alu, arch, 'a').route_overflow_edges, 0) << "alu, " << arch.name;
    for (const char which : {'a', 'b'})
      EXPECT_EQ(flow::run_flow(firewire, arch, which).route_overflow_edges, 0)
          << "firewire, " << arch.name << ", flow " << which;
  }
}

// Each route() call owns its maze scratch: four concurrent calls on the
// pinned switch must each reproduce the serial result.
TEST(Route, ConcurrentMazeRepairMatchesSerial) {
  const auto p = prepare(designs::make_network_switch(4, 8).netlist);
  route::RouterOptions opts;
  opts.capacity_per_edge = 4;
  const auto serial = route::route(p.nl, p.placed, 8.0, opts);
  std::vector<route::RoutingResult> results(4);
  std::vector<std::thread> workers;
  workers.reserve(results.size());
  for (auto& r : results)
    workers.emplace_back([&r, &p, &opts] { r = route::route(p.nl, p.placed, 8.0, opts); });
  for (auto& t : workers) t.join();
  for (const auto& r : results) {
    EXPECT_EQ(r.total_wirelength_um, serial.total_wirelength_um);
    EXPECT_EQ(r.overflow_edges, serial.overflow_edges);
    EXPECT_EQ(r.peak_congestion, serial.peak_congestion);
    EXPECT_EQ(r.net_length_um, serial.net_length_um);
  }
}

// Each cut's least usage must track arbitrary updates, including the rise
// of its last least-used edge, which forces a rescan. The usage bound that
// sizes the maze search's ring is the most any edge has carried.
TEST(UsageGrid, CutMinimaFollowUpdates) {
  std::mt19937 rng(7);
  for (const auto& [w, h] :
       {std::pair{2, 2}, std::pair{2, 9}, std::pair{9, 2}, std::pair{13, 11}}) {
    route::UsageGrid g(w, h);
    int most = 0;
    for (int step = 0; step < 4000; ++step) {
      const int delta = std::uniform_int_distribution<int>(-2, 3)(rng);
      if (rng() % 2 == 0) {
        const int x = static_cast<int>(rng() % static_cast<unsigned>(w - 1));
        const int y = static_cast<int>(rng() % static_cast<unsigned>(h));
        const int now = g.add_h_edge(x, y, delta);
        EXPECT_EQ(now, g.h_edge(x, y));
        most = std::max(most, now);
      } else {
        const int x = static_cast<int>(rng() % static_cast<unsigned>(w));
        const int y = static_cast<int>(rng() % static_cast<unsigned>(h - 1));
        const int now = g.add_v_edge(x, y, delta);
        EXPECT_EQ(now, g.v_edge(x, y));
        most = std::max(most, now);
      }
      ASSERT_EQ(g.usage_bound(), most) << "step " << step;
      for (int x = 0; x + 1 < w; ++x) {
        int least = g.h_edge(x, 0);
        for (int y = 1; y < h; ++y) least = std::min(least, g.h_edge(x, y));
        ASSERT_EQ(g.col_cut_min(x), least) << "step " << step << " column cut " << x;
      }
      for (int y = 0; y + 1 < h; ++y) {
        int least = g.v_edge(0, y);
        for (int x = 1; x < w; ++x) least = std::min(least, g.v_edge(x, y));
        ASSERT_EQ(g.row_cut_min(y), least) << "step " << step << " row cut " << y;
      }
    }
  }
}

struct Conn {
  int x0, y0, x1, y1;
};

/// The router's usage grid and maze search before the search became an A*:
/// a Dijkstra that pops in (distance, node index) order and relaxes on a
/// strict `<`. Kept as the oracle for MazeSearch, except that it relaxes
/// only edges inside the search box and its walk-back also records the path,
/// sink first.
struct ReferenceGrid {
  int w, h;
  std::vector<int> horiz;  // (w-1) * h
  std::vector<int> vert;   // w * (h-1)

  ReferenceGrid(int w_, int h_)
      : w(w_), h(h_), horiz(static_cast<std::size_t>(std::max(0, w - 1)) * h, 0),
        vert(static_cast<std::size_t>(w) * std::max(0, h - 1), 0) {}

  int& h_edge(int x, int y) { return horiz[static_cast<std::size_t>(y) * (w - 1) + x]; }
  int& v_edge(int x, int y) { return vert[static_cast<std::size_t>(y) * w + x]; }
};

int reference_maze_route(ReferenceGrid& g, const Conn& c, const route::Box& box, int capacity,
                         std::vector<int>& path) {
  const int w = g.w, h = g.h;
  const auto idx = [&](int x, int y) { return y * w + x; };
  const int n = w * h;
  std::vector<double> dist(static_cast<std::size_t>(n),
                           std::numeric_limits<double>::infinity());
  std::vector<int> prev(static_cast<std::size_t>(n), -1);
  using Entry = std::pair<double, int>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  const int src = idx(c.x0, c.y0), dst = idx(c.x1, c.y1);
  dist[static_cast<std::size_t>(src)] = 0.0;
  heap.emplace(0.0, src);
  auto edge_cost = [&](int usage) {
    const int over = usage + 1 - capacity;
    return 1.0 + (over > 0 ? 4.0 * over * over : 0.0);
  };
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (v == dst) break;
    if (d > dist[static_cast<std::size_t>(v)]) continue;
    const int x = v % w, y = v / w;
    const int dx[4] = {1, -1, 0, 0}, dy[4] = {0, 0, 1, -1};
    for (int k = 0; k < 4; ++k) {
      const int nx = x + dx[k], ny = y + dy[k];
      if (nx < box.x0 || ny < box.y0 || nx > box.x1 || ny > box.y1) continue;
      const int usage = dx[k] != 0 ? g.h_edge(std::min(x, nx), y) : g.v_edge(x, std::min(y, ny));
      const double nd = d + edge_cost(usage);
      const int u = idx(nx, ny);
      if (nd < dist[static_cast<std::size_t>(u)]) {
        dist[static_cast<std::size_t>(u)] = nd;
        prev[static_cast<std::size_t>(u)] = v;
        heap.emplace(nd, u);
      }
    }
  }
  if (prev[static_cast<std::size_t>(dst)] < 0 && src != dst) return -1;
  // Walk back, applying usage.
  path.assign(1, dst);
  int edges = 0;
  for (int v = dst; v != src;) {
    const int p = prev[static_cast<std::size_t>(v)];
    const int x0 = p % w, y0 = p / w, x1 = v % w, y1 = v / w;
    if (y0 == y1) ++g.h_edge(std::min(x0, x1), y0);
    else ++g.v_edge(x0, std::min(y0, y1));
    ++edges;
    v = p;
    path.push_back(v);
  }
  return edges;
}

/// Search boxes of every maze case: the whole grid, then the connection's
/// bounding box widened by 0, 1 and 3 tiles (the router's margin) and
/// clipped to the grid.
constexpr int kWholeGrid = -1;
constexpr int kBoxMargins[] = {kWholeGrid, 0, 1, 3};

route::Box search_box(const Conn& c, int margin, int w, int h) {
  if (margin == kWholeGrid) return {0, 0, w - 1, h - 1};
  return {std::max(0, std::min(c.x0, c.x1) - margin), std::max(0, std::min(c.y0, c.y1) - margin),
          std::min(w - 1, std::max(c.x0, c.x1) + margin),
          std::min(h - 1, std::max(c.y0, c.y1) + margin)};
}

/// Seeded random usage grids from 2x2 to 65x65 with usages below, at and far
/// above capacity, each with twelve connections: the four corner-to-corner
/// ones, two with src == dst, two adjacent pairs and four random pairs.
/// Calls visit(fast, ref, capacity, conn, box, trial) once per connection
/// and search box of kBoxMargins, in that order, on two copies of the same
/// grid, and stops at the first fatal failure.
template <typename Visit>
void for_each_maze_case(Visit visit) {
  std::mt19937 rng(2004);
  const auto uniform = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  for (int trial = 0; trial < 48; ++trial) {
    const int w = trial == 0 ? 2 : trial == 1 ? 65 : uniform(2, 65);
    const int h = trial == 0 ? 2 : trial == 1 ? 65 : uniform(2, 65);
    const int capacity = std::vector<int>{1, 2, 4, 24}[static_cast<std::size_t>(uniform(0, 3))];
    // Regimes 0-2: every edge below, around or far above capacity; 3 mixes them.
    const int regime = trial % 4;
    const auto draw = [&] {
      switch (regime == 3 ? uniform(0, 2) : regime) {
        case 0: return uniform(0, capacity - 1);
        case 1: return uniform(capacity - 1, capacity + 1);
        default: return uniform(capacity, 40 * capacity + 40);
      }
    };
    route::UsageGrid fast(w, h);
    ReferenceGrid ref(w, h);
    for (int y = 0; y < h; ++y)
      for (int x = 0; x + 1 < w; ++x) ref.h_edge(x, y) = fast.add_h_edge(x, y, draw());
    for (int y = 0; y + 1 < h; ++y)
      for (int x = 0; x < w; ++x) ref.v_edge(x, y) = fast.add_v_edge(x, y, draw());

    std::vector<Conn> conns = {{0, 0, w - 1, h - 1}, {w - 1, h - 1, 0, 0},
                               {w - 1, 0, 0, h - 1}, {0, h - 1, w - 1, 0}};
    for (int k = 0; k < 2; ++k) {
      const int x = uniform(0, w - 1), y = uniform(0, h - 1);
      conns.push_back({x, y, x, y});
      // An adjacent pair, stepping inward from the edge when needed.
      if (uniform(0, 1) == 0) conns.push_back({x, y, x + 1 < w ? x + 1 : x - 1, y});
      else conns.push_back({x, y, x, y + 1 < h ? y + 1 : y - 1});
    }
    for (int k = 0; k < 4; ++k)
      conns.push_back({uniform(0, w - 1), uniform(0, h - 1), uniform(0, w - 1), uniform(0, h - 1)});
    for (const Conn& c : conns)
      for (const int margin : kBoxMargins) {
        visit(fast, ref, capacity, c, search_box(c, margin, w, h), trial);
        if (::testing::Test::HasFatalFailure()) return;  // the grids may differ now
      }
  }
}

// One MazeSearch serves every call, so its epoch-stamped scratch is reused
// across grids of different sizes and across search boxes; after each call
// the path and the whole usage grid must equal the reference's.
TEST(Maze, MatchesReferenceDijkstra) {
  route::MazeSearch search;
  int calls = 0;
  long long expansions = 0;
  for_each_maze_case([&](route::UsageGrid& fast, ReferenceGrid& ref, int capacity, const Conn& c,
                         const route::Box& box, int trial) {
    std::vector<int> ref_path;
    const int ref_edges = reference_maze_route(ref, c, box, capacity, ref_path);
    const int edges =
        search.route(fast, fast.node(c.x0, c.y0), fast.node(c.x1, c.y1), capacity, box);
    ASSERT_EQ(edges, ref_edges) << "trial " << trial;
    ASSERT_EQ(search.path(), ref_path)
        << "trial " << trial << " " << fast.w() << "x" << fast.h() << " capacity " << capacity
        << " box [" << box.x0 << ", " << box.x1 << "] x [" << box.y0 << ", " << box.y1 << "]";
    ASSERT_EQ(fast.horiz(), ref.horiz) << "trial " << trial;
    ASSERT_EQ(fast.vert(), ref.vert) << "trial " << trial;
    EXPECT_GT(search.expansions(), expansions);  // at least the source settles
    expansions = search.expansions();
    ++calls;
  });
  EXPECT_EQ(calls, 48 * 12 * 4);
}

// The search settles exactly {v in box : dist(v) + h(v) <= f*}, where
// f* = dist(sink): no more (it stops at the first key above f*) and no fewer
// (it does not stop when the sink pops). dist comes from a Dijkstra confined
// to the box and h from the whole grid's cut minima found by brute force.
TEST(Maze, SettlesExactlyTheNodesWithinFStar) {
  route::MazeSearch search;
  int calls = 0;
  for_each_maze_case([&](route::UsageGrid& fast, ReferenceGrid& ref, int capacity, const Conn& c,
                         const route::Box& box, int trial) {
    const int w = ref.w, h = ref.h;
    const auto cost = [capacity](int usage) -> std::int64_t {
      const std::int64_t over = usage + 1 - capacity;
      return over > 0 ? 1 + 4 * over * over : 1;
    };
    // Dijkstra from the source, confined to the box.
    constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();
    std::vector<std::int64_t> dist(static_cast<std::size_t>(w) * h, kInf);
    using Entry = std::pair<std::int64_t, int>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    dist[static_cast<std::size_t>(c.y0 * w + c.x0)] = 0;
    heap.emplace(0, c.y0 * w + c.x0);
    while (!heap.empty()) {
      const auto [d, v] = heap.top();
      heap.pop();
      if (d > dist[static_cast<std::size_t>(v)]) continue;
      const int x = v % w, y = v / w;
      const int dx[4] = {1, -1, 0, 0}, dy[4] = {0, 0, 1, -1};
      for (int k = 0; k < 4; ++k) {
        const int nx = x + dx[k], ny = y + dy[k];
        if (nx < box.x0 || ny < box.y0 || nx > box.x1 || ny > box.y1) continue;
        const int usage =
            dx[k] != 0 ? ref.h_edge(std::min(x, nx), y) : ref.v_edge(x, std::min(y, ny));
        const std::int64_t nd = d + cost(usage);
        if (nd < dist[static_cast<std::size_t>(ny * w + nx)]) {
          dist[static_cast<std::size_t>(ny * w + nx)] = nd;
          heap.emplace(nd, ny * w + nx);
        }
      }
    }
    // h(v): the cost of the least-used edge of every cut between v and the sink.
    std::vector<std::int64_t> col_cut(static_cast<std::size_t>(w - 1));
    std::vector<std::int64_t> row_cut(static_cast<std::size_t>(h - 1));
    for (int x = 0; x + 1 < w; ++x) {
      int least = ref.h_edge(x, 0);
      for (int y = 1; y < h; ++y) least = std::min(least, ref.h_edge(x, y));
      col_cut[static_cast<std::size_t>(x)] = cost(least);
    }
    for (int y = 0; y + 1 < h; ++y) {
      int least = ref.v_edge(0, y);
      for (int x = 1; x < w; ++x) least = std::min(least, ref.v_edge(x, y));
      row_cut[static_cast<std::size_t>(y)] = cost(least);
    }
    const std::int64_t f_star = dist[static_cast<std::size_t>(c.y1 * w + c.x1)];
    long long within = 0;
    for (int y = box.y0; y <= box.y1; ++y)
      for (int x = box.x0; x <= box.x1; ++x) {
        std::int64_t hv = 0;
        for (int k = std::min(x, c.x1); k < std::max(x, c.x1); ++k)
          hv += col_cut[static_cast<std::size_t>(k)];
        for (int k = std::min(y, c.y1); k < std::max(y, c.y1); ++k)
          hv += row_cut[static_cast<std::size_t>(k)];
        within += dist[static_cast<std::size_t>(y * w + x)] + hv <= f_star ? 1 : 0;
      }

    const long long before = search.expansions();
    search.route(fast, fast.node(c.x0, c.y0), fast.node(c.x1, c.y1), capacity, box);
    ASSERT_EQ(search.expansions() - before, within)
        << "trial " << trial << " " << w << "x" << h << " capacity " << capacity << " box ["
        << box.x0 << ", " << box.x1 << "] x [" << box.y0 << ", " << box.y1 << "]";
    std::vector<int> ref_path;
    reference_maze_route(ref, c, box, capacity, ref_path);  // keeps both grids equal
    ++calls;
  });
  EXPECT_EQ(calls, 48 * 12 * 4);
}

TEST(Sta, CombinationalDelayPositive) {
  const auto p = prepare(designs::make_ripple_adder(8));
  timing::StaOptions o;
  o.clock_period_ps = 10000;
  const auto t = timing::analyze(p.nl, p.placed, o);
  EXPECT_GT(t.critical_delay_ps, 0.0);
  EXPECT_LE(t.critical_delay_ps, o.clock_period_ps - t.wns_ps + 1e-6);
}

TEST(Sta, SlackDecreasesWithClockPeriod) {
  const auto p = prepare(designs::make_ripple_adder(8));
  timing::StaOptions o1, o2;
  o1.clock_period_ps = 10000;
  o2.clock_period_ps = 5000;
  const auto t1 = timing::analyze(p.nl, p.placed, o1);
  const auto t2 = timing::analyze(p.nl, p.placed, o2);
  EXPECT_NEAR(t1.wns_ps - t2.wns_ps, 5000.0, 1e-6);
  EXPECT_NEAR(t1.avg_slack_top10_ps - t2.avg_slack_top10_ps, 5000.0, 1e-6);
}

TEST(Sta, TopEndpointsSortedWorstFirst) {
  const auto p = prepare(designs::make_alu(8).netlist);
  timing::StaOptions o;
  o.clock_period_ps = 4000;
  const auto t = timing::analyze(p.nl, p.placed, o);
  ASSERT_FALSE(t.top_endpoints.empty());
  for (std::size_t i = 1; i < t.top_endpoints.size(); ++i)
    EXPECT_GE(t.top_endpoints[i].slack_ps, t.top_endpoints[i - 1].slack_ps);
  EXPECT_LE(t.top_endpoints.size(), 10u);
  EXPECT_DOUBLE_EQ(t.top_endpoints.front().slack_ps, t.wns_ps);
}

TEST(Sta, WireParasiticsSlowThingsDown) {
  const auto p = prepare(designs::make_ripple_adder(16));
  timing::StaOptions o;
  o.clock_period_ps = 10000;
  place::Placement zero = p.placed;
  for (auto& pt : zero.pos) pt = {0.0, 0.0};
  const auto ideal = timing::analyze(p.nl, zero, o);
  const auto real = timing::analyze(p.nl, p.placed, o);
  EXPECT_GT(real.critical_delay_ps, ideal.critical_delay_ps);
}

TEST(Sta, RoutedLengthsOverrideHpwl) {
  const auto p = prepare(designs::make_ripple_adder(16));
  const auto r = route::route(p.nl, p.placed, 8.0);
  timing::StaOptions o;
  o.clock_period_ps = 10000;
  o.net_length_um = r.net_length_um;
  const auto t = timing::analyze(p.nl, p.placed, o);
  EXPECT_GT(t.critical_delay_ps, 0.0);
}

TEST(Sta, CriticalityInUnitRange) {
  const auto p = prepare(designs::make_alu(8).netlist);
  timing::StaOptions o;
  o.clock_period_ps = 4000;
  const auto t = timing::analyze(p.nl, p.placed, o);
  ASSERT_EQ(t.criticality.size(), p.nl.num_nodes());
  double max_crit = 0.0;
  for (double c : t.criticality) {
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
    max_crit = std::max(max_crit, c);
  }
  EXPECT_GT(max_crit, 0.0);
}

TEST(Sta, SequentialPathsTimed) {
  // A counter's critical path is FF -> increment -> FF.
  const auto p = prepare(designs::make_counter(16));
  timing::StaOptions o;
  o.clock_period_ps = 5000;
  const auto t = timing::analyze(p.nl, p.placed, o);
  EXPECT_GT(t.critical_delay_ps, 0.0);
  bool endpoint_is_dff = false;
  for (const auto& e : t.top_endpoints)
    if (p.nl.node(e.endpoint).type == netlist::NodeType::kDff) endpoint_is_dff = true;
  EXPECT_TRUE(endpoint_is_dff);
}

TEST(Sta, LutArchSlowerThanGranular) {
  // Same design, same flow stage: the LUT-based implementation must show a
  // longer critical path (the paper's Table 2 direction).
  const auto src = designs::make_ripple_adder(16);
  auto run = [&](const PlbArchitecture& arch) {
    const auto mapped =
        synth::tech_map(src, synth::cell_target(arch), synth::Objective::kDelay);
    auto comp = compact::compact(mapped.netlist, arch);
    const auto placed = place::place(comp.netlist);
    timing::StaOptions o;
    o.clock_period_ps = 10000;
    return timing::analyze(comp.netlist, placed, o).critical_delay_ps;
  };
  EXPECT_LT(run(PlbArchitecture::granular()), run(PlbArchitecture::lut_based()));
}

}  // namespace
}  // namespace vpga

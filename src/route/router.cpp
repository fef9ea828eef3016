#include "route/router.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>

#include "common/assert.hpp"
#include "obs/obs.hpp"
#include "route/maze.hpp"

namespace vpga::route {
namespace {

using netlist::Netlist;
using netlist::NodeId;

struct TwoPin {
  std::uint32_t driver;
  int x0, y0, x1, y1;
};

/// Tiles by which a maze repair may stray beyond its connection's bounding
/// box: VPR's default `bb_factor` (Betz and Rose, FPL 1997).
constexpr int kMazeBoxMargin = 3;

/// The search box of a maze repair: the connection's bounding box widened
/// by kMazeBoxMargin and clipped to the w×h grid.
Box search_box(const TwoPin& c, int w, int h) {
  return Box{std::max(0, std::min(c.x0, c.x1) - kMazeBoxMargin),
             std::max(0, std::min(c.y0, c.y1) - kMazeBoxMargin),
             std::min(w - 1, std::max(c.x0, c.x1) + kMazeBoxMargin),
             std::min(h - 1, std::max(c.y0, c.y1) + kMazeBoxMargin)};
}

/// Applies an L-route (x-first or y-first) to the usage grid; returns the
/// maximum edge usage seen (for orientation choice) without double-walking.
int walk_l(UsageGrid& g, const TwoPin& c, bool x_first, int delta) {
  int peak = 0;
  auto seg_h = [&](int xa, int xb, int y) {
    for (int x = std::min(xa, xb); x < std::max(xa, xb); ++x)
      peak = std::max(peak, g.add_h_edge(x, y, delta));
  };
  auto seg_v = [&](int ya, int yb, int x) {
    for (int y = std::min(ya, yb); y < std::max(ya, yb); ++y)
      peak = std::max(peak, g.add_v_edge(x, y, delta));
  };
  if (x_first) {
    seg_h(c.x0, c.x1, c.y0);
    seg_v(c.y0, c.y1, c.x1);
  } else {
    seg_v(c.y0, c.y1, c.x0);
    seg_h(c.x0, c.x1, c.y1);
  }
  return peak;
}

/// Probes the max usage an L-route would see (delta = 0 walk).
int probe_l(const UsageGrid& g, const TwoPin& c, bool x_first) {
  int peak = 0;
  auto seg_h = [&](int xa, int xb, int y) {
    for (int x = std::min(xa, xb); x < std::max(xa, xb); ++x)
      peak = std::max(peak, g.h_edge(x, y));
  };
  auto seg_v = [&](int ya, int yb, int x) {
    for (int y = std::min(ya, yb); y < std::max(ya, yb); ++y)
      peak = std::max(peak, g.v_edge(x, y));
  };
  if (x_first) {
    seg_h(c.x0, c.x1, c.y0);
    seg_v(c.y0, c.y1, c.x1);
  } else {
    seg_v(c.y0, c.y1, c.x0);
    seg_h(c.x0, c.x1, c.y1);
  }
  return peak;
}

}  // namespace

RoutingResult route(const Netlist& nl, const place::Placement& placed, double tile_um,
                    const RouterOptions& opts) {
  RoutingResult r;
  VPGA_ASSERT(tile_um > 0.0);
  r.tile_um = tile_um;
  r.grid_w = std::max(2, static_cast<int>(std::ceil(placed.width_um / tile_um)) + 1);
  r.grid_h = std::max(2, static_cast<int>(std::ceil(placed.height_um / tile_um)) + 1);
  r.net_length_um.assign(nl.num_nodes(), 0.0);

  auto gx = [&](double x) { return std::clamp(static_cast<int>(x / tile_um), 0, r.grid_w - 1); };
  auto gy = [&](double y) { return std::clamp(static_cast<int>(y / tile_um), 0, r.grid_h - 1); };

  // Net decomposition: minimum spanning tree over {driver, sinks} (Prim,
  // Manhattan metric) — close to a Steiner topology for the small post-
  // buffering fanouts and far shorter than a star for multi-sink nets.
  std::optional<obs::Span> decompose_span(std::in_place, "route.decompose");
  // Each driver's sinks in CSR form: net v is sink_pool[sink_begin[v] ..
  // sink_begin[v + 1]), filled in ascending sink order.
  const std::size_t num_nodes = nl.num_nodes();
  std::vector<std::uint32_t> sink_begin(num_nodes + 1, 0);
  for (NodeId id : nl.all_nodes())
    for (NodeId fi : nl.fanins(id))
      if (fi.valid()) ++sink_begin[fi.index() + 1];
  for (std::size_t v = 0; v < num_nodes; ++v) sink_begin[v + 1] += sink_begin[v];
  std::vector<std::uint32_t> sink_pool(sink_begin[num_nodes]);
  {
    std::vector<std::uint32_t> fill(sink_begin.begin(), sink_begin.end() - 1);
    for (NodeId id : nl.all_nodes())
      for (NodeId fi : nl.fanins(id))
        if (fi.valid()) sink_pool[fill[fi.index()]++] = id.value();
  }
  auto sinks_of = [&](std::size_t v) {
    return std::span<const std::uint32_t>(sink_pool.data() + sink_begin[v],
                                          sink_begin[v + 1] - sink_begin[v]);
  };
  std::vector<TwoPin> pins;
  pins.reserve(sink_pool.size());  // one two-pin connection per MST edge
  // Per-net Prim scratch, hoisted out of the net loop and sized for the
  // largest terminal set up front.
  std::size_t max_terms = 0;
  long long nets = 0;
  for (std::size_t v = 0; v < num_nodes; ++v) {
    max_terms = std::max(max_terms, sinks_of(v).size() + 1);
    nets += sinks_of(v).empty() ? 0 : 1;
  }
  std::vector<std::pair<int, int>> pts;
  pts.reserve(max_terms);
  std::vector<char> in_tree;
  std::vector<int> best_dist, best_from;
  for (NodeId id : nl.all_nodes()) {
    const auto net = sinks_of(id.index());
    if (net.empty()) continue;
    // Terminal grid coordinates: driver first.
    pts.clear();
    pts.emplace_back(gx(placed.pos[id.index()].x), gy(placed.pos[id.index()].y));
    for (auto s : net) pts.emplace_back(gx(placed.pos[s].x), gy(placed.pos[s].y));
    // Prim's MST from the driver.
    in_tree.assign(pts.size(), 0);
    best_dist.assign(pts.size(), 1 << 29);
    best_from.assign(pts.size(), 0);
    in_tree[0] = 1;
    for (std::size_t k = 0; k < pts.size(); ++k) {
      if (!in_tree[k]) {
        best_dist[k] = std::abs(pts[k].first - pts[0].first) +
                       std::abs(pts[k].second - pts[0].second);
      }
    }
    for (std::size_t added = 1; added < pts.size(); ++added) {
      std::size_t pick = 0;
      int pick_dist = 1 << 30;
      for (std::size_t k = 1; k < pts.size(); ++k)
        if (!in_tree[k] && best_dist[k] < pick_dist) {
          pick = k;
          pick_dist = best_dist[k];
        }
      in_tree[pick] = 1;
      TwoPin c;
      c.driver = id.value();
      c.x0 = pts[static_cast<std::size_t>(best_from[pick])].first;
      c.y0 = pts[static_cast<std::size_t>(best_from[pick])].second;
      c.x1 = pts[pick].first;
      c.y1 = pts[pick].second;
      pins.push_back(c);
      for (std::size_t k = 1; k < pts.size(); ++k) {
        if (in_tree[k]) continue;
        const int d = std::abs(pts[k].first - pts[pick].first) +
                      std::abs(pts[k].second - pts[pick].second);
        if (d < best_dist[k]) {
          best_dist[k] = d;
          best_from[k] = static_cast<int>(pick);
        }
      }
    }
  }
  // Longer connections first: they have the least flexibility.
  std::sort(pins.begin(), pins.end(), [](const TwoPin& a, const TwoPin& b) {
    return std::abs(a.x1 - a.x0) + std::abs(a.y1 - a.y0) >
           std::abs(b.x1 - b.x0) + std::abs(b.y1 - b.y0);
  });
  decompose_span.reset();
  obs::count("route.nets", nets);
  obs::count("route.connections", static_cast<long long>(pins.size()));

  UsageGrid grid(r.grid_w, r.grid_h);
  std::vector<char> x_first(pins.size(), 1);
  {
    const obs::Span initial_span("route.initial");
    for (std::size_t i = 0; i < pins.size(); ++i) {
      const int px = probe_l(grid, pins[i], true);
      const int py = probe_l(grid, pins[i], false);
      x_first[i] = px <= py ? 1 : 0;
      walk_l(grid, pins[i], x_first[i] != 0, +1);
    }
  }

  // Negotiation: rip up connections through overloaded edges and re-choose
  // the orientation under the updated congestion picture.
  {
    const obs::Span negotiate_span("route.negotiate");
    long long ripups = 0;  // counted once below
    for (int iter = 0; iter < opts.ripup_iterations; ++iter) {
      bool any = false;
      for (std::size_t i = 0; i < pins.size(); ++i) {
        const int current = probe_l(grid, pins[i], x_first[i] != 0);
        if (current <= opts.capacity_per_edge) continue;
        ++ripups;
        walk_l(grid, pins[i], x_first[i] != 0, -1);
        const int px = probe_l(grid, pins[i], true);
        const int py = probe_l(grid, pins[i], false);
        const char nf = px <= py ? 1 : 0;
        any = any || nf != x_first[i];
        x_first[i] = nf;
        walk_l(grid, pins[i], x_first[i] != 0, +1);
      }
      if (!any) break;
    }
    obs::count("route.ripups", ripups);
  }

  // Final repair: connections still riding overloaded edges abandon their
  // L-shape for a congestion-priced maze detour (maze.hpp) inside their
  // search box. The search's scratch is reused by every connection of this
  // call.
  std::vector<int> edges_of(pins.size());
  for (std::size_t i = 0; i < pins.size(); ++i)
    edges_of[i] = std::abs(pins[i].x1 - pins[i].x0) + std::abs(pins[i].y1 - pins[i].y0);
  if (opts.ripup_iterations > 0) {
    long long maze_routes = 0;
    long long maze_expansions = 0;
    {
      const obs::Span repair_span("route.maze_repair");
      MazeSearch maze;
      for (std::size_t i = 0; i < pins.size(); ++i) {
        if (probe_l(grid, pins[i], x_first[i] != 0) <= opts.capacity_per_edge) continue;
        walk_l(grid, pins[i], x_first[i] != 0, -1);
        ++maze_routes;
        edges_of[i] = maze.route(grid, grid.node(pins[i].x0, pins[i].y0),
                                 grid.node(pins[i].x1, pins[i].y1), opts.capacity_per_edge,
                                 search_box(pins[i], r.grid_w, r.grid_h));
      }
      maze_expansions = maze.expansions();
    }
    // Counted once, after the span: the metric registry's allocations are
    // bookkeeping, so the span's memory columns measure the repair alone.
    obs::count("route.maze_routes", maze_routes);
    obs::count("route.maze_expansions", maze_expansions);
  }

  // Statistics and per-net lengths.
  for (std::size_t i = 0; i < pins.size(); ++i) {
    const double len = edges_of[i] * tile_um;
    r.net_length_um[pins[i].driver] += len;
    r.total_wirelength_um += len;
  }
  int overflow = 0;
  int peak = 0;
  for (int u : grid.horiz()) {
    peak = std::max(peak, u);
    overflow += u > opts.capacity_per_edge ? 1 : 0;
  }
  for (int u : grid.vert()) {
    peak = std::max(peak, u);
    overflow += u > opts.capacity_per_edge ? 1 : 0;
  }
  r.overflow_edges = overflow;
  r.peak_congestion = static_cast<double>(peak) / std::max(1, opts.capacity_per_edge);
  obs::count("route.overflow_edges", overflow);
  obs::gauge("route.peak_congestion", r.peak_congestion);
  return r;
}

}  // namespace vpga::route

#pragma once
/// \file router.hpp
/// Global routing over the die grid — the ASIC-style custom routing that the
/// VPGA performs *on top of* the PLB array (upper metal layers), and the
/// conventional routing of the flow-a ASIC implementation.
///
/// Each net becomes 2-pin connections along a Prim minimum spanning tree of
/// its driver and sinks (Manhattan metric). Every connection is first routed
/// as the less congested L-shape; rip-up rounds then re-choose the
/// orientation of connections through overloaded edges. Connections that
/// still overflow are re-routed once by a congestion-priced A* maze search
/// (maze.hpp), which may detour within the connection's bounding box widened
/// by 3 tiles (VPR's default `bb_factor`).

#include <vector>

#include "netlist/netlist.hpp"
#include "place/placement.hpp"

namespace vpga::route {

struct RouterOptions {
  /// Routing tracks per grid-edge per direction (upper-metal abundance in a
  /// VPGA means this is rarely the limit; congestion still shapes paths).
  int capacity_per_edge = 24;
  /// Orientation rip-up rounds; 0 also skips maze repair.
  int ripup_iterations = 2;
};

struct RoutingResult {
  int grid_w = 0;
  int grid_h = 0;
  double tile_um = 0.0;
  double total_wirelength_um = 0.0;
  /// Routed length per net, indexed by driver node id (0 for netless nodes).
  std::vector<double> net_length_um;
  /// Edges whose usage exceeds capacity after negotiation.
  int overflow_edges = 0;
  /// Peak edge congestion (usage / capacity).
  double peak_congestion = 0.0;
};

/// Routes every net of the placed netlist on a grid of the given pitch.
RoutingResult route(const netlist::Netlist& nl, const place::Placement& placed,
                    double tile_um, const RouterOptions& opts = {});

}  // namespace vpga::route

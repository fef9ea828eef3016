#include "verify/stage.hpp"

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/vias.hpp"
#include "obs/obs.hpp"
#include "synth/mapper.hpp"

namespace vpga::verify {

using core::ConfigKind;
using core::PlbArchitecture;
using core::TileStateTable;
using library::CellKind;
using netlist::Netlist;
using netlist::Node;
using netlist::NodeId;
using netlist::NodeType;

namespace {

bool in_range(const Netlist& nl, NodeId id) {
  return id.valid() && id.index() < nl.num_nodes();
}

bool is_free_rider_cell(const Node& n) {
  return n.cell.has_value() && (*n.cell == CellKind::kInv || *n.cell == CellKind::kBuf);
}

}  // namespace

void check_post_map(const Netlist& nl, const PlbArchitecture& arch, const std::string& stage,
                    VerifyReport& report) {
  // The architecture's restricted component library, exactly as the mapper
  // sees it (plus the polarity/fanout repair cells).
  const auto target = synth::cell_target(arch);
  bool allowed[library::kNumCellKinds] = {};
  for (const auto& opt : target.options)
    if (opt.cell) allowed[static_cast<std::size_t>(*opt.cell)] = true;
  allowed[static_cast<std::size_t>(CellKind::kInv)] = true;
  allowed[static_cast<std::size_t>(CellKind::kBuf)] = true;

  const auto& lib = library::CellLibrary::standard();
  for (std::size_t i = 0; i < nl.num_nodes(); ++i) {
    const NodeId id{i};
    const Node& n = nl.node(id);
    if (n.type != NodeType::kComb) continue;
    if (!n.cell) {
      report.add(Severity::kError, "map.unmapped-node", stage, id,
                 "combinational node carries no library cell after mapping");
      continue;
    }
    if (!allowed[static_cast<std::size_t>(*n.cell)]) {
      report.add(Severity::kError, "map.illegal-cell", stage, id,
                 std::string("cell ") + library::to_string(*n.cell) +
                     " is not in the restricted library of " + arch.name);
      continue;
    }
    if (n.func.num_vars() > 3) {
      report.add(Severity::kError, "map.illegal-cell", stage, id,
                 "node has " + std::to_string(n.func.num_vars()) +
                     " inputs; no restricted cell has more than 3");
      continue;
    }
    // Exact coverage: the node's function must be realizable by the cell
    // under the via-programmable pin freedoms.
    if (n.func.num_vars() == n.num_fanins() &&
        !lib.spec(*n.cell).coverage.test(n.func.extend(3).bits() & 0xFF))
      report.add(Severity::kError, "map.cell-function-mismatch", stage, id,
                 std::string("function ") + n.func.to_string() +
                     " is outside the coverage set of " + library::to_string(*n.cell));
  }
}

void check_post_compact(const Netlist& nl, const PlbArchitecture& arch,
                        const std::string& stage, VerifyReport& report) {
  const TileStateTable table(arch);
  for (std::size_t i = 0; i < nl.num_nodes(); ++i) {
    const NodeId id{i};
    const Node& n = nl.node(id);

    if (n.in_macro()) {
      const NodeId rep = n.macro_rep;
      if (!in_range(nl, rep) || !nl.node(rep).in_macro() ||
          nl.node(rep).macro_rep != rep)
        report.add(Severity::kError, "compact.macro-rep", stage, id,
                   "macro grouping is broken: representative does not point at itself");
    }

    if (n.type != NodeType::kComb) continue;
    if (!n.has_config()) {
      if (!is_free_rider_cell(n))
        report.add(Severity::kError, "compact.missing-config", stage, id,
                   "comb node has neither a PLB configuration nor an INV/BUF cell");
      continue;
    }
    if (n.config_tag >= core::kNumConfigKinds) {
      report.add(Severity::kError, "compact.bad-config-tag", stage, id,
                 "config_tag " + std::to_string(n.config_tag) +
                     " does not name a ConfigKind");
      continue;
    }
    const auto kind = static_cast<ConfigKind>(n.config_tag);
    if (!arch.supports(kind)) {
      report.add(Severity::kError, "compact.unsupported-config", stage, id,
                 std::string("configuration ") + core::to_string(kind) +
                     " is not supported by " + arch.name);
      continue;
    }
    if (table.add(TileStateTable::kEmpty, kind) == TileStateTable::kReject)
      report.add(Severity::kError, "compact.config-overflow", stage, id,
                 std::string("configuration ") + core::to_string(kind) +
                     " exceeds one " + arch.name + " tile's component slots");
  }
}

void check_post_pack(const Netlist& nl, const pack::PackedDesign& packed,
                     const PlbArchitecture& arch, const std::string& stage,
                     VerifyReport& report) {
  if (packed.tile_of_node.size() != nl.num_nodes()) {
    report.add(Severity::kError, "pack.tile-bounds", stage, NodeId{},
               "tile assignment covers " + std::to_string(packed.tile_of_node.size()) +
                   " nodes but the netlist has " + std::to_string(nl.num_nodes()));
    return;
  }
  const int tiles = packed.grid_w * packed.grid_h;

  auto consumes_slots = [&](const Node& n) {
    return n.type == NodeType::kDff || (n.type == NodeType::kComb && n.has_config());
  };
  auto config_of = [](const Node& n) {
    return n.type == NodeType::kDff ? ConfigKind::kFf
                                    : static_cast<ConfigKind>(n.config_tag);
  };

  // Occupancy per tile (flat, indexed by tile id — every insertion below is
  // bounds-checked first), walked through the packer's tile-state table, with
  // each macro contributing its representative's combined configuration once
  // (the packer's atomic-unit semantics). A rejected tile stays rejected.
  struct Occupancy {
    TileStateTable::State state = TileStateTable::kEmpty;
    int configs = 0;
  };
  const TileStateTable table(arch);
  std::vector<Occupancy> occupancy(static_cast<std::size_t>(tiles));
  auto occupy = [&](int tile, ConfigKind k) {
    Occupancy& o = occupancy[static_cast<std::size_t>(tile)];
    ++o.configs;
    if (o.state != TileStateTable::kReject) o.state = table.add(o.state, k);
  };
  std::unordered_map<std::uint32_t, int> macro_tile;
  for (std::size_t i = 0; i < nl.num_nodes(); ++i) {
    const NodeId id{i};
    const Node& n = nl.node(id);
    const int tile = packed.tile_of_node[i];
    if (!consumes_slots(n)) {
      if (tile >= tiles)
        report.add(Severity::kError, "pack.tile-bounds", stage, id,
                   "tile " + std::to_string(tile) + " outside the " +
                       std::to_string(packed.grid_w) + "x" +
                       std::to_string(packed.grid_h) + " grid");
      continue;
    }
    if (n.config_tag != Node::kNoConfig && n.config_tag >= core::kNumConfigKinds)
      continue;  // reported by the post-compact rules; occupancy undefined
    if (tile < 0) {
      report.add(Severity::kError, "pack.unassigned", stage, id,
                 "slot-consuming node was never assigned a tile");
      continue;
    }
    if (tile >= tiles) {
      report.add(Severity::kError, "pack.tile-bounds", stage, id,
                 "tile " + std::to_string(tile) + " outside the " +
                     std::to_string(packed.grid_w) + "x" +
                     std::to_string(packed.grid_h) + " grid");
      continue;
    }
    if (n.in_macro() && in_range(nl, n.macro_rep)) {
      const auto [it, inserted] = macro_tile.emplace(n.macro_rep.value(), tile);
      if (!inserted) {
        if (it->second != tile)
          report.add(Severity::kError, "pack.macro-split", stage, id,
                     "macro member in tile " + std::to_string(tile) +
                         " but its representative group is in tile " +
                         std::to_string(it->second));
        continue;  // the group's configuration was already counted once
      }
      occupy(tile, config_of(nl.node(n.macro_rep)));
      continue;
    }
    occupy(tile, config_of(n));
  }

  for (int tile = 0; tile < tiles; ++tile) {
    const Occupancy& o = occupancy[static_cast<std::size_t>(tile)];
    if (o.state == TileStateTable::kReject)
      report.add(Severity::kError, "pack.capacity", stage, NodeId{},
                 "tile " + std::to_string(tile) + " holds " + std::to_string(o.configs) +
                     " configurations exceeding one " + arch.name + " tile");
  }
}

void check_post_route(const Netlist& nl, const pack::PackedDesign& packed,
                      const PlbArchitecture& arch, const std::string& stage,
                      VerifyReport& report) {
  if (packed.tile_of_node.size() != nl.num_nodes()) return;  // reported post-pack
  const int tiles = packed.grid_w * packed.grid_h;
  if (tiles <= 0) return;
  const int budget = core::potential_via_sites(arch);

  auto tile_of = [&](NodeId id) {
    const int t = packed.tile_of_node[id.index()];
    return t >= 0 && t < tiles ? t : -1;
  };

  // Configuration vias: each placed instance programs vias_for_config() sites
  // in its tile; a macro's combined configuration is programmed once, in the
  // representative's tile.
  std::vector<long long> usage(static_cast<std::size_t>(tiles), 0);
  for (NodeId id : nl.all_nodes()) {
    const Node& n = nl.node(id);
    if (n.in_macro() && n.macro_rep != id) continue;
    const int tile = tile_of(id);
    if (tile < 0) continue;
    if (n.type == NodeType::kDff)
      usage[static_cast<std::size_t>(tile)] += core::vias_for_config(ConfigKind::kFf);
    else if (n.type == NodeType::kComb && n.has_config() &&
             n.config_tag < core::kNumConfigKinds)
      usage[static_cast<std::size_t>(tile)] +=
          core::vias_for_config(static_cast<ConfigKind>(n.config_tag));
  }

  // Routing-tap vias, counted per *net*: a net leaving its driver's tile
  // taps up to the routing layers once at the driver, and taps back down
  // once in every tile where it terminates — in-tile fanout then distributes
  // on the tile's local interconnect without further via sites. (The
  // previous per-connection model charged a high-fanout driver one tap per
  // external sink, which overstated hot tiles by the net's external fanout
  // and tripped this gate on the network switch's distribution nets.)
  std::vector<std::uint64_t> taps;  // (driver index << 32) | sink tile
  taps.reserve(nl.num_nodes());
  for (NodeId id : nl.all_nodes()) {
    const int sink_tile = tile_of(id);
    if (sink_tile < 0) continue;
    for (NodeId fi : nl.fanins(id)) {
      if (!in_range(nl, fi)) continue;
      const int driver_tile = tile_of(fi);
      if (driver_tile < 0 || driver_tile == sink_tile) continue;
      taps.push_back(static_cast<std::uint64_t>(fi.index()) << 32 |
                     static_cast<std::uint32_t>(sink_tile));
    }
  }
  std::sort(taps.begin(), taps.end());
  taps.erase(std::unique(taps.begin(), taps.end()), taps.end());
  std::uint32_t last_driver = 0xFFFFFFFFu;
  for (const std::uint64_t tap : taps) {
    const auto driver = static_cast<std::uint32_t>(tap >> 32);
    const auto sink_tile = static_cast<std::uint32_t>(tap);
    ++usage[sink_tile];
    if (driver != last_driver) {
      last_driver = driver;
      ++usage[static_cast<std::size_t>(tile_of(NodeId(driver)))];
    }
  }

  long long overruns = 0;
  for (int tile = 0; tile < tiles; ++tile) {
    const long long used = usage[static_cast<std::size_t>(tile)];
    if (used <= budget) continue;
    ++overruns;
    report.add(Severity::kError, "route.via-budget", stage, NodeId{},
               "tile " + std::to_string(tile) + " needs " + std::to_string(used) +
                   " vias but one " + arch.name + " tile provides only " +
                   std::to_string(budget) + " candidate sites");
  }
  obs::count("verify.via_budget.overruns", overruns);
}

}  // namespace vpga::verify

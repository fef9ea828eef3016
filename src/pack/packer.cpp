#include "pack/packer.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>

#include "common/assert.hpp"
#include "obs/obs.hpp"

namespace vpga::pack {
namespace {

using core::ConfigKind;
using core::PlbArchitecture;
using core::TileStateTable;
using netlist::Netlist;
using netlist::NodeId;
using netlist::NodeType;

/// True for nodes that occupy PLB component slots.
bool consumes_slots(const Netlist& nl, NodeId id) {
  const auto& n = nl.node(id);
  if (n.type == NodeType::kDff) return true;
  return n.type == NodeType::kComb && n.has_config();
}

/// True for nodes that live in a tile but use no slots (PLB input buffers).
bool is_free_rider(const Netlist& nl, NodeId id) {
  const auto& n = nl.node(id);
  return n.type == NodeType::kComb && !n.has_config();
}

ConfigKind config_of(const Netlist& nl, NodeId id) {
  const auto& n = nl.node(id);
  if (n.type == NodeType::kDff) return ConfigKind::kFf;
  return static_cast<ConfigKind>(n.config_tag);
}

/// An atomic packing unit: a single configuration node, or a multi-output
/// macro (full adder) whose members must land in the same tile and share the
/// representative's one combined configuration.
struct Group {
  std::uint32_t rep = 0;
  std::vector<std::uint32_t> members;
  ConfigKind kind{};
  std::size_t footprint = 0;  ///< component slots `kind` occupies
};

/// Groups in node-id order of their first member. Aborts on a configuration
/// that no tile of `arch` can host: no array size would legalize it.
std::vector<Group> build_groups(const Netlist& nl, const PlbArchitecture& arch,
                                const TileStateTable& table) {
  std::vector<Group> groups;
  // Reps are node ids, so a dense index beats a hash map in the packer's
  // hottest entry path; one counting pass sizes `groups` exactly.
  constexpr std::size_t kNoGroup = ~std::size_t{0};
  std::vector<std::size_t> index_of_rep(nl.num_nodes(), kNoGroup);
  std::size_t consuming = 0;
  for (NodeId id : nl.all_nodes())
    if (consumes_slots(nl, id)) ++consuming;
  groups.reserve(consuming);
  for (NodeId id : nl.all_nodes()) {
    if (!consumes_slots(nl, id)) continue;
    const auto& n = nl.node(id);
    const std::uint32_t rep = n.in_macro() ? n.macro_rep.value() : id.value();
    std::size_t& slot = index_of_rep[rep];
    if (slot == kNoGroup) {
      slot = groups.size();
      groups.push_back(Group{rep, {}, config_of(nl, NodeId(rep)), 0});
    }
    groups[slot].members.push_back(id.value());
  }
  const auto& specs = core::config_specs();
  for (auto& g : groups) {
    VPGA_ASSERT_MSG(static_cast<int>(g.kind) < core::kNumConfigKinds &&
                        table.add(TileStateTable::kEmpty, g.kind) != TileStateTable::kReject,
                    (std::string("configuration ") + core::to_string(g.kind) +
                     " does not fit in an empty " + arch.name + " tile")
                        .c_str());
    g.footprint = specs[static_cast<std::size_t>(g.kind)].needs.size();
  }
  return groups;
}

/// First-fit bin packing of `groups` in order; returns the tile count. One
/// cursor per kind only moves forward: every tile below cursor[k] has
/// rejected k, and keeps rejecting it as it fills (monotone feasibility), so
/// the count equals probing every tile per group in O(groups + tiles x kinds).
int first_fit(const std::vector<Group>& groups, const TileStateTable& table) {
  std::vector<TileStateTable::State> tiles;
  tiles.reserve(groups.size());  // worst case: every group opens a tile
  std::array<std::size_t, core::kNumConfigKinds> cursor{};
  for (const Group& g : groups) {
    std::size_t& t = cursor[static_cast<std::size_t>(g.kind)];
    while (t < tiles.size() && table.add(tiles[t], g.kind) == TileStateTable::kReject) ++t;
    if (t == tiles.size()) tiles.push_back(TileStateTable::kEmpty);
    tiles[t] = table.add(tiles[t], g.kind);
  }
  return static_cast<int>(tiles.size());
}

/// Slot demand per component subset: d[S] counts the needs whose resource
/// class (ComponentClass, a bitmask over the kNumPlbComponents component
/// kinds) lies inside S, so d[all kinds] is the total demand. A flat array of
/// 2^kNumPlbComponents counters, trivially copyable.
using SubsetDemand = std::array<int, std::size_t{1} << core::kNumPlbComponents>;

/// One configuration's needs as subset demand: each need counts in every
/// subset that contains its class.
SubsetDemand subset_demand(const core::ConfigSpec& spec) {
  SubsetDemand d{};
  for (const unsigned cls : spec.needs)
    for (unsigned subset = cls; subset < d.size(); subset = (subset + 1) | cls) ++d[subset];
  return d;
}

/// Adds (`delta` = 1) or removes (-1) one configuration's subset demand.
void add_demand(SubsetDemand& d, const SubsetDemand& config, int delta) {
  for (std::size_t subset = 0; subset < d.size(); ++subset) d[subset] += delta * config[subset];
}

/// One tile's slots per component subset.
SubsetDemand subset_slots(const PlbArchitecture& arch) {
  SubsetDemand slots{};
  for (unsigned subset = 0; subset < slots.size(); ++subset)
    for (int c = 0; c < core::kNumPlbComponents; ++c)
      if (subset & (1u << c)) slots[subset] += arch.component_count[static_cast<std::size_t>(c)];
  return slots;
}

/// Hall-condition feasibility of a demand multiset against `tiles` copies of
/// the architecture's slots (necessary aggregate condition used to balance
/// quadrants; per-tile grouping is enforced later by the tile-state table):
/// every component subset's demand fits that subset's slots.
bool hall_feasible(const SubsetDemand& slots, int tiles, const SubsetDemand& demand) {
  for (unsigned subset = 0; subset < demand.size(); ++subset)
    if (demand[subset] > tiles * slots[subset]) return false;
  return true;
}

}  // namespace

int first_fit_tile_count(const Netlist& nl, const PlbArchitecture& arch) {
  const TileStateTable table(arch);
  return first_fit(build_groups(nl, arch, table), table);
}

PackedDesign pack(const Netlist& nl, const place::Placement& placed,
                  const PlbArchitecture& arch, const PackOptions& opts) {
  PackedDesign out;
  out.tile_size_um = std::sqrt(arch.tile_area_um2);
  out.legal = placed;
  out.tile_of_node.assign(nl.num_nodes(), -1);

  const TileStateTable table(arch);
  const auto& specs = core::config_specs();
  const auto groups = build_groups(nl, arch, table);
  obs::count("pack.groups", static_cast<long long>(groups.size()));
  const SubsetDemand slots = subset_slots(arch);
  std::array<SubsetDemand, core::kNumConfigKinds> kind_demand{};
  for (std::size_t k = 0; k < kind_demand.size(); ++k) kind_demand[k] = subset_demand(specs[k]);
  auto demand_of = [&](std::size_t gi) -> const SubsetDemand& {
    return kind_demand[static_cast<std::size_t>(groups[gi].kind)];
  };

  int first_fit_tiles = 0;
  {
    const obs::Span bound_span("pack.lower_bound");
    first_fit_tiles = std::max(1, first_fit(groups, table));
  }
  int target_tiles = std::max(
      1, static_cast<int>(std::ceil(static_cast<double>(first_fit_tiles) * opts.initial_margin)));

  // A group's criticality is its most critical member's; the spill and
  // relocation sorts compare these.
  std::vector<double> group_criticality(groups.size(), 0.0);
  if (!opts.criticality.empty())
    for (std::size_t gi = 0; gi < groups.size(); ++gi)
      for (auto v : groups[gi].members)
        group_criticality[gi] = std::max(group_criticality[gi], opts.criticality[v]);

  // Scratch reused across grow attempts: the grid dimensions change per
  // attempt but the heap capacity carries over.
  std::vector<TileStateTable::State> tiles;
  std::vector<int> tile_of;
  struct TileXY {
    int x, y;
  };
  std::vector<TileXY> placed_tile(groups.size());  // per group: its rep's tile
  for (;; target_tiles = std::max(target_tiles + 1,
                                  static_cast<int>(target_tiles * 1.06)),
          ++out.grow_attempts) {
    const obs::Span attempt_span("pack.attempt");
    const int gw = std::max(1, static_cast<int>(std::ceil(std::sqrt(target_tiles))));
    const int gh = (target_tiles + gw - 1) / gw;
    tiles.assign(static_cast<std::size_t>(gw) * gh, TileStateTable::kEmpty);
    tile_of.assign(nl.num_nodes(), -1);

    // Map placed coordinates onto the tile grid (group position = its rep's).
    const double sx = placed.width_um > 0 ? gw / placed.width_um : 1.0;
    const double sy = placed.height_um > 0 ? gh / placed.height_um : 1.0;
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
      const place::Point& at = placed.pos[groups[gi].rep];
      placed_tile[gi] = {std::clamp(static_cast<int>(at.x * sx), 0, gw - 1),
                         std::clamp(static_cast<int>(at.y * sy), 0, gh - 1)};
    }

    // --- recursive quadrisection: region assignment balancing supply/demand.
    // Each region is a tile rectangle plus the groups currently assigned to
    // it; when a quadrant's demand violates the Hall condition against its
    // slot supply, its least-critical groups spill to the sibling with slack.
    struct Region {
      int x0, y0, w, h;
      std::vector<std::size_t> items;  // indices into `groups`
    };
    std::vector<Region> leaves;
    auto quadrisect = [&](auto&& self, Region r) -> void {
      if (r.w <= 1 && r.h <= 1) {
        leaves.push_back(std::move(r));
        return;
      }
      const int wl = std::max(1, r.w / 2), hl = std::max(1, r.h / 2);
      Region quad[4];
      const int splits_x = r.w > 1 ? 2 : 1;
      const int splits_y = r.h > 1 ? 2 : 1;
      int nq = 0;
      for (int qy = 0; qy < splits_y; ++qy)
        for (int qx = 0; qx < splits_x; ++qx) {
          quad[nq].x0 = r.x0 + qx * wl;
          quad[nq].y0 = r.y0 + qy * hl;
          quad[nq].w = qx == splits_x - 1 ? r.w - qx * wl : wl;
          quad[nq].h = qy == splits_y - 1 ? r.h - qy * hl : hl;
          ++nq;
        }
      auto quadrant_of = [&](std::size_t gi) {
        const auto [tx, ty] = placed_tile[gi];
        for (int q = 0; q < nq; ++q)
          if (tx >= quad[q].x0 && tx < quad[q].x0 + quad[q].w && ty >= quad[q].y0 &&
              ty < quad[q].y0 + quad[q].h)
            return q;
        return 0;
      };
      SubsetDemand demand[4]{};
      for (auto gi : r.items) {
        const int q = quadrant_of(gi);
        quad[q].items.push_back(gi);
        add_demand(demand[q], demand_of(gi), 1);
      }
      // Rebalance: spill least-critical groups from infeasible quadrants.
      for (int q = 0; q < nq; ++q) {
        auto& src = quad[q];
        std::sort(src.items.begin(), src.items.end(), [&](std::size_t a, std::size_t b) {
          return group_criticality[a] > group_criticality[b];
        });
        while (!src.items.empty() &&
               !hall_feasible(slots, src.w * src.h, demand[q])) {
          const auto gi = src.items.back();
          src.items.pop_back();
          add_demand(demand[q], demand_of(gi), -1);
          // Receiver: the sibling with the most slack that stays feasible.
          int best = -1;
          int best_slack = -1;
          for (int q2 = 0; q2 < nq; ++q2) {
            if (q2 == q) continue;
            auto d2 = demand[q2];
            add_demand(d2, demand_of(gi), 1);
            const int tiles = quad[q2].w * quad[q2].h;
            if (!hall_feasible(slots, tiles, d2)) continue;
            const int slack = tiles * slots.back() - d2.back();
            if (slack > best_slack) {
              best_slack = slack;
              best = q2;
            }
          }
          if (best < 0) {  // parent region too tight: keep and let spiral fix
            src.items.push_back(gi);
            add_demand(demand[q], demand_of(gi), 1);
            break;
          }
          quad[best].items.push_back(gi);
          add_demand(demand[best], demand_of(gi), 1);
        }
      }
      for (int q = 0; q < nq; ++q) self(self, std::move(quad[q]));
    };
    Region root{0, 0, gw, gh, {}};
    root.items.resize(groups.size());
    for (std::size_t i = 0; i < groups.size(); ++i) root.items[i] = i;
    {
      const obs::Span quad_span("pack.quadrisect");
      quadrisect(quadrisect, std::move(root));
    }

    // --- leaf filling + spiral relocation for overflow -----------------------
    bool ok = true;
    auto try_place = [&](std::size_t gi, int tx, int ty) {
      auto& state = tiles[static_cast<std::size_t>(ty) * gw + tx];
      const auto next = table.add(state, groups[gi].kind);
      if (next == TileStateTable::kReject) return false;
      state = next;
      for (auto v : groups[gi].members) tile_of[v] = ty * gw + tx;
      return true;
    };
    // Two-phase fill, wide footprints first: a full-adder macro needs a
    // completely free tile, so all macros claim tiles (leaf position, then
    // nearest-available spiral) before single configurations trickle in —
    // otherwise stranded macros force array growth.
    //
    // The spiral visits rings of growing Chebyshev radius around the group's
    // placed tile, each ring's in-grid tiles in row-major order, until a
    // ring lies wholly outside the grid.
    auto spiral_place = [&](std::size_t gi) {
      const auto [cx, cy] = placed_tile[gi];
      const int last_radius = std::max({cx, gw - 1 - cx, cy, gh - 1 - cy});
      for (int radius = 0; radius <= last_radius; ++radius) {
        const int x_lo = std::max(0, cx - radius), x_hi = std::min(gw - 1, cx + radius);
        const int y_lo = std::max(0, cy - radius), y_hi = std::min(gh - 1, cy + radius);
        for (int ty = y_lo; ty <= y_hi; ++ty) {
          if (ty == cy - radius || ty == cy + radius) {  // top or bottom edge
            for (int tx = x_lo; tx <= x_hi; ++tx)
              if (try_place(gi, tx, ty)) return true;
          } else {  // the left and right ends of a middle row
            if (cx - radius >= 0 && try_place(gi, cx - radius, ty)) return true;
            if (cx + radius < gw && try_place(gi, cx + radius, ty)) return true;
          }
        }
      }
      return false;
    };
    constexpr std::size_t kBigFootprint = 3;  // >= XOANDMX / FA class
    {
      const obs::Span fill_span("pack.fill");
      std::vector<std::size_t> overflow;
      overflow.reserve(groups.size());  // worst case: nothing fits its leaf
      for (const bool big_phase : {true, false}) {
        overflow.clear();
        for (const auto& leaf : leaves)
          for (auto gi : leaf.items) {
            if ((groups[gi].footprint >= kBigFootprint) != big_phase) continue;
            if (!try_place(gi, leaf.x0, leaf.y0)) overflow.push_back(gi);
          }
        std::sort(overflow.begin(), overflow.end(), [&](std::size_t a, std::size_t b) {
          if (groups[a].footprint != groups[b].footprint)
            return groups[a].footprint > groups[b].footprint;
          return group_criticality[a] > group_criticality[b];
        });
        obs::count("pack.spiral_relocations", static_cast<long long>(overflow.size()));
        for (auto gi : overflow)
          if (!spiral_place(gi)) { ok = false; break; }
        if (!ok) break;
      }
    }
    if (!ok) continue;  // grow the array and retry

    // --- success: finalize ----------------------------------------------------
    out.grid_w = gw;
    out.grid_h = gh;
    out.tile_of_node = std::move(tile_of);
    out.die_area_um2 = static_cast<double>(gw) * gh * arch.tile_area_um2;
    // Legalized positions: tile centers; I/O scaled onto the new die.
    out.legal.width_um = gw * out.tile_size_um;
    out.legal.height_um = gh * out.tile_size_um;
    const double ix = placed.width_um > 0 ? out.legal.width_um / placed.width_um : 1.0;
    const double iy = placed.height_um > 0 ? out.legal.height_um / placed.height_um : 1.0;
    for (NodeId id : nl.all_nodes()) {
      out.legal.pos[id.index()] = {placed.pos[id.index()].x * ix,
                                   placed.pos[id.index()].y * iy};
    }
    double total_disp = 0.0, max_disp = 0.0;
    for (NodeId id : nl.all_nodes()) {
      const int t = out.tile_of_node[id.index()];
      if (t < 0) continue;
      const place::Point center = {(t % gw + 0.5) * out.tile_size_um,
                                   (t / gw + 0.5) * out.tile_size_um};
      const double dx = center.x - out.legal.pos[id.index()].x;
      const double dy = center.y - out.legal.pos[id.index()].y;
      const double d = std::sqrt(dx * dx + dy * dy);
      obs::observe("pack.displacement_um", d);
      total_disp += d;
      max_disp = std::max(max_disp, d);
      out.legal.pos[id.index()] = center;
    }
    out.total_displacement_um = total_disp;
    out.max_displacement_um = max_disp;
    // Free riders (input buffers/inverters) ride in their driver's tile when
    // possible, else stay put (they consume no slots).
    for (NodeId id : nl.all_nodes()) {
      if (!is_free_rider(nl, id)) continue;
      const auto& n = nl.node(id);
      if (n.num_fanins() > 0 && nl.fanin(id, 0).valid()) {
        const int t = out.tile_of_node[nl.fanin(id, 0).index()];
        if (t >= 0) {
          out.tile_of_node[id.index()] = t;
          out.legal.pos[id.index()] = {(t % gw + 0.5) * out.tile_size_um,
                                       (t / gw + 0.5) * out.tile_size_um};
        }
      }
    }
    int used = 0;
    std::array<int, core::kNumPlbComponents> slots_used{};
    for (const TileStateTable::State t : tiles) {
      if (t == TileStateTable::kEmpty) continue;
      ++used;
      const core::ConfigCounts& held = table.contents(t);
      for (std::size_t k = 0; k < held.size(); ++k)
        for (auto cls : specs[k].needs)
          for (int c = 0; c < core::kNumPlbComponents; ++c)
            if (core::class_accepts(cls, static_cast<core::PlbComponent>(c))) {
              // Attribution for the report only: count against the first
              // accepting component kind.
              slots_used[static_cast<std::size_t>(c)] += held[k];
              break;
            }
    }
    out.plbs_used = used;
    obs::count("pack.grow_attempts", out.grow_attempts);
    for (int c = 0; c < core::kNumPlbComponents; ++c) {
      const int cap = used * arch.component_count[static_cast<std::size_t>(c)];
      out.slot_utilization[static_cast<std::size_t>(c)] =
          cap > 0 ? static_cast<double>(slots_used[static_cast<std::size_t>(c)]) / cap : 0.0;
    }
    return out;
  }
}

}  // namespace vpga::pack

// Tests for the recursive-quadrisection packer/legalizer.

#include "pack/packer.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "compact/compact.hpp"
#include "designs/designs.hpp"
#include "synth/mapper.hpp"

namespace vpga::pack {
namespace {

using core::ConfigKind;
using core::PlbArchitecture;

struct Prepared {
  netlist::Netlist nl;
  place::Placement placed;
};

Prepared prepare(const netlist::Netlist& src, const PlbArchitecture& arch) {
  const auto mapped =
      synth::tech_map(src, synth::cell_target(arch), synth::Objective::kDelay);
  auto comp = compact::compact(mapped.netlist, arch);
  Prepared p{std::move(comp.netlist), {}};
  p.placed = place::place(p.nl);
  return p;
}

/// Re-derives tile contents and checks the resource model per tile.
void verify_legal(const Prepared& p, const PackedDesign& d, const PlbArchitecture& arch) {
  ASSERT_GT(d.grid_w, 0);
  ASSERT_GT(d.grid_h, 0);
  std::vector<std::vector<ConfigKind>> tiles(static_cast<std::size_t>(d.grid_w) * d.grid_h);
  for (netlist::NodeId id : p.nl.all_nodes()) {
    const auto& n = p.nl.node(id);
    const int t = d.tile_of_node[id.index()];
    const bool slots = (n.type == netlist::NodeType::kDff) ||
                       (n.type == netlist::NodeType::kComb && n.has_config());
    if (slots) {
      ASSERT_GE(t, 0) << "unplaced node " << id.index();
      ASSERT_LT(t, d.grid_w * d.grid_h);
      if (n.in_macro()) {
        // Macro members share one configuration instance, counted at the
        // representative; all members must share the tile.
        EXPECT_EQ(t, d.tile_of_node[n.macro_rep.index()]);
        if (n.macro_rep != id) continue;
      }
      tiles[static_cast<std::size_t>(t)].push_back(
          n.type == netlist::NodeType::kDff ? ConfigKind::kFf
                                            : static_cast<ConfigKind>(n.config_tag));
    }
  }
  for (const auto& contents : tiles)
    if (!contents.empty())
      EXPECT_TRUE(core::fits_in_one_plb(arch, contents));
}

TEST(Pack, AdderLegalizesOnGranular) {
  const auto arch = PlbArchitecture::granular();
  const auto p = prepare(designs::make_ripple_adder(16), arch);
  const auto d = pack(p.nl, p.placed, arch);
  verify_legal(p, d, arch);
  EXPECT_GT(d.plbs_used, 0);
  EXPECT_GT(d.die_area_um2, 0.0);
}

TEST(Pack, AdderLegalizesOnLut) {
  const auto arch = PlbArchitecture::lut_based();
  const auto p = prepare(designs::make_ripple_adder(16), arch);
  const auto d = pack(p.nl, p.placed, arch);
  verify_legal(p, d, arch);
}

TEST(Pack, SequentialDesignLegalizes) {
  const auto arch = PlbArchitecture::granular();
  const auto p = prepare(designs::make_firewire(4, 8).netlist, arch);
  const auto d = pack(p.nl, p.placed, arch);
  verify_legal(p, d, arch);
  // At most one DFF per granular tile: tile count >= DFF count.
  EXPECT_GE(d.plbs_used, static_cast<int>(p.nl.dffs().size()));
}

TEST(Pack, FirstFitBoundRespectsResources) {
  const auto arch = PlbArchitecture::granular();
  const auto p = prepare(designs::make_ripple_adder(8), arch);
  const int tiles = first_fit_tile_count(p.nl, arch);
  int dffs = static_cast<int>(p.nl.dffs().size());
  EXPECT_GE(tiles, dffs);
  const auto d = pack(p.nl, p.placed, arch);
  EXPECT_GE(d.grid_w * d.grid_h, tiles);
}

TEST(Pack, DisplacementTrackedAndBounded) {
  const auto arch = PlbArchitecture::granular();
  const auto p = prepare(designs::make_alu(8).netlist, arch);
  const auto d = pack(p.nl, p.placed, arch);
  EXPECT_GE(d.total_displacement_um, 0.0);
  EXPECT_GE(d.max_displacement_um, 0.0);
  const double diag = std::hypot(d.grid_w * d.tile_size_um, d.grid_h * d.tile_size_um);
  EXPECT_LE(d.max_displacement_um, diag);
}

TEST(Pack, CriticalityChangesAssignment) {
  const auto arch = PlbArchitecture::granular();
  const auto p = prepare(designs::make_alu(8).netlist, arch);
  PackOptions o1;
  const auto d1 = pack(p.nl, p.placed, arch, o1);
  PackOptions o2;
  o2.criticality.assign(p.nl.num_nodes(), 0.0);
  for (std::size_t i = 0; i < p.nl.num_nodes(); i += 2) o2.criticality[i] = 1.0;
  const auto d2 = pack(p.nl, p.placed, arch, o2);
  int diff = 0;
  for (std::size_t i = 0; i < p.nl.num_nodes(); ++i)
    if (d1.tile_of_node[i] != d2.tile_of_node[i]) ++diff;
  EXPECT_GT(diff, 0);
}

TEST(Pack, GranularPacksDenserThanLutOnDatapath) {
  // The core Table-1 mechanism: mux/xor-rich datapath packs ~3 configs per
  // granular tile but ~1 LUT per LUT-based tile.
  const auto src = designs::make_ripple_adder(32);
  const auto gran_arch = PlbArchitecture::granular();
  const auto lut_arch = PlbArchitecture::lut_based();
  const auto pg = prepare(src, gran_arch);
  const auto pl = prepare(src, lut_arch);
  const auto dg = pack(pg.nl, pg.placed, gran_arch);
  const auto dl = pack(pl.nl, pl.placed, lut_arch);
  EXPECT_LT(dg.die_area_um2, dl.die_area_um2);
}

TEST(Pack, FreeRidersGetTileOfDriver) {
  const auto arch = PlbArchitecture::granular();
  const auto p = prepare(designs::make_ripple_adder(8), arch);
  const auto d = pack(p.nl, p.placed, arch);
  for (netlist::NodeId id : p.nl.all_nodes()) {
    const auto& n = p.nl.node(id);
    if (n.type != netlist::NodeType::kComb || n.has_config()) continue;
    if (n.num_fanins() == 0 || !p.nl.fanin(id, 0).valid()) continue;
    const int driver_tile = d.tile_of_node[p.nl.fanin(id, 0).index()];
    if (driver_tile >= 0) EXPECT_EQ(d.tile_of_node[id.index()], driver_tile);
  }
}

TEST(Pack, SlotUtilizationReported) {
  const auto arch = PlbArchitecture::granular();
  const auto p = prepare(designs::make_ripple_adder(16), arch);
  const auto d = pack(p.nl, p.placed, arch);
  double total = 0.0;
  for (double u : d.slot_utilization) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0 + 1e-9);
    total += u;
  }
  EXPECT_GT(total, 0.0);
}

/// Reference first-fit count: groups in node-id order of their first member,
/// each probing every open tile with fits_in_one_plb, O(groups x tiles).
int reference_first_fit(const netlist::Netlist& nl, const PlbArchitecture& arch) {
  std::vector<ConfigKind> group_kinds;
  std::vector<bool> seen(nl.num_nodes(), false);
  for (netlist::NodeId id : nl.all_nodes()) {
    const auto& n = nl.node(id);
    if (n.type != netlist::NodeType::kDff &&
        !(n.type == netlist::NodeType::kComb && n.has_config()))
      continue;
    const netlist::NodeId rep = n.in_macro() ? n.macro_rep : id;
    if (seen[rep.index()]) continue;
    seen[rep.index()] = true;
    const auto& r = nl.node(rep);
    group_kinds.push_back(r.type == netlist::NodeType::kDff
                              ? ConfigKind::kFf
                              : static_cast<ConfigKind>(r.config_tag));
  }
  std::vector<std::vector<ConfigKind>> tiles;
  for (ConfigKind k : group_kinds) {
    bool placed = false;
    for (auto& t : tiles) {
      t.push_back(k);
      if (core::fits_in_one_plb(arch, t)) {
        placed = true;
        break;
      }
      t.pop_back();
    }
    if (!placed) tiles.push_back({k});
  }
  return static_cast<int>(tiles.size());
}

TEST(Pack, FirstFitMatchesProbeLoopReference) {
  const std::vector<netlist::Netlist> sources = {
      designs::make_alu(8).netlist, designs::make_firewire(4, 8).netlist,
      designs::make_fpu(4, 6).netlist, designs::make_network_switch(4, 8).netlist};
  for (const auto& arch : {PlbArchitecture::granular(), PlbArchitecture::lut_based()}) {
    for (const auto& src : sources) {
      const auto mapped =
          synth::tech_map(src, synth::cell_target(arch), synth::Objective::kDelay);
      const auto nl = compact::compact(mapped.netlist, arch).netlist;
      const int tiles = first_fit_tile_count(nl, arch);
      EXPECT_GT(tiles, 0);
      EXPECT_EQ(tiles, reference_first_fit(nl, arch)) << arch.name;
    }
  }
}

TEST(PackDeathTest, UnhostableConfigurationAbortsLoudly) {
  // A LUT-mapped adder carries LUT3 configurations, which no granular tile
  // hosts: without the check pack() would grow the array forever.
  const auto p = prepare(designs::make_ripple_adder(2), PlbArchitecture::lut_based());
  const auto granular = PlbArchitecture::granular();
  EXPECT_DEATH((void)pack(p.nl, p.placed, granular),
               "configuration LUT3 does not fit in an empty granular_plb tile");
  EXPECT_DEATH((void)first_fit_tile_count(p.nl, granular),
               "configuration LUT3 does not fit in an empty granular_plb tile");
}

}  // namespace
}  // namespace vpga::pack

// Tests for the recursive-quadrisection packer/legalizer.

#include "pack/packer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "compact/compact.hpp"
#include "designs/designs.hpp"
#include "obs/obs.hpp"
#include "synth/mapper.hpp"
#include "timing/sta.hpp"

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

std::uint64_t fnv1a(const std::vector<int>& values) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (int v : values) {
    hash ^= static_cast<std::uint32_t>(v);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t bits_of(double d) {
  std::uint64_t b = 0;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

/// What a pack() call decides, down to the bits of its displacement sums.
struct PackOutcome {
  std::uint64_t tile_digest = 0;  ///< FNV-1a of tile_of_node
  int plbs_used = 0;
  int grow_attempts = 0;
  long long spiral_relocations = 0;
  std::uint64_t total_displacement_bits = 0;
  std::uint64_t max_displacement_bits = 0;
  bool operator==(const PackOutcome&) const = default;
};

std::ostream& operator<<(std::ostream& os, const PackOutcome& o) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "{0x%016llxULL, %d, %d, %lld, 0x%016llxULL, 0x%016llxULL}",
                static_cast<unsigned long long>(o.tile_digest), o.plbs_used, o.grow_attempts,
                o.spiral_relocations, static_cast<unsigned long long>(o.total_displacement_bits),
                static_cast<unsigned long long>(o.max_displacement_bits));
  return os << buf;
}

PackOutcome pack_outcome(const Prepared& p, const PlbArchitecture& arch, const PackOptions& o,
                         PackedDesign* packed = nullptr) {
  obs::ObsContext ctx(/*trace=*/false, /*metrics=*/true);
  PackedDesign d;
  {
    const obs::ScopedObs bind(&ctx);
    d = pack(p.nl, p.placed, arch, o);
  }
  PackOutcome out{fnv1a(d.tile_of_node),
                  d.plbs_used,
                  d.grow_attempts,
                  ctx.metrics().counter("pack.spiral_relocations"),
                  bits_of(d.total_displacement_um),
                  bits_of(d.max_displacement_um)};
  if (packed != nullptr) *packed = std::move(d);
  return out;
}

// Packing decisions of the quadrisection, the fill and the spiral, pinned
// per design x PLB, without criticality and then with the STA criticality
// of that first packing (flow b's pack <-> STA loop). The last case starts
// below the first-fit count, so a spiral fails and the array regrows.
TEST(Pack, PackResultsPinned) {
  const std::vector<designs::BenchmarkDesign> suite = {
      designs::make_alu(8), designs::make_firewire(4, 8), designs::make_fpu(4, 6),
      designs::make_network_switch(4, 8)};
  // {tile digest, plbs_used, grow_attempts, pack.spiral_relocations,
  //  total and max displacement bits}
  const PackOutcome kPinned[] = {
      // alu(8): granular, granular + STA criticality, LUT, LUT + STA criticality
      {0x1f6d145151619578ULL, 64, 0, 20, 0x40964acd1c9aa241ULL, 0x404322aef0b71a6eULL},
      {0xfb5b5267276dd883ULL, 64, 0, 20, 0x4096292c53fccf6bULL, 0x4041d1bc33227706ULL},
      {0xae08e6d8ced6e4adULL, 144, 0, 53, 0x40b034733b5f4da4ULL, 0x4055b1dcc76894cbULL},
      {0x36155f44cff4262bULL, 144, 0, 62, 0x40b286c2f60290b9ULL, 0x405a15eab4bf31caULL},
      // firewire(4, 8), in the same order
      {0x40716cc64e735e7dULL, 182, 0, 8, 0x40b3626be6814edbULL, 0x405adf22d7be7f44ULL},
      {0xd93421604cc7c598ULL, 182, 0, 11, 0x40acb987d3b4aa06ULL, 0x406176aacbdc737bULL},
      {0x0186be61666f262fULL, 182, 0, 51, 0x40b27e9b570dde26ULL, 0x4059231e8a222432ULL},
      {0x713b871f93b4a1faULL, 182, 0, 30, 0x40ac97cf0e0b60d3ULL, 0x40627e790c9a83acULL},
      // fpu(4, 6)
      {0x661d3ab9c43b0eefULL, 132, 0, 44, 0x40a62dca2aafa350ULL, 0x405330395e8f6243ULL},
      {0x8db8ffe1bf69de9dULL, 132, 0, 33, 0x40aa7e6188b54456ULL, 0x405d73fcdc2f0cfaULL},
      {0x8b328c899710fba3ULL, 196, 0, 65, 0x40b43e135de577d9ULL, 0x405d92610419c4e0ULL},
      {0xa8a176510525c08bULL, 196, 0, 68, 0x40b6213070330b60ULL, 0x405c88f5ec4b6affULL},
      // network_switch(4, 8)
      {0x3fbbb926026882edULL, 400, 0, 297, 0x40d4dc6b073f47f3ULL, 0x406bd496b5a38c4cULL},
      {0x071527d708c365daULL, 400, 0, 297, 0x40d4ab169e659e85ULL, 0x40677314990df879ULL},
      {0x5145b5b8e58056b5ULL, 650, 0, 533, 0x40e00bad3f2b63b0ULL, 0x406fa1a7a4d6e85fULL},
      {0x5699b92a404b3c92ULL, 650, 0, 532, 0x40de05c9e0ab1a33ULL, 0x406ab2f65778fec3ULL},
      // alu(8), granular, initial_margin 0.8: three regrows
      {0xf42f41859b0143baULL, 56, 3, 182, 0x409e479447a68048ULL, 0x405273bfcb9612deULL},
  };
  std::vector<PackOutcome> seen;
  for (const auto& design : suite) {
    for (const auto& arch : {PlbArchitecture::granular(), PlbArchitecture::lut_based()}) {
      const auto p = prepare(design.netlist, arch);
      PackedDesign first;
      seen.push_back(pack_outcome(p, arch, {}, &first));
      timing::StaOptions sta;
      sta.clock_period_ps = design.clock_period_ps;
      PackOptions timed;
      timed.criticality = timing::analyze(p.nl, first.legal, sta).criticality;
      seen.push_back(pack_outcome(p, arch, timed));
    }
  }
  {
    const auto arch = PlbArchitecture::granular();
    const auto p = prepare(suite[0].netlist, arch);
    PackOptions tight;
    tight.initial_margin = 0.8;
    seen.push_back(pack_outcome(p, arch, tight));
    EXPECT_GT(seen.back().grow_attempts, 0);
  }
  ASSERT_EQ(seen.size(), std::size(kPinned));
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], kPinned[i]) << "case " << i;
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

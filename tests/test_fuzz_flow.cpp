// Property-based fuzz tests: random netlists through the synthesis stack.
//
// For randomly generated circuits (random truth tables, random topology,
// registers, constants), mapping and compaction onto either architecture
// must preserve cycle-accurate behaviour, and the packer must legalize the
// result under the exact tile resource model.

#include <gtest/gtest.h>

#include "bitsim_helpers.hpp"
#include "common/rng.hpp"
#include "compact/compact.hpp"
#include "designs/designs.hpp"
#include "netlist/bitsim.hpp"
#include "pack/packer.hpp"
#include "place/placement.hpp"
#include "synth/buffering.hpp"
#include "synth/mapper.hpp"

namespace vpga {
namespace {

using core::PlbArchitecture;

/// A random well-formed netlist: `gates` combinational nodes of arity 1-3
/// with random truth tables, a few registers with feedback, some constants.
netlist::Netlist random_netlist(std::uint64_t seed, int inputs, int gates, int ffs) {
  common::Rng rng(seed);
  netlist::Netlist nl("fuzz" + std::to_string(seed));
  std::vector<netlist::NodeId> pool;
  for (int i = 0; i < inputs; ++i) pool.push_back(nl.add_input("i" + std::to_string(i)));
  pool.push_back(nl.add_constant(false));
  pool.push_back(nl.add_constant(true));
  // Registers created up front; D connected at the end (feedback allowed).
  std::vector<netlist::NodeId> regs;
  for (int i = 0; i < ffs; ++i) {
    const auto ff = nl.add_dff(netlist::NodeId{}, "r" + std::to_string(i));
    regs.push_back(ff);
    pool.push_back(ff);
  }
  for (int g = 0; g < gates; ++g) {
    const int arity = 1 + static_cast<int>(rng.next_below(3));
    std::vector<netlist::NodeId> fanins;
    for (int k = 0; k < arity; ++k) fanins.push_back(pool[rng.next_below(pool.size())]);
    const auto mask = (std::uint64_t{1} << (1 << arity)) - 1;
    pool.push_back(nl.add_comb(logic::TruthTable(arity, rng.next_u64() & mask),
                               std::move(fanins)));
  }
  for (auto ff : regs) nl.set_dff_input(ff, pool[rng.next_below(pool.size())]);
  const int outputs = 1 + static_cast<int>(rng.next_below(8));
  for (int o = 0; o < outputs; ++o)
    nl.add_output(pool[pool.size() - 1 - rng.next_below(pool.size() / 2)],
                  "o" + std::to_string(o));
  return nl;
}

class FuzzFlow : public ::testing::TestWithParam<int> {};

TEST_P(FuzzFlow, MapAndCompactPreserveBehaviour) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const auto src = random_netlist(seed, 6 + seed % 5, 40 + static_cast<int>(seed) * 7 % 60,
                                  static_cast<int>(seed) % 6);
  ASSERT_TRUE(src.check().ok);
  for (const auto& arch : {PlbArchitecture::granular(), PlbArchitecture::lut_based()}) {
    const auto mapped =
        synth::tech_map(src, synth::cell_target(arch), synth::Objective::kDelay);
    ASSERT_TRUE(mapped.netlist.check().ok) << arch.name;
    EXPECT_FALSE(netlist::random_divergence(src, mapped.netlist, 128))
        << arch.name << " seed " << seed;
    auto comp = compact::compact_from(src, mapped.netlist, arch);
    ASSERT_TRUE(comp.netlist.check().ok) << arch.name;
    EXPECT_FALSE(netlist::random_divergence(src, comp.netlist, 128))
        << arch.name << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzFlow, ::testing::Range(1, 13));

class FuzzPack : public ::testing::TestWithParam<int> {};

TEST_P(FuzzPack, LegalizationRespectsResources) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const auto src = random_netlist(seed + 100, 8, 80, 10);
  const auto arch = (seed % 2) ? PlbArchitecture::granular() : PlbArchitecture::lut_based();
  const auto mapped =
      synth::tech_map(src, synth::cell_target(arch), synth::Objective::kDelay);
  auto comp = compact::compact_from(src, mapped.netlist, arch);
  synth::insert_buffers(comp.netlist, 8);
  const auto placed = place::place(comp.netlist);
  const auto packed = pack::pack(comp.netlist, placed, arch);
  // Re-verify every tile against the exact resource model.
  std::vector<std::vector<core::ConfigKind>> tiles(
      static_cast<std::size_t>(packed.grid_w) * packed.grid_h);
  for (netlist::NodeId id : comp.netlist.all_nodes()) {
    const auto& n = comp.netlist.node(id);
    const int t = packed.tile_of_node[id.index()];
    const bool slots = n.type == netlist::NodeType::kDff ||
                       (n.type == netlist::NodeType::kComb && n.has_config());
    if (!slots) continue;
    ASSERT_GE(t, 0);
    if (n.in_macro() && n.macro_rep != id) {
      EXPECT_EQ(t, packed.tile_of_node[n.macro_rep.index()]);
      continue;
    }
    tiles[static_cast<std::size_t>(t)].push_back(
        n.type == netlist::NodeType::kDff ? core::ConfigKind::kFf
                                          : static_cast<core::ConfigKind>(n.config_tag));
  }
  for (const auto& contents : tiles)
    if (!contents.empty()) EXPECT_TRUE(core::fits_in_one_plb(arch, contents));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPack, ::testing::Range(1, 9));

TEST(FuzzAdders, CarrySelectAddsCorrectly) {
  const auto nl = designs::make_carry_select_adder(12, 4);
  ASSERT_TRUE(nl.check().ok);
  netlist::BitSimulator sim(nl);
  common::Rng rng(77);
  for (int iter = 0; iter < 500; ++iter) {
    const auto a = rng.next_u64() & 0xFFF;
    const auto b = rng.next_u64() & 0xFFF;
    const bool cin = rng.next_bool();
    for (int i = 0; i < 12; ++i) sim.set_input(static_cast<std::size_t>(i), lanes((a >> i) & 1));
    for (int i = 0; i < 12; ++i)
      sim.set_input(static_cast<std::size_t>(12 + i), lanes((b >> i) & 1));
    sim.set_input(24, lanes(cin));
    sim.eval();
    std::uint64_t got = 0;
    for (int i = 0; i < 13; ++i)
      if (output_bit(sim, static_cast<std::size_t>(i))) got |= std::uint64_t{1} << i;
    EXPECT_EQ(got, a + b + (cin ? 1 : 0)) << a << "+" << b;
  }
}

TEST(FuzzAdders, PrefixAdderMatchesCarrySelect) {
  const auto p = designs::make_prefix_adder(16);
  const auto c = designs::make_carry_select_adder(16, 4);
  EXPECT_FALSE(netlist::random_divergence(p, c, 500));
}

TEST(FuzzAdders, AllAdderStylesEquivalentThroughMapping) {
  for (auto make : {&designs::make_prefix_adder}) {
    const auto src = make(10);
    const auto mapped = synth::tech_map(src, synth::cell_target(PlbArchitecture::granular()),
                                        synth::Objective::kDelay);
    EXPECT_FALSE(netlist::random_divergence(src, mapped.netlist, 300));
  }
}

}  // namespace
}  // namespace vpga

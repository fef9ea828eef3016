// Property tests: the backtracking resource model in fits_in_one_plb agrees
// with an independent brute-force enumerator on every small configuration
// multiset, for every stock architecture and FF-count variant; and the
// tile-state table built from it agrees with it on every multiset up to one
// configuration past a full tile.

#include <gtest/gtest.h>

#include <functional>
#include <numeric>

#include "core/arch_io.hpp"
#include "core/plb.hpp"

namespace vpga::core {
namespace {

/// Brute force: enumerate every assignment of needs to component kinds (by
/// cartesian product) and check slot budgets — independent of the production
/// backtracking order and pruning.
bool brute_force_fits(const PlbArchitecture& arch, const std::vector<ConfigKind>& configs) {
  std::vector<ComponentClass> needs;
  for (ConfigKind k : configs) {
    if (!arch.supports(k)) return false;
    const auto& spec = config_spec(k);
    needs.insert(needs.end(), spec.needs.begin(), spec.needs.end());
  }
  const std::size_t n = needs.size();
  if (n == 0) return true;
  // Accepted component kinds per need (cartesian product over these lists).
  std::vector<std::vector<int>> accepted(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (int c = 0; c < kNumPlbComponents; ++c)
      if (class_accepts(needs[i], static_cast<PlbComponent>(c))) accepted[i].push_back(c);
    if (accepted[i].empty()) return false;
  }
  std::vector<std::size_t> choice(n, 0);
  while (true) {
    std::array<int, kNumPlbComponents> used{};
    for (std::size_t i = 0; i < n; ++i) ++used[static_cast<std::size_t>(accepted[i][choice[i]])];
    bool within = true;
    for (int c = 0; c < kNumPlbComponents; ++c)
      within = within && used[static_cast<std::size_t>(c)] <=
                             arch.component_count[static_cast<std::size_t>(c)];
    if (within) return true;
    std::size_t i = 0;
    while (i < n && ++choice[i] == accepted[i].size()) choice[i++] = 0;
    if (i == n) return false;
  }
}

std::vector<PlbArchitecture> architectures() {
  return {PlbArchitecture::granular(), PlbArchitecture::lut_based(),
          PlbArchitecture::granular_with_ffs(2), PlbArchitecture::granular_with_ffs(4)};
}

/// All multisets (non-decreasing sequences) of configs of the given size.
void for_each_multiset(const std::vector<ConfigKind>& alphabet, int size,
                       const std::function<void(const std::vector<ConfigKind>&)>& fn) {
  std::vector<ConfigKind> cur;
  auto rec = [&](auto&& self, std::size_t start) -> void {
    if (static_cast<int>(cur.size()) == size) {
      fn(cur);
      return;
    }
    for (std::size_t i = start; i < alphabet.size(); ++i) {
      cur.push_back(alphabet[i]);
      self(self, i);
      cur.pop_back();
    }
  };
  rec(rec, 0);
}

class ResourceModelSweep : public ::testing::TestWithParam<int> {};

TEST_P(ResourceModelSweep, BacktrackingMatchesBruteForce) {
  const int size = GetParam();
  std::vector<ConfigKind> alphabet;
  for (int i = 0; i < kNumConfigKinds; ++i) alphabet.push_back(static_cast<ConfigKind>(i));
  int checked = 0;
  for (const auto& arch : architectures()) {
    for_each_multiset(alphabet, size, [&](const std::vector<ConfigKind>& multiset) {
      const bool fast = fits_in_one_plb(arch, multiset);
      const bool slow = brute_force_fits(arch, multiset);
      ASSERT_EQ(fast, slow) << arch.name << " size " << size;
      ++checked;
    });
  }
  EXPECT_GT(checked, 0);
}

// Sizes 1..4 cover every simultaneous combination the paper discusses
// (8 config kinds -> 330 multisets of size 4, x4 architectures).
INSTANTIATE_TEST_SUITE_P(Sizes, ResourceModelSweep, ::testing::Range(1, 5));

/// The stock architectures plus a custom tile with twice the granular
/// capacity, which holds two full adders at once.
std::vector<PlbArchitecture> table_architectures() {
  auto archs = architectures();
  const auto wide = parse_architecture(
      "plb wide\n"
      "components xoa=2 mux=4 nd3=2 dff=2\n"
      "configs MX ND3 NDMX XOAMX XOANDMX FF FA\n"
      "tile_area 200\ncomb_area 130\nend\n");
  EXPECT_TRUE(wide.ok) << wide.error;
  archs.push_back(wide.arch);
  return archs;
}

TEST(TileStateTable, TransitionsMatchOracleUpToAFullTile) {
  std::vector<ConfigKind> alphabet;
  for (int i = 0; i < kNumConfigKinds; ++i) alphabet.push_back(static_cast<ConfigKind>(i));
  for (const auto& arch : table_architectures()) {
    const TileStateTable table(arch);
    // Every configuration takes at least one slot, so no feasible multiset
    // is larger than the tile's slot count.
    const int slots =
        std::accumulate(arch.component_count.begin(), arch.component_count.end(), 0);
    int feasible = 0;
    for (int size = 0; size <= slots + 1; ++size) {
      for_each_multiset(alphabet, size, [&](const std::vector<ConfigKind>& multiset) {
        // Walk the table in insertion order; a rejected tile stays rejected.
        TileStateTable::State s = TileStateTable::kEmpty;
        ConfigCounts counts{};
        for (ConfigKind k : multiset) {
          ++counts[static_cast<std::size_t>(k)];
          if (s != TileStateTable::kReject) s = table.add(s, k);
        }
        const bool fits = fits_in_one_plb(arch, multiset);
        ASSERT_EQ(s != TileStateTable::kReject, fits) << arch.name << " size " << size;
        if (!fits) return;
        ++feasible;
        EXPECT_EQ(table.contents(s), counts) << arch.name;
      });
    }
    // One state per feasible multiset, the empty tile included.
    EXPECT_EQ(table.num_states(), feasible) << arch.name;
  }
}

TEST(TileStateTable, StateCountsOfStockArchitectures) {
  EXPECT_EQ(TileStateTable(PlbArchitecture::granular()).num_states(), 44);
  EXPECT_EQ(TileStateTable(PlbArchitecture::lut_based()).num_states(), 12);
  EXPECT_EQ(TileStateTable(PlbArchitecture::granular_with_ffs(8)).num_states(), 198);
}

TEST(TileStateTableDeathTest, OversizedArchitectureAbortsLoudly) {
  // Independent LUT3, ND3 and FF slots: 65^3 feasible multisets.
  const auto huge = parse_architecture(
      "plb huge\ncomponents lut3=64 nd3=64 dff=64\nconfigs LUT3 ND3 FF\n"
      "tile_area 1\ncomb_area 1\nend\n");
  ASSERT_TRUE(huge.ok) << huge.error;
  EXPECT_DEATH(TileStateTable{huge.arch},
               "huge has more feasible tile multisets than TileStateTable::kMaxStates");
}

TEST(ResourceModel, EmptyMultisetAlwaysFits) {
  for (const auto& arch : architectures()) EXPECT_TRUE(fits_in_one_plb(arch, {}));
}

TEST(ResourceModel, UnsupportedConfigNeverFits) {
  EXPECT_FALSE(fits_in_one_plb(PlbArchitecture::lut_based(), {ConfigKind::kFullAdder}));
  EXPECT_FALSE(fits_in_one_plb(PlbArchitecture::granular(), {ConfigKind::kLut3}));
}

}  // namespace
}  // namespace vpga::core

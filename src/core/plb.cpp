#include "core/plb.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <numeric>

#include "common/assert.hpp"

namespace vpga::core {

bool PlbArchitecture::supports(ConfigKind k) const {
  return std::find(configs.begin(), configs.end(), k) != configs.end();
}

PlbArchitecture PlbArchitecture::lut_based() {
  PlbArchitecture a;
  a.name = "lut_plb";
  a.component_count[static_cast<std::size_t>(PlbComponent::kLut3)] = 1;
  a.component_count[static_cast<std::size_t>(PlbComponent::kNd3)] = 2;
  a.component_count[static_cast<std::size_t>(PlbComponent::kDff)] = 1;
  a.configs = {ConfigKind::kLut3, ConfigKind::kNd3, ConfigKind::kFf};
  // Calibrated tile geometry (see DESIGN.md): only ratios matter downstream.
  a.tile_area_um2 = 80.0;
  a.comb_area_um2 = 50.0;
  return a;
}

PlbArchitecture PlbArchitecture::granular() {
  PlbArchitecture a;
  a.name = "granular_plb";
  a.component_count[static_cast<std::size_t>(PlbComponent::kXoa)] = 1;
  a.component_count[static_cast<std::size_t>(PlbComponent::kMux)] = 2;
  a.component_count[static_cast<std::size_t>(PlbComponent::kNd3)] = 1;
  a.component_count[static_cast<std::size_t>(PlbComponent::kDff)] = 1;
  a.configs = {ConfigKind::kMx,      ConfigKind::kNd3,       ConfigKind::kNdmx,
               ConfigKind::kXoamx,   ConfigKind::kXoandmx,   ConfigKind::kFf,
               ConfigKind::kFullAdder};
  // Paper: granular PLB is ~20% larger overall, ~26.6% more combinational
  // logic area than the LUT-based PLB.
  a.tile_area_um2 = 96.0;
  a.comb_area_um2 = 63.3;
  return a;
}

PlbArchitecture PlbArchitecture::granular_with_ffs(int n) {
  VPGA_ASSERT(n >= 1 && n <= 8);
  PlbArchitecture a = granular();
  a.name = "granular_plb_ff" + std::to_string(n);
  a.component_count[static_cast<std::size_t>(PlbComponent::kDff)] = n;
  // Each extra flip-flop adds its cell area plus local routing overhead.
  a.tile_area_um2 += 16.0 * (n - 1);
  return a;
}

namespace {

/// Backtracking assignment of requirement classes to distinct slot instances.
bool assign(const std::vector<ComponentClass>& needs, std::size_t i,
            std::array<int, kNumPlbComponents>& free_slots) {
  if (i == needs.size()) return true;
  for (int c = 0; c < kNumPlbComponents; ++c) {
    if (free_slots[static_cast<std::size_t>(c)] <= 0) continue;
    if (!class_accepts(needs[i], static_cast<PlbComponent>(c))) continue;
    --free_slots[static_cast<std::size_t>(c)];
    if (assign(needs, i + 1, free_slots)) {
      ++free_slots[static_cast<std::size_t>(c)];
      return true;
    }
    ++free_slots[static_cast<std::size_t>(c)];
  }
  return false;
}

}  // namespace

bool fits_in_one_plb(const PlbArchitecture& arch, const std::vector<ConfigKind>& configs) {
  std::vector<ComponentClass> needs;
  for (ConfigKind k : configs) {
    if (!arch.supports(k)) return false;
    const auto& spec = config_spec(k);
    needs.insert(needs.end(), spec.needs.begin(), spec.needs.end());
  }
  // Order scarce (single-option) needs first: small speedup, same answer.
  std::sort(needs.begin(), needs.end(), [](ComponentClass a, ComponentClass b) {
    return std::popcount(a) < std::popcount(b);
  });
  auto free_slots = arch.component_count;
  return assign(needs, 0, free_slots);
}

TileStateTable::TileStateTable(const PlbArchitecture& arch) {
  // Breadth-first from the empty tile, so state ids are discovery order; each
  // multiset one configuration beyond a state is probed once.
  std::map<ConfigCounts, State> seen{{ConfigCounts{}, kEmpty}};
  contents_.emplace_back();
  std::vector<ConfigKind> probe;
  for (std::size_t s = 0; s < contents_.size(); ++s) {
    for (int k = 0; k < kNumConfigKinds; ++k) {
      ConfigCounts grown = contents_[s];
      ++grown[static_cast<std::size_t>(k)];
      const auto [it, fresh] = seen.emplace(grown, kReject);
      if (fresh) {
        probe.clear();
        for (int j = 0; j < kNumConfigKinds; ++j)
          probe.insert(probe.end(), static_cast<std::size_t>(grown[static_cast<std::size_t>(j)]),
                       static_cast<ConfigKind>(j));
        if (fits_in_one_plb(arch, probe)) {
          VPGA_ASSERT_MSG(num_states() < kMaxStates,
                          (arch.name + " has more feasible tile multisets than "
                                       "TileStateTable::kMaxStates").c_str());
          it->second = num_states();
          contents_.push_back(grown);
        }
      }
      next_.push_back(it->second);
    }
  }
}

std::vector<std::vector<ConfigKind>> maximal_packings(
    const PlbArchitecture& arch, const std::vector<ConfigKind>& comb_configs) {
  // Feasibility is monotone, so a multiset over `comb_configs` is maximal iff
  // adding any one of them is rejected.
  const TileStateTable table(arch);
  std::vector<std::vector<ConfigKind>> maximal;
  maximal.reserve(static_cast<std::size_t>(table.num_states()));
  for (TileStateTable::State s = TileStateTable::kEmpty + 1; s < table.num_states(); ++s) {
    const ConfigCounts& counts = table.contents(s);
    std::vector<ConfigKind> combo;
    bool extensible = false;
    for (ConfigKind k : comb_configs) {
      combo.insert(combo.end(), static_cast<std::size_t>(counts[static_cast<std::size_t>(k)]), k);
      extensible = extensible || table.add(s, k) != TileStateTable::kReject;
    }
    const auto held = std::accumulate(counts.begin(), counts.end(), std::size_t{0});
    if (!extensible && combo.size() == held) maximal.push_back(std::move(combo));
  }
  std::sort(maximal.begin(), maximal.end());
  return maximal;
}

}  // namespace vpga::core

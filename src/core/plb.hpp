#pragma once
/// \file plb.hpp
/// PLB architecture descriptors — the paper's Figures 1 and 4, plus the
/// parametric variants used by the application-domain ablation of Section 4.
///
/// An architecture is the multiset of component slots in one tile, the set of
/// legal configurations, and the tile geometry. Tile areas are calibrated to
/// the paper's own stated ratios: the granular PLB is ~20% larger than the
/// LUT-based PLB overall with ~26.6% more combinational logic area.

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "core/config.hpp"

namespace vpga::core {

/// One PLB tile architecture.
struct PlbArchitecture {
  std::string name;
  /// How many slots of each PlbComponent one tile provides.
  std::array<int, kNumPlbComponents> component_count{};
  /// Configurations the local interconnect supports.
  std::vector<ConfigKind> configs;
  double tile_area_um2 = 0.0;  ///< full tile (components + vias + buffers + DFF)
  double comb_area_um2 = 0.0;  ///< combinational portion of the tile

  [[nodiscard]] int count(PlbComponent c) const {
    return component_count[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] int dff_count() const { return count(PlbComponent::kDff); }
  [[nodiscard]] bool supports(ConfigKind k) const;

  /// The LUT-based heterogeneous PLB of Figure 1: one 3-LUT, two ND3WI gates,
  /// one DFF.
  static PlbArchitecture lut_based();

  /// The granular heterogeneous PLB of Figure 4: one XOA, two plain 2:1
  /// MUXes, one ND3WI gate, one DFF.
  static PlbArchitecture granular();

  /// Granular variant with `n` flip-flops per tile (Section 4: the optimal
  /// FF-to-combinational ratio is application-domain dependent).
  static PlbArchitecture granular_with_ffs(int n);
};

/// Checks whether a multiset of configurations fits simultaneously into one
/// tile of the architecture: every configuration's component needs must be
/// satisfiable by *distinct* component slots. Exact (backtracking) but
/// allocating per call: TileStateTable is built from it, and the packer and
/// the verifier query that table instead.
bool fits_in_one_plb(const PlbArchitecture& arch, const std::vector<ConfigKind>& configs);

/// Configuration count per ConfigKind: one tile's contents.
using ConfigCounts = std::array<int, kNumConfigKinds>;

/// The tile automaton of one architecture. Its states are the feasible
/// configuration multisets of one tile (44 for the granular PLB, 12 for the
/// LUT PLB); adding a configuration moves a tile to the state of the grown
/// multiset, or rejects when that multiset no longer fits. Built once with
/// fits_in_one_plb as the oracle, so every legality query after that is one
/// table lookup, and the packer and the verifier share one legality model.
///
/// Feasibility is monotone: every sub-multiset of a feasible multiset is
/// feasible, so a tile that rejects a kind keeps rejecting it as it fills.
class TileStateTable {
 public:
  using State = int;
  static constexpr State kEmpty = 0;    ///< the empty tile
  static constexpr State kReject = -1;  ///< the grown multiset does not fit
  /// Architectures with more feasible multisets than this abort the build.
  static constexpr int kMaxStates = 1 << 16;

  explicit TileStateTable(const PlbArchitecture& arch);

  /// State of a tile in state `s` (not kReject) after adding one `k`.
  [[nodiscard]] State add(State s, ConfigKind k) const {
    return next_[static_cast<std::size_t>(s) * kNumConfigKinds + static_cast<std::size_t>(k)];
  }
  /// The configurations a tile in state `s` holds.
  [[nodiscard]] const ConfigCounts& contents(State s) const {
    return contents_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] int num_states() const { return static_cast<int>(contents_.size()); }

 private:
  std::vector<ConfigCounts> contents_;  ///< per state
  std::vector<State> next_;             ///< per state, kNumConfigKinds transitions
};

/// All maximal simultaneous multisets of `comb_configs`, read off the tile
/// automaton (for reports/tests; e.g. the granular PLB's "three MX and one
/// ND3" etc. from Section 2.3). Each lists its configurations in
/// `comb_configs` order; the list is sorted.
std::vector<std::vector<ConfigKind>> maximal_packings(
    const PlbArchitecture& arch, const std::vector<ConfigKind>& comb_configs);

}  // namespace vpga::core

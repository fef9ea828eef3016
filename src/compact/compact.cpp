#include "compact/compact.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "compact/fa_fusion.hpp"
#include "core/config.hpp"
#include "obs/obs.hpp"

namespace vpga::compact {

double gate_area(const netlist::Netlist& nl, const library::CellLibrary& lib) {
  const auto& specs = core::config_specs(lib);
  double area = 0.0;
  for (netlist::NodeId id : nl.all_nodes()) {
    const auto& n = nl.node(id);
    // Macro members other than the representative are accounted with it.
    if (n.in_macro() && n.macro_rep != id) continue;
    switch (n.type) {
      case netlist::NodeType::kComb:
        if (n.has_config()) {
          area += specs[n.config_tag].mapped_area_um2;
        } else if (n.is_mapped()) {
          area += lib.spec(*n.cell).area_um2;
        } else {
          // Generic node: approximate with the NAND2 weight model.
          area += lib.spec(library::CellKind::kNd2wi).area_um2;
        }
        break;
      case netlist::NodeType::kDff:
        area += lib.spec(library::CellKind::kDff).area_um2;
        break;
      default:
        break;
    }
  }
  return area;
}

namespace {

/// Resource pools of one tile, for architecture-aware pricing: the compaction
/// objective is not raw gate area but *PLB array tiles*, so each
/// configuration is priced by the share of a tile its component needs occupy.
struct Pool {
  core::ComponentClass mask;
  int per_tile;
  double base_price;  // tile combinational area apportioned to one slot
};

std::vector<Pool> pricing_pools(const core::PlbArchitecture& arch,
                                const library::CellLibrary& lib) {
  std::vector<Pool> pools;
  const int mux_like = arch.count(core::PlbComponent::kMux) + arch.count(core::PlbComponent::kXoa);
  if (mux_like > 0)
    pools.push_back({static_cast<core::ComponentClass>(
                         core::component_bit(core::PlbComponent::kMux) |
                         core::component_bit(core::PlbComponent::kXoa)),
                     mux_like, 0.0});
  if (arch.count(core::PlbComponent::kNd3) > 0)
    pools.push_back({core::component_bit(core::PlbComponent::kNd3),
                     arch.count(core::PlbComponent::kNd3), 0.0});
  if (arch.count(core::PlbComponent::kLut3) > 0)
    pools.push_back({core::component_bit(core::PlbComponent::kLut3),
                     arch.count(core::PlbComponent::kLut3), 0.0});
  // Apportion the tile's combinational area across slots in proportion to the
  // component cell areas (so a LUT slot costs more than an ND slot).
  double weight_total = 0.0;
  std::vector<double> weight(pools.size(), 0.0);
  auto cell_area = [&](const Pool& p) {
    if (p.mask & core::component_bit(core::PlbComponent::kLut3))
      return lib.spec(library::CellKind::kLut3).area_um2;
    if (p.mask & core::component_bit(core::PlbComponent::kNd3))
      return lib.spec(library::CellKind::kNd3wi).area_um2;
    return lib.spec(library::CellKind::kMux2).area_um2;
  };
  for (std::size_t i = 0; i < pools.size(); ++i) {
    weight[i] = cell_area(pools[i]);
    weight_total += weight[i] * pools[i].per_tile;
  }
  for (std::size_t i = 0; i < pools.size(); ++i)
    pools[i].base_price = arch.comb_area_um2 * weight[i] / weight_total;
  return pools;
}

/// Price of one configuration under the given per-pool multipliers.
double priced(const core::ConfigSpec& spec, const std::vector<Pool>& pools,
              const std::vector<double>& multiplier) {
  double total = 0.0;
  for (auto need : spec.needs) {
    double best = 1e18;
    for (std::size_t i = 0; i < pools.size(); ++i)
      if (need & pools[i].mask)
        best = std::min(best, pools[i].base_price * multiplier[i]);
    total += best >= 1e17 ? 0.0 : best;
  }
  return total;
}

/// Reusable scratch for one compact_from() call. The pricing loop and the
/// two rebalance passes each need the same per-pool vectors; keeping them
/// here lets heap capacity survive across rounds instead of being reallocated
/// (the compact stage runs once per flow but its inner loop re-covers the
/// whole netlist three times).
struct CompactScratch {
  std::vector<double> pool_demand;
  std::vector<std::pair<core::ComponentClass, double>> flexible;
  std::vector<std::vector<netlist::NodeId>> members;
  std::vector<double> load;
};

/// Rebalances single-slot configurations across resource pools: a function
/// covered as (say) an MX whose truth table is also ND3WI-implementable can
/// be re-labelled to the ND3 configuration when the mux pool is the binding
/// constraint — pure re-tagging, the netlist structure is untouched. This is
/// the relabeling freedom the paper describes ("a 2-input Nand function on a
/// non-critical path can be mapped into a MUX ... allowing an extra function
/// to be packed in the PLB") applied globally.
void rebalance_pools(netlist::Netlist& nl, const core::PlbArchitecture& arch,
                     CompactScratch& scratch) {
  struct PoolCfg {
    core::ConfigKind config;
    int per_tile;
  };
  std::vector<PoolCfg> pools;
  if (arch.count(core::PlbComponent::kMux) + arch.count(core::PlbComponent::kXoa) > 0)
    pools.push_back({core::ConfigKind::kMx,
                     arch.count(core::PlbComponent::kMux) + arch.count(core::PlbComponent::kXoa)});
  if (arch.count(core::PlbComponent::kNd3) > 0)
    pools.push_back({core::ConfigKind::kNd3, arch.count(core::PlbComponent::kNd3)});
  if (arch.count(core::PlbComponent::kLut3) > 0)
    pools.push_back({core::ConfigKind::kLut3, arch.count(core::PlbComponent::kLut3)});
  if (pools.size() < 2) return;

  auto pool_of = [&](const netlist::Node& n) -> int {
    if (n.type != netlist::NodeType::kComb || !n.has_config() || n.in_macro()) return -1;
    for (std::size_t i = 0; i < pools.size(); ++i)
      if (n.config_tag == static_cast<std::uint8_t>(pools[i].config))
        return static_cast<int>(i);
    return -1;
  };
  // Bucket the re-taggable nodes per current pool.
  if (scratch.members.size() < pools.size()) scratch.members.resize(pools.size());
  auto& members = scratch.members;
  for (auto& bucket : members) bucket.clear();
  auto& load = scratch.load;
  load.assign(pools.size(), 0.0);
  for (netlist::NodeId id : nl.all_nodes()) {
    const int p = pool_of(nl.node(id));
    if (p < 0) continue;
    members[static_cast<std::size_t>(p)].push_back(id);
    load[static_cast<std::size_t>(p)] += 1.0 / pools[static_cast<std::size_t>(p)].per_tile;
  }
  // Other configurations still occupy slots in these pools (NDMX, XOAMX,
  // XOANDMX, FA): account them as immovable background load.
  const auto& specs = core::config_specs();
  for (netlist::NodeId id : nl.all_nodes()) {
    const auto& n = nl.node(id);
    if (n.type != netlist::NodeType::kComb || !n.has_config()) continue;
    if (n.in_macro() && n.macro_rep != id) continue;
    if (pool_of(n) >= 0) continue;
    for (auto need : specs[n.config_tag].needs)
      for (std::size_t i = 0; i < pools.size(); ++i)
        if (need & core::component_bit(static_cast<core::PlbComponent>(
                       pools[i].config == core::ConfigKind::kMx
                           ? core::PlbComponent::kMux
                           : pools[i].config == core::ConfigKind::kNd3
                                 ? core::PlbComponent::kNd3
                                 : core::PlbComponent::kLut3))) {
          load[i] += 1.0 / pools[i].per_tile;
          break;
        }
  }

  // Greedy moves from the binding pool to the least-loaded accepting pool.
  for (int iter = 0; iter < 1 << 20; ++iter) {
    std::size_t hi = 0, lo = 0;
    for (std::size_t i = 1; i < pools.size(); ++i) {
      if (load[i] > load[hi]) hi = i;
      if (load[i] < load[lo]) lo = i;
    }
    const double gain = 1.0 / pools[hi].per_tile;
    const double cost = 1.0 / pools[lo].per_tile;
    if (hi == lo || load[hi] - gain < load[lo] + cost) break;
    // Find a movable node: its function must be in the target's coverage.
    const auto& target_cov = specs[static_cast<std::size_t>(pools[lo].config)].coverage;
    bool moved = false;
    auto& bucket = members[hi];
    while (!bucket.empty() && !moved) {
      const netlist::NodeId id = bucket.back();
      bucket.pop_back();
      auto& n = nl.node(id);
      if (pool_of(n) != static_cast<int>(hi)) continue;  // stale entry
      const auto tt3 = static_cast<std::uint8_t>(n.func.extend(3).bits() & 0xFF);
      if (!target_cov.test(tt3)) continue;
      n.config_tag = static_cast<std::uint8_t>(pools[lo].config);
      members[lo].push_back(id);
      load[hi] -= gain;
      load[lo] += cost;
      moved = true;
    }
    if (!moved) break;  // binding pool has no movable members left
  }
}

/// The coverage of a full-adder half: XOR3/XNOR3 sums and majority-family
/// carries. The FA-half option biases the cover toward single supernodes
/// that fa_fusion can then pair into one-tile full adders.
logic::FnSet3 fa_half_coverage() {
  logic::FnSet3 s = majority_family();
  s.set(static_cast<std::size_t>(logic::tt3::xor3().bits()));
  s.set(static_cast<std::size_t>(logic::tt3::xnor3().bits()));
  return s;
}

}  // namespace

CompactionResult compact(const netlist::Netlist& mapped, const core::PlbArchitecture& arch,
                         const library::CellLibrary& lib) {
  return compact_from(mapped, mapped, arch, lib);
}

CompactionResult compact_from(const netlist::Netlist& reference, const netlist::Netlist& mapped,
                              const core::PlbArchitecture& arch,
                              const library::CellLibrary& lib) {
  return compact_from(synth::Subject(reference), mapped, arch, lib);
}

CompactionResult compact_from(const synth::Subject& subject, const netlist::Netlist& mapped,
                              const core::PlbArchitecture& arch,
                              const library::CellLibrary& lib) {
  CompactionResult result;
  result.report.area_before_um2 = gate_area(mapped, lib);
  for (netlist::NodeId id : mapped.all_nodes())
    if (mapped.node(id).type == netlist::NodeType::kComb) ++result.report.nodes_before;

  // Re-cover with configurations, tile-priced. The mapper's cut matching
  // performs the supernode formation: a 3-feasible cluster whose function is
  // in a configuration's coverage collapses into one supernode. Pricing
  // iterates: when one resource pool is oversubscribed relative to the tile
  // ratio (e.g. every function mapped onto the single ND3WI slot), its price
  // rises and the next cover shifts logic to the abundant pools — this is
  // the "better utilizing the given PLB architecture" of Section 3.1.
  const auto pools = pricing_pools(arch, lib);
  std::vector<double> multiplier(pools.size(), 1.0);
  synth::Cover best_cover;
  double best_tiles = 1e18;
  constexpr int kPricingRounds = 3;
  // The target's structure (options, coverage sets, arcs) is round-invariant;
  // only the prices change. Build it once — including the FA-half — and
  // reprice in place each round.
  auto target = synth::config_target(arch, lib);
  const auto& specs = core::config_specs(lib);
  std::size_t fa_half_idx = target.options.size() + 1;  // sentinel: no FA-half
  if (arch.supports(core::ConfigKind::kFullAdder)) {
    // FA-half option: half the full-adder footprint, since fusion pairs
    // two halves into one tile. Tagged kFullAdder so the demand accounting
    // below and the fusion pass can recognize them (unpaired leftovers are
    // demoted to XOAMX by fa_fusion).
    synth::MatchOption half;
    half.name = "FA-half";
    half.coverage = fa_half_coverage();
    half.arc = specs[static_cast<std::size_t>(core::ConfigKind::kXoamx)].arc;
    half.config_tag = static_cast<std::uint8_t>(core::ConfigKind::kFullAdder);
    fa_half_idx = target.options.size();
    target.options.push_back(std::move(half));
  }
  // Per-round scratch, hoisted so the heap capacity carries across rounds.
  CompactScratch scratch;
  auto& pool_demand = scratch.pool_demand;
  auto& flexible = scratch.flexible;
  for (int round = 0; round < kPricingRounds; ++round) {
    const obs::Span round_span("compact.pricing_round");
    obs::count("compact.cover_rounds");
    for (std::size_t oi = 0; oi < target.options.size(); ++oi) {
      auto& opt = target.options[oi];
      // The FA-half aliases kFullAdder's tag, so price by index, not tag:
      // it costs half the full adder under the current multipliers.
      const double scale = oi == fa_half_idx ? 0.5 : 1.0;
      opt.area_um2 = scale * priced(specs[opt.config_tag], pools, multiplier);
    }
    // Only the cover is computed here; the winning round is emitted once,
    // after the loop.
    synth::Cover round_cover = synth::cover(subject, target, synth::Objective::kArea);
    // Tiles needed per pool (the quantity flow b actually pays for). An
    // FA-half contributes half the full adder's footprint. Needs that accept
    // several pools are water-filled onto the least loaded one, matching what
    // the packer's fungible slot assignment achieves. The covered nodes are
    // read in ascending AIG node order, the order emit() lists them in.
    const std::vector<char>& needed = round_cover.needed;
    pool_demand.assign(pools.size(), 0.0);
    flexible.clear();
    flexible.reserve(static_cast<std::size_t>(std::count(needed.begin(), needed.end(), 1)));
    for (std::size_t n = 0; n < needed.size(); ++n) {
      if (!needed[n]) continue;
      const auto& opt = target.options[static_cast<std::size_t>(round_cover.choice[n].option)];
      const auto tag = static_cast<core::ConfigKind>(opt.config_tag);
      const double share = tag == core::ConfigKind::kFullAdder ? 0.5 : 1.0;
      for (auto need : specs[opt.config_tag].needs) {
        int accepting = 0;
        std::size_t only = pools.size();
        for (std::size_t i = 0; i < pools.size(); ++i)
          if (need & pools[i].mask) {
            ++accepting;
            only = i;
          }
        if (accepting == 1) pool_demand[only] += share / pools[only].per_tile;
        else if (accepting > 1) flexible.emplace_back(need, share);
      }
    }
    for (const auto& [need, share] : flexible) {
      std::size_t pick = pools.size();
      double best = 1e18;
      for (std::size_t i = 0; i < pools.size(); ++i) {
        if (!(need & pools[i].mask)) continue;
        const double after = pool_demand[i] + share / pools[i].per_tile;
        if (after < best) {
          best = after;
          pick = i;
        }
      }
      if (pick < pools.size()) pool_demand[pick] += share / pools[pick].per_tile;
    }
    double tiles = 0.0;
    for (double t : pool_demand) tiles = std::max(tiles, t);
    if (tiles < best_tiles) {
      best_tiles = tiles;
      best_cover = std::move(round_cover);
    }
    if (round + 1 == kPricingRounds) break;
    // Reprice (damped): scale each pool by its share of the binding
    // constraint so oversubscribed slots get more expensive next round.
    for (std::size_t i = 0; i < pools.size(); ++i) {
      const double ratio = tiles > 0 ? pool_demand[i] / tiles : 1.0;
      multiplier[i] = std::clamp(multiplier[i] * std::sqrt(0.5 + ratio), 0.5, 4.0);
    }
  }
  // The options now carry the last round's prices, so r.stats.area_um2 is in
  // those units; only its depth is read below. The cover is released once
  // emitted.
  synth::MapResult r = synth::emit(subject, best_cover, target);
  best_cover = synth::Cover();

  // Like the paper's compaction, changes are committed only when they reduce
  // gate area; otherwise the mapped structure is kept and each cell is simply
  // re-labelled as the configuration it trivially occupies.
  // Fuse (sum, carry) pairs into full-adder macros (Section 2.2) before the
  // commit decision: gate_area() must see paired halves as one macro and
  // unpaired halves demoted to XOAMX, or the comparison is biased. Then
  // spread single-slot configurations across the tile's resource pools.
  fuse_full_adders(r.netlist, arch);
  rebalance_pools(r.netlist, arch, scratch);

  // Commit the configuration cover when it improves on the mapped netlist in
  // real gate area (r.stats uses tile prices, not comparable units) or in the
  // tile-count estimate; otherwise keep the mapped structure re-labelled.
  const double cover_gate_area = gate_area(r.netlist, lib);
  const double mapped_tiles_estimate = [&] {
    // Quick per-pool estimate of the mapped netlist's own tile demand.
    std::vector<double> demand(pools.size(), 0.0);
    for (netlist::NodeId id : mapped.all_nodes()) {
      const auto& n = mapped.node(id);
      if (n.type != netlist::NodeType::kComb || !n.is_mapped()) continue;
      std::size_t pick = pools.size();
      switch (*n.cell) {
        case library::CellKind::kMux2:
        case library::CellKind::kXoa:
        case library::CellKind::kNd2wi:
        case library::CellKind::kNd3wi:
        case library::CellKind::kLut3: {
          const auto bit =
              *n.cell == library::CellKind::kLut3 ? core::component_bit(core::PlbComponent::kLut3)
              : (*n.cell == library::CellKind::kNd2wi || *n.cell == library::CellKind::kNd3wi)
                  ? core::component_bit(core::PlbComponent::kNd3)
                  : core::component_bit(core::PlbComponent::kMux);
          for (std::size_t i = 0; i < pools.size(); ++i)
            if (pools[i].mask & bit) pick = i;
          break;
        }
        default:
          break;
      }
      if (pick < pools.size()) demand[pick] += 1.0 / pools[pick].per_tile;
    }
    double t = 0.0;
    for (double d : demand) t = std::max(t, d);
    return t;
  }();
  if (cover_gate_area < result.report.area_before_um2 || best_tiles < mapped_tiles_estimate) {
    result.netlist = std::move(r.netlist);
  } else {
    result.netlist = mapped;
    for (netlist::NodeId id : result.netlist.all_nodes()) {
      auto& n = result.netlist.node(id);
      if (n.type != netlist::NodeType::kComb || !n.is_mapped()) continue;
      switch (*n.cell) {
        case library::CellKind::kLut3:
          n.config_tag = static_cast<std::uint8_t>(core::ConfigKind::kLut3);
          break;
        case library::CellKind::kNd2wi:
        case library::CellKind::kNd3wi:
          n.config_tag = static_cast<std::uint8_t>(core::ConfigKind::kNd3);
          break;
        case library::CellKind::kMux2:
        case library::CellKind::kXoa:
          n.config_tag = static_cast<std::uint8_t>(core::ConfigKind::kMx);
          break;
        default:
          break;  // INV/BUF ride in the PLB input buffers
      }
    }
  }

  // Fuse (sum, carry) pairs into full-adder macros (Section 2.2) and spread
  // the identity-relabelled cover across the resource pools as well.
  fuse_full_adders(result.netlist, arch);
  rebalance_pools(result.netlist, arch, scratch);

  result.report.area_after_um2 = gate_area(result.netlist, lib);
  int nodes_after = 0;
  for (netlist::NodeId id : result.netlist.all_nodes()) {
    const auto& n = result.netlist.node(id);
    if (n.type == netlist::NodeType::kComb) ++nodes_after;
    if (n.in_macro() && n.macro_rep != id) continue;  // counted at the rep
    if (n.type == netlist::NodeType::kComb && n.has_config())
      ++result.report.config_histogram[n.config_tag];
    else if (n.type == netlist::NodeType::kDff)
      ++result.report.config_histogram[static_cast<std::size_t>(core::ConfigKind::kFf)];
  }
  result.report.nodes_after = nodes_after;
  result.report.depth_after = r.stats.depth;
  for (std::size_t k = 0; k < core::kNumConfigKinds; ++k)
    if (result.report.config_histogram[k] > 0)
      obs::count(std::string("compact.config.") +
                     core::to_string(static_cast<core::ConfigKind>(k)),
                 result.report.config_histogram[k]);
  return result;
}

}  // namespace vpga::compact

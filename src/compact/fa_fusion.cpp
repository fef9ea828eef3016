#include "compact/fa_fusion.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace vpga::compact {

const logic::FnSet3& majority_family() {
  static const logic::FnSet3 fam = [] {
    logic::FnSet3 out;
    // Closure of maj3 under input negations and output complement.
    for (unsigned negs = 0; negs < 8; ++negs) {
      logic::TruthTable t = logic::tt3::maj3();
      for (int v = 0; v < 3; ++v)
        if (negs & (1u << v)) t = t.negate_var(v);
      out.set(static_cast<std::size_t>(t.bits()));
      out.set(static_cast<std::size_t>((~t).bits()));
    }
    return out;
  }();
  return fam;
}

int fuse_full_adders(netlist::Netlist& nl, const core::PlbArchitecture& arch) {
  if (!arch.supports(core::ConfigKind::kFullAdder)) return 0;

  const auto is_sum = [](const netlist::Node& n) {
    if (n.type != netlist::NodeType::kComb || n.func.num_vars() != 3) return false;
    const auto tt = static_cast<std::uint8_t>(n.func.bits());
    return tt == 0x96 || tt == 0x69;  // xor3 / xnor3
  };
  const auto is_carry = [](const netlist::Node& n) {
    if (n.type != netlist::NodeType::kComb || n.func.num_vars() != 3) return false;
    return majority_family().test(static_cast<std::size_t>(n.func.bits()));
  };

  // Group 3-input config nodes by their (sorted) fanin triple: flat
  // (key, id) rows stably sorted by key keep equal-key runs in creation
  // order, replacing the former std::map-of-vectors without a node-based
  // lookup per candidate.
  using Key = std::array<std::uint32_t, 3>;
  using Row = std::pair<Key, netlist::NodeId>;
  std::size_t candidates = 0;
  for (netlist::NodeId id : nl.all_nodes()) {
    const auto& n = nl.node(id);
    if (n.has_config() && !n.in_macro() && n.num_fanins() == 3) ++candidates;
  }
  std::vector<Row> sums, carries;
  sums.reserve(candidates);
  carries.reserve(candidates);
  for (netlist::NodeId id : nl.all_nodes()) {
    const auto& n = nl.node(id);
    if (!n.has_config() || n.in_macro() || n.num_fanins() != 3) continue;
    const auto fins = nl.fanins(id);
    Key k{fins[0].value(), fins[1].value(), fins[2].value()};
    std::sort(k.begin(), k.end());
    if (is_sum(n)) sums.emplace_back(k, id);
    else if (is_carry(n)) carries.emplace_back(k, id);
  }
  const auto by_key = [](const Row& a, const Row& b) { return a.first < b.first; };
  std::stable_sort(sums.begin(), sums.end(), by_key);
  std::stable_sort(carries.begin(), carries.end(), by_key);

  int fused = 0;
  const auto fa_tag = static_cast<std::uint8_t>(core::ConfigKind::kFullAdder);
  std::size_t ci = 0;
  for (std::size_t si = 0; si < sums.size();) {
    const Key& key = sums[si].first;
    std::size_t se = si;
    while (se < sums.size() && sums[se].first == key) ++se;
    while (ci < carries.size() && carries[ci].first < key) ++ci;
    std::size_t ce = ci;
    while (ce < carries.size() && carries[ce].first == key) ++ce;
    // Pair from the back of each equal-key run (the former pop_back order).
    std::size_t sj = se;
    std::size_t cj = ce;
    while (sj > si && cj > ci) {
      const netlist::NodeId s = sums[--sj].second;
      const netlist::NodeId c = carries[--cj].second;
      nl.node(s).config_tag = fa_tag;
      nl.node(s).macro_rep = s;
      nl.node(c).config_tag = fa_tag;
      nl.node(c).macro_rep = s;
      ++fused;
    }
    si = se;
    ci = ce;
  }
  // The compaction cover may speculatively tag FA-half supernodes; any that
  // found no partner revert to the XOAMX configuration (which covers both
  // XOR3/XNOR3 and the majority family).
  const auto& xoamx = core::config_spec(core::ConfigKind::kXoamx).coverage;
  for (netlist::NodeId id : nl.all_nodes()) {
    auto& n = nl.node(id);
    if (n.type != netlist::NodeType::kComb || n.in_macro()) continue;
    if (n.config_tag != fa_tag) continue;
    VPGA_ASSERT_MSG(
        xoamx.test(static_cast<std::size_t>(n.func.num_vars() == 3 ? n.func.bits() : 0)),
        "unpaired FA-half not realizable as XOAMX");
    n.config_tag = static_cast<std::uint8_t>(core::ConfigKind::kXoamx);
  }
  return fused;
}

}  // namespace vpga::compact

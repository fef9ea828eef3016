#include "synth/cuts.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "obs/obs.hpp"

namespace vpga::synth {
namespace {

/// Remaps `tt` (over cut `from`) onto the leaf space of the merged cut `to`.
std::uint8_t remap(std::uint8_t tt, const Cut& from, const Cut& to) {
  // Position of each from-leaf within to.leaves. Both lists are sorted and
  // `to` contains every leaf of `from`, so one forward scan finds them all.
  std::array<unsigned, 3> pos{};
  int j = 0;
  for (int i = 0; i < from.size; ++i) {
    while (j < to.size &&
           to.leaves[static_cast<std::size_t>(j)] != from.leaves[static_cast<std::size_t>(i)])
      ++j;
    VPGA_ASSERT(j < to.size);
    pos[static_cast<std::size_t>(i)] = static_cast<unsigned>(j++);
  }
  std::uint8_t out = 0;
  for (unsigned row = 0; row < 8; ++row) {
    unsigned src = 0;
    for (int i = 0; i < from.size; ++i)
      if (row & (1u << pos[static_cast<std::size_t>(i)])) src |= 1u << i;
    if (tt & (1u << src)) out |= static_cast<std::uint8_t>(1u << row);
  }
  return out;
}

/// Merges the leaf sets; returns false if the union exceeds 3.
bool merge_leaves(const Cut& a, const Cut& b, Cut& out) {
  std::array<std::uint32_t, 6> tmp{};
  int n = 0;
  int i = 0, j = 0;
  while (i < a.size || j < b.size) {
    std::uint32_t next;
    if (j >= b.size || (i < a.size && a.leaves[static_cast<std::size_t>(i)] <=
                                          b.leaves[static_cast<std::size_t>(j)])) {
      next = a.leaves[static_cast<std::size_t>(i)];
      if (j < b.size && b.leaves[static_cast<std::size_t>(j)] == next) ++j;
      ++i;
    } else {
      next = b.leaves[static_cast<std::size_t>(j)];
      ++j;
    }
    if (n == 3) return false;
    tmp[static_cast<std::size_t>(n++)] = next;
  }
  if (n > 3) return false;
  out.size = static_cast<std::uint8_t>(n);
  for (int k = 0; k < n; ++k) out.leaves[static_cast<std::size_t>(k)] = tmp[static_cast<std::size_t>(k)];
  return true;
}

Cut trivial_cut(std::uint32_t node) {
  Cut c;
  c.size = 1;
  c.leaves[0] = node;
  c.tt = 0xAA;  // x0
  return c;
}

}  // namespace

CutDatabase::CutDatabase(const aig::Aig& g, int cut_limit) {
  offsets_.assign(g.num_nodes() + 1, 0);
  pool_.reserve(g.num_nodes() * static_cast<std::size_t>(cut_limit) / 2);
  // Node 0 (constant) gets a single trivial cut so lookups are total, but it
  // must not participate in merging: an AND with a constant fanin keeps only
  // its own trivial cut (the constant is below every cut frontier).
  pool_.push_back(trivial_cut(0));
  offsets_[1] = 1;

  std::vector<Cut> result;  // scratch, reused across nodes
  result.reserve(static_cast<std::size_t>(cut_limit) * 4);
  for (std::uint32_t n = 1; n < g.num_nodes(); ++n) {
    result.clear();
    if (g.node(n).is_and) {
      const auto f0 = g.node(n).fanin0;
      const auto f1 = g.node(n).fanin1;
      // Empty spans for a constant fanin (see node-0 note above). These views
      // read earlier pool slices; appends happen only after merging, so the
      // pool cannot reallocate under them.
      const auto set0 = aig::node_of(f0) == 0 ? std::span<const Cut>{} : cuts(aig::node_of(f0));
      const auto set1 = aig::node_of(f1) == 0 ? std::span<const Cut>{} : cuts(aig::node_of(f1));
      auto consider = [&](const Cut& c) {
        if (std::find(result.begin(), result.end(), c) != result.end()) return;
        result.push_back(c);
      };
      for (const Cut& a : set0) {
        for (const Cut& b : set1) {
          Cut merged;
          if (!merge_leaves(a, b, merged)) continue;
          std::uint8_t ta = remap(a.tt, a, merged);
          std::uint8_t tb = remap(b.tt, b, merged);
          if (aig::is_complemented(f0)) ta = static_cast<std::uint8_t>(~ta);
          if (aig::is_complemented(f1)) tb = static_cast<std::uint8_t>(~tb);
          merged.tt = ta & tb;
          consider(merged);
        }
      }
      // Priority: fewer leaves first (cheaper to match and pack), stable beyond.
      std::stable_sort(result.begin(), result.end(),
                       [](const Cut& a, const Cut& b) { return a.size < b.size; });
      if (static_cast<int>(result.size()) > cut_limit)
        result.resize(static_cast<std::size_t>(cut_limit));
    }
    // The trivial cut last: always available for leaf use by fanouts.
    result.push_back(trivial_cut(n));
    pool_.insert(pool_.end(), result.begin(), result.end());
    offsets_[n + 1] = static_cast<std::uint32_t>(pool_.size());
  }

  obs::count("map.cuts_enumerated", static_cast<long long>(pool_.size()));
}

}  // namespace vpga::synth

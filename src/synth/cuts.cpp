#include "synth/cuts.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "common/assert.hpp"
#include "obs/obs.hpp"

namespace vpga::synth {
namespace {

/// kRemap[pattern - 1][tt]: the table `tt` of a cut re-expressed over a
/// merged cut's leaves, where bit j of `pattern` says that merged leaf j is
/// one of the cut's leaves. Leaves are sorted in both cuts, so the pattern
/// alone places the cut's variables: its i-th leaf is the merged leaf at the
/// i-th set bit. Merged variables outside the pattern are don't-cares.
constexpr std::array<std::array<std::uint8_t, 256>, 7> make_remap_table() {
  std::array<std::array<std::uint8_t, 256>, 7> table{};
  for (unsigned pattern = 1; pattern < 8; ++pattern) {
    for (unsigned tt = 0; tt < 256; ++tt) {
      unsigned out = 0;
      for (unsigned row = 0; row < 8; ++row) {
        unsigned src = 0;
        int i = 0;
        for (unsigned j = 0; j < 3; ++j) {
          if (!(pattern & (1u << j))) continue;
          if (row & (1u << j)) src |= 1u << i;
          ++i;
        }
        if (tt & (1u << src)) out |= 1u << row;
      }
      table[pattern - 1][tt] = static_cast<std::uint8_t>(out);
    }
  }
  return table;
}
constexpr auto kRemap = make_remap_table();

/// Merges the leaf sets of `a` and `b` into `out` and records, in
/// `pattern_a` / `pattern_b`, which merged leaves come from each; returns
/// false if the union exceeds 3 leaves.
bool merge_leaves(const Cut& a, const Cut& b, Cut& out, unsigned& pattern_a,
                  unsigned& pattern_b) {
  int n = 0;
  int i = 0, j = 0;
  pattern_a = pattern_b = 0;
  while (i < a.size || j < b.size) {
    if (n == 3) return false;
    const unsigned bit = 1u << n;
    std::uint32_t next;
    if (j >= b.size || (i < a.size && a.leaves[static_cast<std::size_t>(i)] <=
                                          b.leaves[static_cast<std::size_t>(j)])) {
      next = a.leaves[static_cast<std::size_t>(i)];
      pattern_a |= bit;
      if (j < b.size && b.leaves[static_cast<std::size_t>(j)] == next) {
        pattern_b |= bit;
        ++j;
      }
      ++i;
    } else {
      next = b.leaves[static_cast<std::size_t>(j)];
      pattern_b |= bit;
      ++j;
    }
    out.leaves[static_cast<std::size_t>(n++)] = next;
  }
  out.size = static_cast<std::uint8_t>(n);
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
  VPGA_ASSERT(cut_limit >= 0);
  const auto limit = static_cast<std::size_t>(cut_limit);
  offsets_.assign(g.num_nodes() + 1, 0);
  // One reservation at the bound: every AND keeps at most cut_limit merged
  // cuts plus its trivial cut, every other node its trivial cut alone. The
  // pool never reallocates, so it is never held twice during a copy, and the
  // unused tail of the reservation is never touched.
  const std::size_t others = 1 + g.num_inputs();
  const std::size_t ands = g.num_nodes() - others;
  pool_.reserve(ands * (limit + 1) + others);
  // Node 0 (constant) gets a single trivial cut so lookups are total, but it
  // must not participate in merging: an AND with a constant fanin keeps only
  // its own trivial cut (the constant is below every cut frontier).
  pool_.push_back(trivial_cut(0));
  offsets_[1] = 1;

  // Merged cuts by leaf count, each bucket capped at cut_limit (scratch,
  // reused across nodes). Two cuts can be equal only if they have the same
  // size, so duplicates are looked for within a bucket. Until a bucket is
  // full it holds every distinct cut of its size met so far, in the order
  // first met; once it is full, later cuts of that size could never be kept.
  // Buckets 1, 2, 3 concatenated and cut at cut_limit are therefore the
  // distinct cuts in first-met order, stably sorted by size and truncated.
  std::array<std::vector<Cut>, 3> buckets;
  for (auto& bucket : buckets) bucket.reserve(limit);
  for (std::uint32_t n = 1; n < g.num_nodes(); ++n) {
    if (g.node(n).is_and) {
      for (auto& bucket : buckets) bucket.clear();
      const auto f0 = g.node(n).fanin0;
      const auto f1 = g.node(n).fanin1;
      // Empty spans for a constant fanin (see node-0 note above). These views
      // read earlier pool slices, and the pool never reallocates.
      const auto set0 = aig::node_of(f0) == 0 ? std::span<const Cut>{} : cuts(aig::node_of(f0));
      const auto set1 = aig::node_of(f1) == 0 ? std::span<const Cut>{} : cuts(aig::node_of(f1));
      const std::uint8_t flip0 = aig::is_complemented(f0) ? 0xFF : 0x00;
      const std::uint8_t flip1 = aig::is_complemented(f1) ? 0xFF : 0x00;
      for (const Cut& a : set0) {
        for (const Cut& b : set1) {
          Cut merged;
          unsigned pattern_a = 0, pattern_b = 0;
          if (!merge_leaves(a, b, merged, pattern_a, pattern_b)) continue;
          auto& bucket = buckets[merged.size - 1u];
          if (bucket.size() == limit ||
              std::find(bucket.begin(), bucket.end(), merged) != bucket.end())
            continue;
          const std::uint8_t ta = kRemap[pattern_a - 1][a.tt] ^ flip0;
          const std::uint8_t tb = kRemap[pattern_b - 1][b.tt] ^ flip1;
          merged.tt = ta & tb;
          bucket.push_back(merged);
        }
      }
      // Priority: fewer leaves first (cheaper to match and pack).
      std::size_t room = limit;
      for (const auto& bucket : buckets) {
        const std::size_t take = std::min(room, bucket.size());
        pool_.insert(pool_.end(), bucket.begin(),
                     bucket.begin() + static_cast<std::ptrdiff_t>(take));
        room -= take;
      }
    }
    // The trivial cut last: always available for leaf use by fanouts.
    pool_.push_back(trivial_cut(n));
    offsets_[n + 1] = static_cast<std::uint32_t>(pool_.size());
  }

  obs::count("map.cuts_enumerated", static_cast<long long>(pool_.size()));
}

}  // namespace vpga::synth

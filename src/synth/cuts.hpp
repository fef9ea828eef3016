#pragma once
/// \file cuts.hpp
/// Priority-cut enumeration over an AIG (k = 3, matching the 3-input PLB
/// component cells and configurations).
///
/// Every AND node receives a bounded set of 3-feasible cuts, each with its
/// local function as a 3-variable truth table over the (sorted) cut leaves.
/// The mapper and the compaction pass both consume these cuts and match the
/// functions exactly against coverage sets.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "aig/aig.hpp"
#include "logic/truth_table.hpp"

namespace vpga::synth {

/// One cut: up to 3 leaves (AIG node indices, strictly increasing) and the
/// root's function over them.
struct Cut {
  std::array<std::uint32_t, 3> leaves{};
  std::uint8_t size = 0;
  /// Truth table over 3 variables; variables >= size are don't-cares.
  std::uint8_t tt = 0;

  [[nodiscard]] bool contains(std::uint32_t n) const {
    for (int i = 0; i < size; ++i)
      if (leaves[static_cast<std::size_t>(i)] == n) return true;
    return false;
  }
  friend bool operator==(const Cut& a, const Cut& b) {
    return a.size == b.size && a.leaves == b.leaves;
  }
};

/// Per-node cut sets for the whole AIG, stored CSR-style: one flat pool of
/// cuts plus per-node offsets, so the database is two allocations total and
/// per-cut side tables can be indexed flat by `offset(node) + cut_index`.
class CutDatabase {
 public:
  /// Enumerates cuts bottom-up, keeping at most `cut_limit` cuts per node
  /// (smallest-leaf-count first — a good priority for exact matching, and
  /// in the order first met within a size). Every node also keeps its
  /// trivial cut, last (leaf use).
  ///
  /// The pool is reserved once at its bound, ANDs × (cut_limit + 1) + the
  /// other nodes, and never reallocates. A node's merged cuts are collected
  /// in per-size buckets capped at cut_limit, duplicates looked for within
  /// a bucket only; a fanin cut's table is remapped onto the merged leaves
  /// by one 7 × 256 table load (docs/ALGORITHMS.md, "Technology mapping").
  CutDatabase(const aig::Aig& g, int cut_limit = 8);
  /// An empty database (of a graph with no nodes), to assign a built one to.
  CutDatabase() = default;

  [[nodiscard]] std::span<const Cut> cuts(std::uint32_t node) const {
    return {pool_.data() + offsets_[node], offsets_[node + 1] - offsets_[node]};
  }
  /// Flat pool index of `node`'s first cut.
  [[nodiscard]] std::size_t offset(std::uint32_t node) const { return offsets_[node]; }
  [[nodiscard]] std::size_t total_cuts() const { return pool_.size(); }

 private:
  std::vector<Cut> pool_;
  std::vector<std::uint32_t> offsets_;
};

}  // namespace vpga::synth

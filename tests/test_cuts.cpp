// Direct tests for the priority-cut enumeration (k = 3).

#include "synth/cuts.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "designs/designs.hpp"

namespace vpga::synth {
namespace {

using aig::Aig;
using aig::Lit;

TEST(Cuts, TwoInputAndHasFaninCut) {
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input();
  const Lit y = g.add_and(a, b);
  g.add_output(y);
  CutDatabase db(g);
  const auto& cuts = db.cuts(aig::node_of(y));
  ASSERT_GE(cuts.size(), 2u);  // fanin cut + trivial cut
  const Cut& c = cuts.front();
  EXPECT_EQ(c.size, 2);
  EXPECT_EQ(c.leaves[0], aig::node_of(a));
  EXPECT_EQ(c.leaves[1], aig::node_of(b));
  EXPECT_EQ(c.tt & 0xF, 0x8);  // and(a,b) in the low rows
}

TEST(Cuts, ThreeInputConeGetsFullCut) {
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input();
  const Lit c = g.add_input();
  const Lit y = g.add_and(g.add_and(a, b), c);
  g.add_output(y);
  CutDatabase db(g);
  bool found = false;
  for (const Cut& cut : db.cuts(aig::node_of(y))) {
    if (cut.size == 3) {
      EXPECT_EQ(cut.tt, 0x80);  // and3
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Cuts, TruthTablesRespectComplementedEdges) {
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input();
  const Lit y = g.add_and(aig::negate(a), b);  // ~a & b
  g.add_output(y);
  CutDatabase db(g);
  const Cut& c = db.cuts(aig::node_of(y)).front();
  ASSERT_EQ(c.size, 2);
  // Leaves sorted by node index: a first. rows ab: f = ~a & b -> row 2 only.
  EXPECT_EQ(c.tt & 0xF, 0x4);
}

TEST(Cuts, XorConeFunctionCorrect) {
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input();
  const Lit y = g.add_xor(a, b);  // complemented literal over an XNOR node
  g.add_output(y);
  CutDatabase db(g);
  // Cut functions describe the NODE (positive polarity): the xor literal's
  // node computes XNOR when the literal is complemented.
  const std::uint8_t expect = aig::is_complemented(y) ? 0x9 : 0x6;
  bool found = false;
  for (const Cut& c : db.cuts(aig::node_of(y)))
    if (c.size == 2 && (c.tt & 0xF) == expect) found = true;
  EXPECT_TRUE(found);
}

TEST(Cuts, LeavesSortedAndUnique) {
  const auto d = designs::make_alu(8);
  const auto m = aig::from_netlist(d.netlist);
  CutDatabase db(m.aig);
  for (std::uint32_t n = 1; n < m.aig.num_nodes(); ++n) {
    for (const Cut& c : db.cuts(n)) {
      for (int i = 1; i < c.size; ++i)
        EXPECT_LT(c.leaves[static_cast<std::size_t>(i - 1)],
                  c.leaves[static_cast<std::size_t>(i)]);
      EXPECT_GE(c.size, 1);
      EXPECT_LE(c.size, 3);
    }
  }
}

TEST(Cuts, CutCountBounded) {
  const auto d = designs::make_alu(8);
  const auto m = aig::from_netlist(d.netlist);
  const int limit = 6;
  CutDatabase db(m.aig, limit);
  for (std::uint32_t n = 1; n < m.aig.num_nodes(); ++n)
    EXPECT_LE(db.cuts(n).size(), static_cast<std::size_t>(limit) + 1);  // + trivial
}

TEST(Cuts, AllInputCutsMatchExhaustiveConeEvaluation) {
  // Property: when every leaf of a cut is a primary input, the cut's truth
  // table must equal the AIG evaluated over all leaf assignments (other
  // inputs held at 0 cannot influence the cone if the cut is correct only
  // when the node's cone support is inside the leaves — which holds exactly
  // for all-input cuts of nodes whose cone reaches only those inputs, so we
  // assert agreement whenever the evaluation is insensitive to the rest).
  const auto nl = designs::make_ripple_adder(4);
  const auto m = aig::from_netlist(nl);
  CutDatabase db(m.aig);
  int verified = 0;
  for (std::uint32_t n = 1; n < m.aig.num_nodes(); ++n) {
    if (!m.aig.node(n).is_and) continue;
    // Reference: n's value over all full input assignments.
    const std::size_t ni = m.aig.num_inputs();
    ASSERT_LE(ni, 16u);
    for (const Cut& c : db.cuts(n)) {
      if (c.size == 1 && c.leaves[0] == n) continue;
      bool all_inputs = true;
      for (int i = 0; i < c.size; ++i)
        all_inputs = all_inputs && m.aig.is_input(c.leaves[static_cast<std::size_t>(i)]);
      if (!all_inputs) continue;
      // Leaf index -> input position.
      std::array<std::size_t, 3> pos{};
      for (int i = 0; i < c.size; ++i)
        for (std::size_t k = 0; k < ni; ++k)
          if (m.aig.inputs()[k] == c.leaves[static_cast<std::size_t>(i)])
            pos[static_cast<std::size_t>(i)] = k;
      // Check f(n) == tt(leaf bits) on every full assignment: this is the
      // strongest statement — the cut tt explains the node completely.
      bool cut_explains = true;
      for (unsigned full = 0; full < (1u << ni) && cut_explains; ++full) {
        std::vector<bool> in(ni);
        for (std::size_t k = 0; k < ni; ++k) in[k] = (full >> k) & 1;
        // Evaluate node n by evaluating the whole graph.
        std::vector<bool> inputs = in;
        const auto outs = m.aig.eval(inputs);
        (void)outs;
        unsigned row = 0;
        for (int i = 0; i < c.size; ++i)
          if (in[pos[static_cast<std::size_t>(i)]]) row |= 1u << i;
        // Recompute node value directly.
        std::vector<char> val(m.aig.num_nodes(), 0);
        for (std::size_t k = 0; k < ni; ++k) val[m.aig.inputs()[k]] = in[k] ? 1 : 0;
        for (std::uint32_t v = 1; v <= n; ++v) {
          if (!m.aig.node(v).is_and) continue;
          const auto f0 = m.aig.node(v).fanin0, f1 = m.aig.node(v).fanin1;
          val[v] = static_cast<char>(
              (val[aig::node_of(f0)] ^ (aig::is_complemented(f0) ? 1 : 0)) &
              (val[aig::node_of(f1)] ^ (aig::is_complemented(f1) ? 1 : 0)));
        }
        cut_explains = val[n] == (((c.tt >> row) & 1) ? 1 : 0);
      }
      EXPECT_TRUE(cut_explains) << "node " << n;
      ++verified;
      break;  // one all-input cut per node keeps the test fast
    }
  }
  EXPECT_GT(verified, 5);
}

constexpr std::array<std::uint8_t, 3> kVar = {0xAA, 0xCC, 0xF0};

/// Value of node `n` on the 8 rows of cut `c`, one row per bit: leaf i reads
/// variable i of the row, except leaf `skip`, whose cone is evaluated too.
/// Empty if the cone reaches a combinational input or the constant without
/// passing a leaf.
std::optional<std::uint8_t> cone_value(const Aig& g, std::uint32_t n, const Cut& c, int skip,
                                       std::unordered_map<std::uint32_t, std::uint8_t>& memo) {
  for (int i = 0; i < c.size; ++i)
    if (i != skip && c.leaves[static_cast<std::size_t>(i)] == n)
      return kVar[static_cast<std::size_t>(i)];
  if (const auto it = memo.find(n); it != memo.end()) return it->second;
  if (!g.node(n).is_and) return std::nullopt;
  auto fanin = [&](Lit l) -> std::optional<std::uint8_t> {
    const auto v = cone_value(g, aig::node_of(l), c, skip, memo);
    if (!v || !aig::is_complemented(l)) return v;
    return static_cast<std::uint8_t>(~*v);
  };
  const auto f0 = fanin(g.node(n).fanin0);
  const auto f1 = f0 ? fanin(g.node(n).fanin1) : std::nullopt;
  if (!f1) return std::nullopt;
  const auto v = static_cast<std::uint8_t>(*f0 & *f1);
  memo.emplace(n, v);
  return v;
}

TEST(Cuts, EveryCutTableMatchesItsLocalCone) {
  // Every non-trivial cut's table must equal its root simulated over the
  // cut's own leaves, including cuts whose leaves are internal AND nodes:
  // those tables are remapped at every merge on the way up. A merged table
  // is exact only on leaf values the cone can produce: when one leaf is a
  // function of the others (alu8 keeps {a, b, and(a, b)} beside {a, b}), a
  // fanin's table computed through that leaf disagrees with the free-leaf
  // simulation on rows where the leaf contradicts the others. Those rows
  // never occur, so they are left out; every other row is compared.
  for (const auto& d : {designs::make_alu(8), designs::make_firewire(4, 8)}) {
    const auto m = aig::from_netlist(d.netlist);
    const CutDatabase db(m.aig);
    int checked = 0, internal_leaves = 0, determined_leaves = 0;
    std::unordered_map<std::uint32_t, std::uint8_t> memo;
    for (std::uint32_t n = 1; n < m.aig.num_nodes(); ++n) {
      if (!m.aig.node(n).is_and) continue;
      for (const Cut& c : db.cuts(n)) {
        if (c.size == 1 && c.leaves[0] == n) continue;
        auto care = static_cast<std::uint8_t>((1u << (1u << c.size)) - 1);
        for (int i = 0; i < c.size; ++i) {
          const auto leaf = c.leaves[static_cast<std::size_t>(i)];
          if (!m.aig.node(leaf).is_and) continue;
          ++internal_leaves;
          memo.clear();
          const auto from_others = cone_value(m.aig, leaf, c, i, memo);
          if (!from_others) continue;
          ++determined_leaves;
          care &= static_cast<std::uint8_t>(~(kVar[static_cast<std::size_t>(i)] ^ *from_others));
        }
        memo.clear();
        const auto value = cone_value(m.aig, n, c, -1, memo);
        ASSERT_TRUE(value.has_value()) << d.netlist.name() << " node " << n << ": not a cut";
        ASSERT_EQ(*value & care, c.tt & care) << d.netlist.name() << " node " << n;
        ++checked;
      }
    }
    EXPECT_GT(checked, 1000) << d.netlist.name();
    EXPECT_GT(internal_leaves, 10 * determined_leaves) << d.netlist.name();
  }
}

// --- Reference oracle -----------------------------------------------------

// The cut enumeration before the per-size buckets, the remap table and the
// bound reservation, kept verbatim as the oracle: a global duplicate check,
// a stable sort by size, a truncation to cut_limit, and a bit-by-bit remap.
namespace reference {

std::uint8_t remap(std::uint8_t tt, const Cut& from, const Cut& to) {
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
  c.tt = 0xAA;
  return c;
}

/// Every node's cut list, in order.
std::vector<std::vector<Cut>> enumerate(const Aig& g, int cut_limit) {
  std::vector<std::vector<Cut>> out(g.num_nodes());
  out[0].push_back(trivial_cut(0));
  std::vector<Cut> result;
  for (std::uint32_t n = 1; n < g.num_nodes(); ++n) {
    result.clear();
    if (g.node(n).is_and) {
      const auto f0 = g.node(n).fanin0;
      const auto f1 = g.node(n).fanin1;
      const std::vector<Cut> none;
      const auto& set0 = aig::node_of(f0) == 0 ? none : out[aig::node_of(f0)];
      const auto& set1 = aig::node_of(f1) == 0 ? none : out[aig::node_of(f1)];
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
      std::stable_sort(result.begin(), result.end(),
                       [](const Cut& a, const Cut& b) { return a.size < b.size; });
      if (static_cast<int>(result.size()) > cut_limit)
        result.resize(static_cast<std::size_t>(cut_limit));
    }
    result.push_back(trivial_cut(n));
    out[n] = result;
  }
  return out;
}

}  // namespace reference

/// A seeded random AIG: AND/XOR/MUX gates over inputs, earlier gates and the
/// constants, on complemented and plain edges, with a few outputs. Constant
/// operands exercise the folding rules; XOR and MUX give cuts that reconverge.
Aig random_aig(std::uint64_t seed, int inputs, int gates) {
  common::Rng rng(seed);
  Aig g;
  std::vector<Lit> pool = {aig::kFalse, aig::kTrue};
  for (int i = 0; i < inputs; ++i) pool.push_back(g.add_input());
  auto pick = [&] {
    const Lit l = pool[rng.next_below(pool.size())];
    return rng.next_below(2) != 0 ? aig::negate(l) : l;
  };
  for (int i = 0; i < gates; ++i) {
    const Lit a = pick();
    const Lit b = pick();
    switch (rng.next_below(4)) {
      case 0: pool.push_back(g.add_xor(a, b)); break;
      case 1: pool.push_back(g.add_mux(pick(), a, b)); break;
      default: pool.push_back(g.add_and(a, b)); break;
    }
  }
  for (int i = 0; i < 8; ++i) g.add_output(pick());
  return g;
}

void expect_same_cuts(const Aig& g, int cut_limit, const std::string& label) {
  const CutDatabase db(g, cut_limit);
  const auto expect = reference::enumerate(g, cut_limit);
  std::size_t total = 0;
  for (std::uint32_t n = 0; n < g.num_nodes(); ++n) {
    const auto got = db.cuts(n);
    const auto& want = expect[n];
    total += want.size();
    ASSERT_EQ(got.size(), want.size()) << label << " node " << n;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i].size, want[i].size) << label << " node " << n << " cut " << i;
      ASSERT_EQ(got[i].leaves, want[i].leaves) << label << " node " << n << " cut " << i;
      ASSERT_EQ(got[i].tt, want[i].tt) << label << " node " << n << " cut " << i;
    }
  }
  EXPECT_EQ(db.total_cuts(), total) << label;
}

TEST(Cuts, EnumerationMatchesReference) {
  // Every node's whole cut list, in order, against the enumeration it
  // replaced: on the paper designs and on random graphs with constant
  // operands and complemented edges, at the default limit and at limits
  // small enough that the size buckets overflow.
  for (const int limit : {1, 2, 8}) {
    for (const auto& d : designs::paper_suite(0.15)) {
      const auto m = aig::from_netlist(d.netlist);
      expect_same_cuts(m.aig, limit, d.netlist.name() + " limit " + std::to_string(limit));
    }
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
      const int inputs = 3 + static_cast<int>(seed % 6);
      const Aig g = random_aig(seed, inputs, 60 + 20 * static_cast<int>(seed % 5));
      expect_same_cuts(g, limit, "random seed " + std::to_string(seed) + " limit " +
                                     std::to_string(limit));
    }
  }
}

}  // namespace
}  // namespace vpga::synth

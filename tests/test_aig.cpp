// Tests for the and-inverter graph: hashing, folding, conversion round trips.

#include "aig/aig.hpp"

#include <gtest/gtest.h>

#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "designs/designs.hpp"
#include "netlist/bitsim.hpp"

namespace vpga::aig {
namespace {

TEST(Aig, ConstantFoldingRules) {
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input();
  EXPECT_EQ(g.add_and(a, kFalse), kFalse);
  EXPECT_EQ(g.add_and(kTrue, b), b);
  EXPECT_EQ(g.add_and(a, a), a);
  EXPECT_EQ(g.add_and(a, negate(a)), kFalse);
}

TEST(Aig, StructuralHashingDeduplicates) {
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input();
  const Lit x = g.add_and(a, b);
  const Lit y = g.add_and(b, a);  // commuted
  EXPECT_EQ(x, y);
  EXPECT_EQ(g.num_nodes(), 4u);  // const + 2 inputs + 1 and
}

TEST(Aig, XorEvaluates) {
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input();
  g.add_output(g.add_xor(a, b));
  for (int v = 0; v < 4; ++v) {
    const auto out = g.eval({(v & 1) != 0, (v & 2) != 0});
    EXPECT_EQ(out[0], ((v & 1) ^ ((v >> 1) & 1)) != 0);
  }
}

TEST(Aig, MuxEvaluates) {
  Aig g;
  const Lit s = g.add_input();
  const Lit d0 = g.add_input();
  const Lit d1 = g.add_input();
  g.add_output(g.add_mux(s, d0, d1));
  for (int v = 0; v < 8; ++v) {
    const bool sv = v & 1, d0v = (v >> 1) & 1, d1v = (v >> 2) & 1;
    EXPECT_EQ(g.eval({sv, d0v, d1v})[0], sv ? d1v : d0v);
  }
}

TEST(Aig, BuildFunctionMatchesTruthTable) {
  common::Rng rng(3);
  for (int iter = 0; iter < 100; ++iter) {
    const logic::TruthTable f(3, rng.next_u64() & 0xFF);
    Aig g;
    const std::vector<Lit> leaves = {g.add_input(), g.add_input(), g.add_input()};
    g.add_output(g.build_function(f, leaves));
    for (unsigned row = 0; row < 8; ++row) {
      const auto out = g.eval({(row & 1) != 0, (row & 2) != 0, (row & 4) != 0});
      EXPECT_EQ(out[0], f.eval(row)) << f.to_string() << " row " << row;
    }
  }
}

TEST(Aig, BuildFunctionHandlesConstantsAndLiterals) {
  Aig g;
  const std::vector<Lit> leaves = {g.add_input(), g.add_input()};
  EXPECT_EQ(g.build_function(logic::TruthTable::constant(2, false), leaves), kFalse);
  EXPECT_EQ(g.build_function(logic::TruthTable::constant(2, true), leaves), kTrue);
  EXPECT_EQ(g.build_function(logic::TruthTable::var(2, 0), leaves), leaves[0]);
  EXPECT_EQ(g.build_function(~logic::TruthTable::var(2, 1), leaves), negate(leaves[1]));
}

TEST(Aig, LevelsAndDepth) {
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input();
  const Lit c = g.add_input();
  const Lit x = g.add_and(a, b);
  const Lit y = g.add_and(x, c);
  g.add_output(y);
  EXPECT_EQ(g.depth(), 2);
  EXPECT_EQ(g.count_reachable_ands(), 2u);
}

TEST(Aig, RoundTripCombinational) {
  const auto nl = designs::make_ripple_adder(6);
  const auto m = from_netlist(nl);
  EXPECT_EQ(m.num_pis, nl.inputs().size());
  EXPECT_EQ(m.num_pos, nl.outputs().size());
  const auto back = to_netlist(m);
  EXPECT_TRUE(back.check().ok);
  EXPECT_FALSE(netlist::random_divergence(nl, back, 200));
}

TEST(Aig, RoundTripSequential) {
  const auto nl = designs::make_counter(5);
  const auto m = from_netlist(nl);
  EXPECT_EQ(m.num_latches, 5u);
  const auto back = to_netlist(m);
  EXPECT_TRUE(back.check().ok);
  EXPECT_FALSE(netlist::random_divergence(nl, back, 100));
}

TEST(Aig, RoundTripAlu) {
  const auto d = designs::make_alu(8);
  const auto m = from_netlist(d.netlist);
  const auto back = to_netlist(m);
  EXPECT_FALSE(netlist::random_divergence(d.netlist, back, 100));
}

TEST(Aig, RoundTripFirewire) {
  const auto d = designs::make_firewire(4, 8);
  const auto back = to_netlist(from_netlist(d.netlist));
  EXPECT_FALSE(netlist::random_divergence(d.netlist, back, 100));
}

TEST(Aig, HashingShrinksRedundantNetlists) {
  // Build the same function twice; strashing must share the structure.
  netlist::Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto x = nl.add_and(a, b);
  const auto y = nl.add_and(a, b);  // duplicate
  nl.add_output(nl.add_or(x, y), "o");
  const auto m = from_netlist(nl);
  EXPECT_EQ(m.aig.count_reachable_ands(), 1u);  // or of identical = identity
}

// The structural hash before the flat table, kept verbatim as the oracle:
// the same construction rules over a std::unordered_map keyed by the
// normalized fanin pair.
class ReferenceAig {
 public:
  ReferenceAig() { nodes_.push_back(Aig::Node{}); }

  Lit add_input() {
    Aig::Node n;
    n.is_and = false;
    nodes_.push_back(n);
    return lit(static_cast<std::uint32_t>(nodes_.size() - 1), false);
  }
  Lit add_and(Lit a, Lit b) {
    if (a == kFalse || b == kFalse) return kFalse;
    if (a == kTrue) return b;
    if (b == kTrue) return a;
    if (a == b) return a;
    if (a == negate(b)) return kFalse;
    if (a > b) std::swap(a, b);
    const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | b;
    if (auto it = strash_.find(key); it != strash_.end()) return lit(it->second, false);
    Aig::Node n;
    n.is_and = true;
    n.fanin0 = a;
    n.fanin1 = b;
    nodes_.push_back(n);
    const auto idx = static_cast<std::uint32_t>(nodes_.size() - 1);
    strash_.emplace(key, idx);
    return lit(idx, false);
  }
  Lit add_xor(Lit a, Lit b) {
    return negate(add_and(negate(add_and(a, negate(b))), negate(add_and(negate(a), b))));
  }
  Lit add_mux(Lit sel, Lit d0, Lit d1) {
    return negate(add_and(negate(add_and(negate(sel), d0)), negate(add_and(sel, d1))));
  }
  Lit build_function(const logic::TruthTable& f, std::span<const Lit> leaves) {
    if (f == logic::TruthTable::constant(f.num_vars(), false)) return kFalse;
    if (f == logic::TruthTable::constant(f.num_vars(), true)) return kTrue;
    if (f.num_vars() == 1) return f.eval(1) ? leaves[0] : negate(leaves[0]);
    const int v = f.num_vars() - 1;
    const auto f0 = f.cofactor(v, false);
    const auto f1 = f.cofactor(v, true);
    const auto sub = leaves.first(leaves.size() - 1);
    if (f0 == f1) return build_function(f0, sub);
    const Lit l0 = build_function(f0, sub);
    const Lit l1 = build_function(f1, sub);
    return add_mux(leaves[static_cast<std::size_t>(v)], l0, l1);
  }
  [[nodiscard]] const std::vector<Aig::Node>& nodes() const { return nodes_; }

 private:
  std::vector<Aig::Node> nodes_;
  std::unordered_map<std::uint64_t, std::uint32_t> strash_;
};

TEST(Aig, FlatStrashKeepsNodeNumbering) {
  // Seeded add_and / add_xor / add_mux / build_function sequences over
  // inputs, constants and earlier results, on both polarities: every
  // returned literal and every node must equal the reference's. Half-way
  // through each sequence the table is dropped, so its rebuild is checked
  // too.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    common::Rng rng(seed);
    Aig g;
    ReferenceAig ref;
    std::vector<Lit> pool = {kFalse, kTrue};
    auto pick = [&] {
      const Lit l = pool[rng.next_below(pool.size())];
      return rng.next_below(2) != 0 ? negate(l) : l;
    };
    const int steps = 200 + 100 * static_cast<int>(seed % 7);
    for (int step = 0; step < steps; ++step) {
      if (step == steps / 2) g.drop_strash();
      Lit got = kFalse, want = kFalse;
      const auto op = rng.next_below(pool.size() < 6 ? 1 : 5);
      if (op == 0) {
        got = g.add_input();
        want = ref.add_input();
      } else if (op == 1) {
        const Lit a = pick(), b = pick();
        got = g.add_and(a, b);
        want = ref.add_and(a, b);
      } else if (op == 2) {
        const Lit a = pick(), b = pick();
        got = g.add_xor(a, b);
        want = ref.add_xor(a, b);
      } else if (op == 3) {
        const Lit s = pick(), d0 = pick(), d1 = pick();
        got = g.add_mux(s, d0, d1);
        want = ref.add_mux(s, d0, d1);
      } else {
        const int vars = 1 + static_cast<int>(rng.next_below(4));
        std::vector<Lit> leaves;
        for (int i = 0; i < vars; ++i) leaves.push_back(pick());
        const logic::TruthTable f(vars, rng.next_u64());
        got = g.build_function(f, leaves);
        want = ref.build_function(f, leaves);
      }
      ASSERT_EQ(got, want) << "seed " << seed << " step " << step;
      pool.push_back(got);
    }
    ASSERT_EQ(g.num_nodes(), ref.nodes().size()) << "seed " << seed;
    for (std::uint32_t i = 0; i < g.num_nodes(); ++i) {
      ASSERT_EQ(g.node(i).is_and, ref.nodes()[i].is_and) << "seed " << seed << " node " << i;
      ASSERT_EQ(g.node(i).fanin0, ref.nodes()[i].fanin0) << "seed " << seed << " node " << i;
      ASSERT_EQ(g.node(i).fanin1, ref.nodes()[i].fanin1) << "seed " << seed << " node " << i;
    }
    EXPECT_GT(g.num_nodes(), 150u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace vpga::aig

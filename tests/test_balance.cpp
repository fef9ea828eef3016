// Tests for the AIG delay-balancing pass.

#include "aig/balance.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "designs/designs.hpp"
#include "netlist/simulate.hpp"

namespace vpga::aig {
namespace {

TEST(Balance, SkewedAndChainBecomesLogDepth) {
  // and(and(and(...a1, a2), a3) ... a16): depth 15 -> 4.
  Aig g;
  Lit acc = g.add_input();
  for (int i = 1; i < 16; ++i) acc = g.add_and(acc, g.add_input());
  g.add_output(acc);
  const auto r = balance(g);
  EXPECT_EQ(r.depth_before, 15);
  EXPECT_EQ(r.depth_after, 4);
  // Function preserved: all-ones input -> 1, any zero -> 0.
  std::vector<bool> in(16, true);
  EXPECT_TRUE(r.aig.eval(in)[0]);
  in[7] = false;
  EXPECT_FALSE(r.aig.eval(in)[0]);
}

TEST(Balance, OrChainThroughDeMorganAlsoShrinks) {
  // or-chain = complemented and-chain of complements: the tree boundary is a
  // complemented edge, so each 2-input or stays, but the inner and-tree of
  // its complement form balances. Verify function + no depth increase.
  Aig g;
  Lit acc = g.add_input();
  for (int i = 1; i < 12; ++i) acc = g.add_or(acc, g.add_input());
  g.add_output(acc);
  const auto r = balance(g);
  EXPECT_LE(r.depth_after, r.depth_before);
  std::vector<bool> in(12, false);
  EXPECT_FALSE(r.aig.eval(in)[0]);
  in[5] = true;
  EXPECT_TRUE(r.aig.eval(in)[0]);
}

TEST(Balance, PreservesFunctionOnRandomAigs) {
  common::Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    Aig g;
    std::vector<Lit> pool;
    for (int i = 0; i < 8; ++i) pool.push_back(g.add_input());
    for (int i = 0; i < 60; ++i) {
      const Lit a = pool[rng.next_below(pool.size())] ^ static_cast<Lit>(rng.next_below(2));
      const Lit b = pool[rng.next_below(pool.size())] ^ static_cast<Lit>(rng.next_below(2));
      pool.push_back(g.add_and(a, b));
    }
    for (int o = 0; o < 4; ++o) g.add_output(pool[pool.size() - 1 - o]);
    const auto r = balance(g);
    EXPECT_LE(r.depth_after, r.depth_before);
    for (int vec = 0; vec < 64; ++vec) {
      std::vector<bool> in(8);
      for (int i = 0; i < 8; ++i) in[static_cast<std::size_t>(i)] = rng.next_bool();
      EXPECT_EQ(g.eval(in), r.aig.eval(in)) << "trial " << trial;
    }
  }
}

TEST(Balance, SharedSubtreesNotDuplicated) {
  // x = and(a,b) feeds two consumers: balancing must not blow up node count.
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input();
  const Lit c = g.add_input();
  const Lit x = g.add_and(a, b);
  g.add_output(g.add_and(x, c));
  g.add_output(g.add_and(x, negate(c)));
  const auto r = balance(g);
  EXPECT_LE(r.aig.count_reachable_ands(), g.count_reachable_ands());
}

TEST(Balance, ConstantOutputsSurvive) {
  Aig g;
  const Lit a = g.add_input();
  g.add_output(g.add_and(a, negate(a)));  // folds to constant false
  g.add_output(kTrue);
  const auto r = balance(g);
  EXPECT_FALSE(r.aig.eval({true})[0]);
  EXPECT_TRUE(r.aig.eval({true})[1]);
}

TEST(Balance, RealDesignKeepsBehaviour) {
  const auto nl = designs::make_ripple_adder(8);
  auto m = from_netlist(nl);
  auto r = balance(m.aig);
  EXPECT_LE(r.depth_after, r.depth_before);
  AigMapping balanced{std::move(r.aig), m.num_pis, m.num_latches, m.num_pos, {}};
  const auto back = to_netlist(balanced);
  EXPECT_TRUE(netlist::equivalent_random_sim(nl, back, 300));
}

}  // namespace
}  // namespace vpga::aig

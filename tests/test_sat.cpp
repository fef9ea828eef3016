// Tests for the CDCL SAT solver (sat/solver.hpp): verdicts, models,
// assumptions, incremental reuse, conflict budgets, determinism, and
// decisions restricted to a circuit cone (with the miter encoder's cone
// listing, sat/cnf.hpp).

#include "sat/solver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "netlist/netlist.hpp"
#include "sat/cnf.hpp"

namespace vpga::sat {
namespace {

Lit pos(Var v) { return Lit(v, false); }
Lit neg(Var v) { return Lit(v, true); }

TEST(SatSolver, EmptyFormulaIsSat) {
  Solver s;
  EXPECT_EQ(s.solve(), Result::kSat);
}

TEST(SatSolver, UnitPropagationFixesModel) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_clause({pos(a)});
  s.add_clause({neg(a), pos(b)});
  ASSERT_EQ(s.solve(), Result::kSat);
  EXPECT_TRUE(s.model_value(a));
  EXPECT_TRUE(s.model_value(b));
}

TEST(SatSolver, ContradictoryUnitsAreUnsat) {
  Solver s;
  const Var a = s.new_var();
  s.add_clause({pos(a)});
  s.add_clause({neg(a)});
  EXPECT_EQ(s.solve(), Result::kUnsat);
  EXPECT_FALSE(s.ok());
}

TEST(SatSolver, EmptyClauseIsUnsat) {
  Solver s;
  (void)s.new_var();
  s.add_clause(std::initializer_list<Lit>{});
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(SatSolver, DuplicateAndTautologicalLiterals) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_clause({pos(a), pos(a), pos(a)});   // collapses to a unit
  s.add_clause({pos(b), neg(b), pos(a)});   // tautology, dropped
  ASSERT_EQ(s.solve(), Result::kSat);
  EXPECT_TRUE(s.model_value(a));
}

TEST(SatSolver, ModelSatisfiesEveryClause) {
  // 3-SAT instance with enough structure to force real search.
  Solver s;
  std::vector<Var> v;
  for (int i = 0; i < 12; ++i) v.push_back(s.new_var());
  std::vector<std::vector<Lit>> clauses;
  for (int i = 0; i + 2 < 12; ++i) {
    clauses.push_back({pos(v[i]), neg(v[i + 1]), pos(v[i + 2])});
    clauses.push_back({neg(v[i]), pos(v[i + 1]), neg(v[i + 2])});
  }
  for (const auto& c : clauses) s.add_clause(std::span<const Lit>(c));
  ASSERT_EQ(s.solve(), Result::kSat);
  for (const auto& c : clauses) {
    bool satisfied = false;
    for (const Lit l : c) satisfied |= s.model_value(l.var()) != l.negated();
    EXPECT_TRUE(satisfied);
  }
}

/// Pigeonhole principle PHP(n+1, n): n+1 pigeons in n holes, classically
/// hard for resolution — exercises learning, restarts and VSIDS.
void add_pigeonhole(Solver& s, int pigeons, int holes, std::vector<std::vector<Var>>& at) {
  at.assign(static_cast<std::size_t>(pigeons), {});
  for (int p = 0; p < pigeons; ++p)
    for (int h = 0; h < holes; ++h) at[static_cast<std::size_t>(p)].push_back(s.new_var());
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> any;
    for (int h = 0; h < holes; ++h) any.push_back(pos(at[static_cast<std::size_t>(p)][static_cast<std::size_t>(h)]));
    s.add_clause(std::span<const Lit>(any));
  }
  for (int h = 0; h < holes; ++h)
    for (int p1 = 0; p1 < pigeons; ++p1)
      for (int p2 = p1 + 1; p2 < pigeons; ++p2)
        s.add_clause({neg(at[static_cast<std::size_t>(p1)][static_cast<std::size_t>(h)]),
                      neg(at[static_cast<std::size_t>(p2)][static_cast<std::size_t>(h)])});
}

TEST(SatSolver, PigeonholeIsUnsat) {
  Solver s;
  std::vector<std::vector<Var>> at;
  add_pigeonhole(s, 6, 5, at);
  EXPECT_EQ(s.solve(), Result::kUnsat);
  EXPECT_GT(s.stats().conflicts, 0);
}

TEST(SatSolver, PigeonholeExactFitIsSat) {
  Solver s;
  std::vector<std::vector<Var>> at;
  add_pigeonhole(s, 5, 5, at);
  ASSERT_EQ(s.solve(), Result::kSat);
  // The model must place every pigeon in a distinct hole.
  std::vector<int> hole_of(5, -1);
  for (int p = 0; p < 5; ++p) {
    for (int h = 0; h < 5; ++h) {
      if (!s.model_value(at[static_cast<std::size_t>(p)][static_cast<std::size_t>(h)])) continue;
      EXPECT_EQ(hole_of[static_cast<std::size_t>(h)], -1);
      hole_of[static_cast<std::size_t>(h)] = p;
    }
  }
}

TEST(SatSolver, AssumptionsAreTemporary) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_clause({neg(a), pos(b)});
  const Lit assume_a[1] = {pos(a)};
  ASSERT_EQ(s.solve(std::span<const Lit>(assume_a, 1)), Result::kSat);
  EXPECT_TRUE(s.model_value(a));
  EXPECT_TRUE(s.model_value(b));
  // A conflicting assumption pair is UNSAT without poisoning the solver.
  s.add_clause({neg(b), neg(a)});
  ASSERT_EQ(s.solve(std::span<const Lit>(assume_a, 1)), Result::kUnsat);
  EXPECT_TRUE(s.ok());  // only unsat *under the assumption*
  EXPECT_EQ(s.solve(), Result::kSat);  // still satisfiable without it
}

TEST(SatSolver, IncrementalSelectorRetirement) {
  // The CEC usage pattern: miters guarded by selector variables, retired by
  // unit clauses after each query.
  Solver s;
  const Var x = s.new_var();
  const Var y = s.new_var();
  s.add_clause({pos(x), pos(y)});
  const Lit sel1(s.new_var(), false);
  s.add_clause({~sel1, neg(x)});
  s.add_clause({~sel1, neg(y)});
  const Lit a1[1] = {sel1};
  EXPECT_EQ(s.solve(std::span<const Lit>(a1, 1)), Result::kUnsat);
  s.add_clause({~sel1});  // retire
  const Lit sel2(s.new_var(), false);
  s.add_clause({~sel2, neg(x)});
  const Lit a2[1] = {sel2};
  ASSERT_EQ(s.solve(std::span<const Lit>(a2, 1)), Result::kSat);
  EXPECT_FALSE(s.model_value(x));
  EXPECT_TRUE(s.model_value(y));
}

TEST(SatSolver, ConflictBudgetReturnsUnknown) {
  Solver s;
  std::vector<std::vector<Var>> at;
  add_pigeonhole(s, 8, 7, at);
  EXPECT_EQ(s.solve({}, 5), Result::kUnknown);
  EXPECT_LE(s.stats().conflicts, 64);  // stopped early, not after full search
  // The solver remains usable: the full-budget answer is still reachable.
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(SatSolver, VerdictAndStatsAreDeterministic) {
  auto run = [] {
    Solver s;
    std::vector<std::vector<Var>> at;
    add_pigeonhole(s, 6, 5, at);
    EXPECT_EQ(s.solve(), Result::kUnsat);
    return s.stats();
  };
  const SolverStats first = run();
  for (int i = 0; i < 3; ++i) {
    const SolverStats again = run();
    EXPECT_EQ(again.conflicts, first.conflicts);
    EXPECT_EQ(again.decisions, first.decisions);
    EXPECT_EQ(again.propagations, first.propagations);
    EXPECT_EQ(again.restarts, first.restarts);
    EXPECT_EQ(again.learned_clauses, first.learned_clauses);
  }
}

TEST(SatSolver, ModelIsDeterministic) {
  auto run = [] {
    Solver s;
    std::vector<Var> v;
    for (int i = 0; i < 16; ++i) v.push_back(s.new_var());
    for (int i = 0; i + 2 < 16; i += 2)
      s.add_clause({Lit(v[static_cast<std::size_t>(i)], false),
                    Lit(v[static_cast<std::size_t>(i + 1)], true),
                    Lit(v[static_cast<std::size_t>(i + 2)], false)});
    EXPECT_EQ(s.solve(), Result::kSat);
    std::vector<bool> model;
    for (const Var var : v) model.push_back(s.model_value(var));
    return model;
  };
  EXPECT_EQ(run(), run());
}

/// A random Tseitin circuit: `inputs` free variables, then `gates` 2-input
/// AND/OR/XOR gates over random (possibly negated) earlier variables, with
/// every clause kept so models can be checked. fanins[v] lists a gate's
/// fanin variables (empty for inputs).
struct RandomCircuit {
  std::vector<std::vector<Lit>> clauses;
  std::vector<std::vector<Var>> fanins;

  RandomCircuit(Solver& s, common::Rng& rng, int inputs, int gates) {
    for (int i = 0; i < inputs; ++i) add_var(s);
    for (int g = 0; g < gates; ++g) {
      const Lit a(static_cast<Var>(rng.next_below(fanins.size())), rng.next_below(2) != 0);
      const Lit b(static_cast<Var>(rng.next_below(fanins.size())), rng.next_below(2) != 0);
      const Lit y(add_var(s), false);
      fanins[y.var()] = {a.var(), b.var()};
      switch (rng.next_below(3)) {
        case 0:  // y = a & b
          add(s, {~y, a});
          add(s, {~y, b});
          add(s, {y, ~a, ~b});
          break;
        case 1:  // y = a | b
          add(s, {y, ~a});
          add(s, {y, ~b});
          add(s, {~y, a, b});
          break;
        default:  // y = a ^ b
          add(s, {~y, a, b});
          add(s, {~y, ~a, ~b});
          add(s, {y, ~a, b});
          add(s, {y, a, ~b});
          break;
      }
    }
  }

  Var add_var(Solver& s) {
    fanins.emplace_back();
    return s.new_var();
  }
  void add(Solver& s, std::vector<Lit> c) {
    s.add_clause(std::span<const Lit>(c));
    clauses.push_back(std::move(c));
  }

  /// The variables of the cones of `roots`, each once.
  [[nodiscard]] std::vector<Var> cone(std::initializer_list<Var> roots) const {
    std::vector<Var> out;
    std::vector<std::uint8_t> seen(fanins.size(), 0);
    std::vector<Var> stack(roots);
    while (!stack.empty()) {
      const Var v = stack.back();
      stack.pop_back();
      if (v >= seen.size() || seen[v] != 0) continue;
      seen[v] = 1;
      out.push_back(v);
      for (const Var f : fanins[v]) stack.push_back(f);
    }
    return out;
  }
};

/// True when no clause has every literal assigned false in the model.
bool model_falsifies_nothing(const Solver& s, const std::vector<std::vector<Lit>>& clauses) {
  for (const auto& c : clauses) {
    bool open = false;
    for (const Lit l : c) open |= !s.in_model(l.var()) || s.model_value(l.var()) != l.negated();
    if (!open) return false;
  }
  return true;
}

/// One sweep-style query sequence: miters between random gate pairs, each
/// under a fresh selector that is retired afterwards, solved with decisions
/// restricted to the two cones or unrestricted. Returns the verdicts.
std::vector<Result> miter_sequence(std::uint64_t seed, bool restricted, SolverStats* stats) {
  Solver s;
  common::Rng rng(seed);
  RandomCircuit c(s, rng, 8, 60);
  std::vector<Result> verdicts;
  for (int q = 0; q < 12; ++q) {
    const Var a = static_cast<Var>(8 + rng.next_below(60));
    const Var b = static_cast<Var>(8 + rng.next_below(60));
    const Lit sel(c.add_var(s), false);
    c.add(s, {~sel, Lit(a, false), Lit(b, false)});
    c.add(s, {~sel, Lit(a, true), Lit(b, true)});
    const Lit assume[1] = {sel};
    const std::vector<Var> decisions = restricted ? c.cone({a, b}) : std::vector<Var>{};
    const Result res = s.solve(std::span<const Lit>(assume, 1), -1, decisions);
    if (res == Result::kSat) {
      EXPECT_TRUE(s.model_value(sel.var()));
      EXPECT_TRUE(model_falsifies_nothing(s, c.clauses)) << "seed " << seed << " query " << q;
    }
    verdicts.push_back(res);
    c.add(s, {~sel});
  }
  if (stats != nullptr) *stats = s.stats();
  return verdicts;
}

TEST(SatSolver, RestrictedDecisionsKeepCircuitVerdicts) {
  // On a Tseitin circuit the cone of the miter is closed under fanins, so a
  // conflict-free assignment of the cone extends to a full model: branching
  // only on it must give the unrestricted verdict on every query.
  int sat = 0, unsat = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const std::vector<Result> full = miter_sequence(seed, false, nullptr);
    const std::vector<Result> cone = miter_sequence(seed, true, nullptr);
    EXPECT_EQ(cone, full) << "seed " << seed;
    sat += static_cast<int>(std::count(full.begin(), full.end(), Result::kSat));
    unsat += static_cast<int>(std::count(full.begin(), full.end(), Result::kUnsat));
  }
  EXPECT_GT(sat, 0);    // both verdicts are exercised
  EXPECT_GT(unsat, 0);
}

TEST(SatSolver, RestrictedStatsAreDeterministic) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SolverStats first, again;
    miter_sequence(seed, true, &first);
    miter_sequence(seed, true, &again);
    EXPECT_EQ(again.conflicts, first.conflicts);
    EXPECT_EQ(again.decisions, first.decisions);
    EXPECT_EQ(again.propagations, first.propagations);
    EXPECT_EQ(again.restarts, first.restarts);
    EXPECT_EQ(again.learned_clauses, first.learned_clauses);
  }
}

TEST(SatSolver, RestrictedSolveStaysInsideTheCone) {
  // A small satisfiable cone next to thousands of free variables: the
  // unrestricted call must decide every one of them, the restricted call
  // decides only cone variables and leaves the rest out of its model.
  Solver s;
  common::Rng rng(7);
  RandomCircuit c(s, rng, 6, 20);
  for (int i = 0; i < 5000; ++i) c.add_var(s);
  const Var top = 6 + 19;
  const std::vector<Var> cone = c.cone({top});
  const Lit assume[1] = {Lit(top, false)};
  const Lit assume_not[1] = {Lit(top, true)};
  // One of the two phases of the top gate is satisfiable.
  const Lit* phase =
      s.solve(std::span<const Lit>(assume, 1), -1, cone) == Result::kSat ? assume : assume_not;
  const long long before = s.stats().decisions;
  ASSERT_EQ(s.solve(std::span<const Lit>(phase, 1), -1, cone), Result::kSat);
  EXPECT_LE(s.stats().decisions - before, static_cast<long long>(cone.size()));
  EXPECT_TRUE(model_falsifies_nothing(s, c.clauses));
  EXPECT_FALSE(s.in_model(static_cast<Var>(s.num_vars() - 1)));

  const long long restricted_end = s.stats().decisions;
  ASSERT_EQ(s.solve(std::span<const Lit>(phase, 1)), Result::kSat);
  EXPECT_GE(s.stats().decisions - restricted_end, 5000);
  EXPECT_TRUE(s.in_model(static_cast<Var>(s.num_vars() - 1)));
}

TEST(MiterEncoder, ConeVarsFollowGateFanins) {
  // y1 = a & b and y2 = c ^ d share no logic: each output's cone holds its
  // own gate and leaves only, and a joint call lists each variable once.
  netlist::Netlist nl("cones");
  const netlist::NodeId a = nl.add_input("a");
  const netlist::NodeId b = nl.add_input("b");
  const netlist::NodeId c = nl.add_input("c");
  const netlist::NodeId d = nl.add_input("d");
  const netlist::NodeId y1 = nl.add_and(a, b);
  const netlist::NodeId y2 = nl.add_xor(c, d);
  nl.add_output(y1, "y1");
  nl.add_output(y2, "y2");
  Solver s;
  MiterEncoder enc(nl, nl, s);
  const Lit l1 = enc.encode(MiterEncoder::Side::kGolden, y1);
  const Lit l2 = enc.encode(MiterEncoder::Side::kRevised, y2);
  auto sorted = [](std::span<const Var> cone) {
    std::vector<Var> v(cone.begin(), cone.end());
    std::sort(v.begin(), v.end());
    return v;
  };
  auto vars = [&](std::initializer_list<Var> v) { return sorted(std::vector<Var>(v)); };
  const Lit r1[1] = {l1};
  EXPECT_EQ(sorted(enc.cone_vars(r1)),
            vars({enc.input_lit(0).var(), enc.input_lit(1).var(), l1.var()}));
  const Lit r12[3] = {l1, ~l2, l1};
  EXPECT_EQ(sorted(enc.cone_vars(r12)),
            vars({enc.input_lit(0).var(), enc.input_lit(1).var(), enc.input_lit(2).var(),
                  enc.input_lit(3).var(), l1.var(), l2.var()}));
}

TEST(SatSolver, LubySequence) {
  // luby: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
  const long long expect[] = {1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8};
  for (int i = 0; i < 15; ++i) EXPECT_EQ(luby(i), expect[i]) << i;
}

}  // namespace
}  // namespace vpga::sat

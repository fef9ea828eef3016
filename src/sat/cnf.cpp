#include "sat/cnf.hpp"

#include "common/assert.hpp"

namespace vpga::sat {

using netlist::Netlist;
using netlist::Node;
using netlist::NodeId;
using netlist::NodeType;

MiterEncoder::MiterEncoder(const Netlist& golden, const Netlist& revised, Solver& solver,
                           std::span<const std::uint32_t> revised_state_map)
    : solver_(solver) {
  VPGA_ASSERT(golden.inputs().size() == revised.inputs().size());
  VPGA_ASSERT(golden.dffs().size() == revised.dffs().size());
  VPGA_ASSERT(revised_state_map.empty() || revised_state_map.size() == revised.dffs().size());
  sides_[0].nl = &golden;
  sides_[1].nl = &revised;
  sides_[0].lit_of.assign(golden.num_nodes(), kUnset);
  sides_[1].lit_of.assign(revised.num_nodes(), kUnset);
  // Shared leaf variables, allocated eagerly in interface order so the
  // variable numbering is independent of which cones get encoded later.
  input_lits_.reserve(golden.inputs().size());
  for (std::size_t i = 0; i < golden.inputs().size(); ++i) {
    input_lits_.push_back(Lit(solver_.new_var(), false));
  }
  state_lits_.reserve(golden.dffs().size());
  for (std::size_t i = 0; i < golden.dffs().size(); ++i) {
    state_lits_.push_back(Lit(solver_.new_var(), false));
  }
  bind_leaves(sides_[0], {});
  bind_leaves(sides_[1], revised_state_map);
}

void MiterEncoder::bind_leaves(SideState& ss, std::span<const std::uint32_t> state_map) {
  const Netlist& nl = *ss.nl;
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    ss.lit_of[nl.inputs()[i].index()] = input_lits_[i].code();
  }
  for (std::size_t i = 0; i < nl.dffs().size(); ++i) {
    const std::size_t leaf = state_map.empty() ? i : state_map[i];
    ss.lit_of[nl.dffs()[i].index()] = state_lits_[leaf].code();
  }
}

Lit MiterEncoder::const_lit(bool value) {
  if (!true_lit_.valid()) {
    true_lit_ = Lit(solver_.new_var(), false);
    solver_.add_clause({true_lit_});
  }
  return value ? true_lit_ : ~true_lit_;
}

Lit MiterEncoder::encode(Side side, NodeId node) {
  SideState& ss = sides_[static_cast<int>(side)];
  const Netlist& nl = *ss.nl;
  stack_.clear();
  stack_.push_back(node);
  while (!stack_.empty()) {
    const NodeId id = stack_.back();
    if (ss.lit_of[id.index()] != kUnset) {
      stack_.pop_back();
      continue;
    }
    const Node& n = nl.node(id);
    if (n.type == NodeType::kConst) {
      ss.lit_of[id.index()] = const_lit(n.func.eval(0)).code();
      stack_.pop_back();
      continue;
    }
    VPGA_ASSERT(n.type == NodeType::kComb && "encode roots must sit below the output shell");
    bool ready = true;
    for (const NodeId fi : nl.fanins(id)) {
      if (ss.lit_of[fi.index()] == kUnset) {
        stack_.push_back(fi);
        ready = false;
      }
    }
    if (!ready) continue;
    ss.lit_of[id.index()] = encode_comb(n, ss, id).code();
    stack_.pop_back();
  }
  return Lit::from_code(ss.lit_of[node.index()]);
}

Lit MiterEncoder::encode_comb(const Node& n, SideState& ss, NodeId id) {
  const Netlist& nl = *ss.nl;
  const logic::TruthTable f = n.func;
  const int k = f.num_vars();
  kid_buf_.clear();
  for (const NodeId fi : nl.fanins(id)) {
    kid_buf_.push_back(Lit::from_code(ss.lit_of[fi.index()]));
  }

  // Constant / buffer / inverter folding before any variable is spent.
  if (f.bits() == 0) return const_lit(false);
  if (f == logic::TruthTable::constant(k, true)) return const_lit(true);
  if (k == 1) {
    // Non-constant single-var function is the projection or its complement.
    return f.eval(1) ? kid_buf_[0] : ~kid_buf_[0];
  }

  // Structural hashing on (function word, fanin literals): an identical gate
  // anywhere in the pair reuses its variable.
  common::FnKey key;
  key.bits = f.bits();
  key.arity = static_cast<std::uint8_t>(k);
  for (int i = 0; i < k; ++i) key.kids[i] = kid_buf_[static_cast<std::size_t>(i)].code();
  const Lit fresh(static_cast<Var>(solver_.num_vars()), false);
  const std::uint32_t code = hashcons_.find_or_insert(key, fresh.code());
  if (code != fresh.code()) return Lit::from_code(code);

  // New gate: materialize the variable and its Tseitin row clauses
  // (row r: fanins == r implies y == f(r)).
  const Lit y(solver_.new_var(), false);
  VPGA_ASSERT(y == fresh);
  gate_at_.resize(solver_.num_vars(), kUnset);
  gate_at_[y.var()] = static_cast<std::uint32_t>(gate_kids_.size());
  gate_kids_.push_back(static_cast<std::uint32_t>(k));
  for (int i = 0; i < k; ++i) gate_kids_.push_back(key.kids[i]);
  for (unsigned r = 0; r < (1u << k); ++r) {
    clause_buf_.clear();
    for (int i = 0; i < k; ++i) {
      const Lit li = kid_buf_[static_cast<std::size_t>(i)];
      clause_buf_.push_back(((r >> i) & 1u) != 0 ? ~li : li);
    }
    clause_buf_.push_back(f.eval(r) ? y : ~y);
    solver_.add_clause(clause_buf_);
  }
  return y;
}

std::span<const Var> MiterEncoder::cone_vars(std::span<const Lit> roots) {
  visit_.resize(solver_.num_vars(), 0);
  ++visit_epoch_;
  cone_.clear();
  for (const Lit r : roots) {
    if (visit_[r.var()] == visit_epoch_) continue;
    visit_[r.var()] = visit_epoch_;
    cone_.push_back(r.var());
  }
  // cone_ doubles as the breadth-first worklist: each variable is expanded
  // once, in discovery order.
  for (std::size_t i = 0; i < cone_.size(); ++i) {
    const Var v = cone_[i];
    if (v >= gate_at_.size() || gate_at_[v] == kUnset) continue;
    const std::uint32_t at = gate_at_[v];
    for (std::uint32_t j = 1; j <= gate_kids_[at]; ++j) {
      const Var kid = Lit::from_code(gate_kids_[at + j]).var();
      if (visit_[kid] == visit_epoch_) continue;
      visit_[kid] = visit_epoch_;
      cone_.push_back(kid);
    }
  }
  return cone_;
}

}  // namespace vpga::sat

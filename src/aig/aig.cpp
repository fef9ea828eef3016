#include "aig/aig.hpp"

#include <algorithm>
#include <bit>

#include "common/assert.hpp"

namespace vpga::aig {

Aig::Aig() {
  nodes_.push_back(Node{});  // node 0: constant false
}

Lit Aig::add_input() {
  Node n;
  n.is_and = false;
  nodes_.push_back(n);
  const auto idx = static_cast<std::uint32_t>(nodes_.size() - 1);
  inputs_.push_back(idx);
  return lit(idx, false);
}

std::size_t Aig::strash_slot(Lit a, Lit b) const {
  // Fibonacci hashing: the top bits of the key times 2^64 / phi.
  const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | b;
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> strash_shift_);
}

void Aig::grow_strash() {
  std::size_t size = std::max<std::size_t>(64, 2 * strash_.size());
  while (2 * (num_ands_ + 1) > size) size *= 2;
  strash_.assign(size, 0);
  strash_shift_ = static_cast<std::uint32_t>(64 - std::countr_zero(size));
  const std::size_t mask = size - 1;
  for (std::uint32_t i = 1; i < nodes_.size(); ++i) {
    if (!nodes_[i].is_and) continue;
    std::size_t slot = strash_slot(nodes_[i].fanin0, nodes_[i].fanin1);
    while (strash_[slot] != 0) slot = (slot + 1) & mask;
    strash_[slot] = i;
  }
}

Lit Aig::add_and(Lit a, Lit b) {
  // Trivial rules.
  if (a == kFalse || b == kFalse) return kFalse;
  if (a == kTrue) return b;
  if (b == kTrue) return a;
  if (a == b) return a;
  if (a == negate(b)) return kFalse;
  if (a > b) std::swap(a, b);
  // Room for one more AND first, so a miss ends on the slot the new node
  // takes. This also rebuilds a table released by drop_strash().
  if (2 * (num_ands_ + 1) > strash_.size()) grow_strash();
  const std::size_t mask = strash_.size() - 1;
  std::size_t slot = strash_slot(a, b);
  for (; strash_[slot] != 0; slot = (slot + 1) & mask) {
    const Node& n = nodes_[strash_[slot]];
    if (n.fanin0 == a && n.fanin1 == b) return lit(strash_[slot], false);
  }
  Node n;
  n.is_and = true;
  n.fanin0 = a;
  n.fanin1 = b;
  nodes_.push_back(n);
  const auto idx = static_cast<std::uint32_t>(nodes_.size() - 1);
  strash_[slot] = idx;
  ++num_ands_;
  return lit(idx, false);
}

Lit Aig::add_xor(Lit a, Lit b) {
  return negate(add_and(negate(add_and(a, negate(b))), negate(add_and(negate(a), b))));
}

Lit Aig::add_mux(Lit sel, Lit d0, Lit d1) {
  return negate(add_and(negate(add_and(negate(sel), d0)), negate(add_and(sel, d1))));
}

Lit Aig::build_function(const logic::TruthTable& f, std::span<const Lit> leaves) {
  VPGA_ASSERT(static_cast<std::size_t>(f.num_vars()) == leaves.size());
  if (f == logic::TruthTable::constant(f.num_vars(), false)) return kFalse;
  if (f == logic::TruthTable::constant(f.num_vars(), true)) return kTrue;
  if (f.num_vars() == 1) return f.eval(1) ? leaves[0] : negate(leaves[0]);
  // Shannon on the last variable (keeps remaining leaf order stable).
  const int v = f.num_vars() - 1;
  const auto f0 = f.cofactor(v, false);
  const auto f1 = f.cofactor(v, true);
  const auto sub = leaves.first(leaves.size() - 1);
  if (f0 == f1) return build_function(f0, sub);
  const Lit l0 = build_function(f0, sub);
  const Lit l1 = build_function(f1, sub);
  return add_mux(leaves[static_cast<std::size_t>(v)], l0, l1);
}

std::size_t Aig::count_reachable_ands() const {
  std::vector<char> seen(nodes_.size(), 0);
  std::vector<std::uint32_t> stack;
  stack.reserve(nodes_.size());
  for (Lit o : outputs_) stack.push_back(node_of(o));
  std::size_t count = 0;
  while (!stack.empty()) {
    const auto i = stack.back();
    stack.pop_back();
    if (seen[i]) continue;
    seen[i] = 1;
    if (nodes_[i].is_and) {
      ++count;
      stack.push_back(node_of(nodes_[i].fanin0));
      stack.push_back(node_of(nodes_[i].fanin1));
    }
  }
  return count;
}

std::vector<int> Aig::levels() const {
  std::vector<int> level(nodes_.size(), 0);
  // Nodes are created in topological order (fanins precede fanouts).
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[i].is_and) continue;
    level[i] = 1 + std::max(level[node_of(nodes_[i].fanin0)],
                            level[node_of(nodes_[i].fanin1)]);
  }
  return level;
}

int Aig::depth() const {
  const auto level = levels();
  int d = 0;
  for (Lit o : outputs_) d = std::max(d, level[node_of(o)]);
  return d;
}

std::vector<bool> Aig::eval(const std::vector<bool>& in) const {
  VPGA_ASSERT(in.size() == inputs_.size());
  std::vector<char> val(nodes_.size(), 0);
  for (std::size_t i = 0; i < inputs_.size(); ++i) val[inputs_[i]] = in[i] ? 1 : 0;
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[i].is_and) continue;
    const auto v0 = val[node_of(nodes_[i].fanin0)] ^ (is_complemented(nodes_[i].fanin0) ? 1 : 0);
    const auto v1 = val[node_of(nodes_[i].fanin1)] ^ (is_complemented(nodes_[i].fanin1) ? 1 : 0);
    val[i] = static_cast<char>(v0 & v1);
  }
  std::vector<bool> out;
  out.reserve(outputs_.size());
  for (Lit o : outputs_)
    out.push_back((val[node_of(o)] ^ (is_complemented(o) ? 1 : 0)) != 0);
  return out;
}

AigMapping from_netlist(const netlist::Netlist& nl) {
  AigMapping m;
  std::vector<Lit> of(nl.num_nodes(), kFalse);
  for (netlist::NodeId id : nl.inputs()) of[id.index()] = m.aig.add_input();
  m.num_pis = nl.inputs().size();
  for (netlist::NodeId id : nl.dffs()) of[id.index()] = m.aig.add_input();
  m.num_latches = nl.dffs().size();
  for (netlist::NodeId id : nl.all_nodes()) {
    const auto& n = nl.node(id);
    if (n.type == netlist::NodeType::kConst)
      of[id.index()] = (n.func.bits() & 1) ? kTrue : kFalse;
  }
  std::vector<Lit> leaves;
  leaves.reserve(logic::TruthTable::kMaxVars);
  for (netlist::NodeId id : nl.topo_order()) {
    const auto& n = nl.node(id);
    const auto fins = nl.fanins(id);
    if (n.type == netlist::NodeType::kOutput) {
      of[id.index()] = of[fins[0].index()];
      continue;
    }
    leaves.clear();
    for (netlist::NodeId fi : fins) leaves.push_back(of[fi.index()]);
    of[id.index()] = m.aig.build_function(n.func, leaves);
  }
  for (netlist::NodeId id : nl.outputs()) m.aig.add_output(of[id.index()]);
  m.num_pos = nl.outputs().size();
  for (netlist::NodeId id : nl.dffs()) {
    const netlist::NodeId d = nl.fanin(id, 0);
    VPGA_ASSERT_MSG(d.valid(), "DFF left unconnected");
    m.aig.add_output(of[d.index()]);
  }
  m.node_lit = std::move(of);
  return m;
}

netlist::Netlist to_netlist(const AigMapping& m, const std::string& name) {
  netlist::Netlist nl(name);
  const Aig& aig = m.aig;
  std::vector<netlist::NodeId> of(aig.num_nodes());
  // Boundary inputs.
  std::vector<netlist::NodeId> dff_nodes;
  dff_nodes.reserve(aig.num_inputs() - m.num_pis);
  for (std::size_t i = 0; i < aig.num_inputs(); ++i) {
    if (i < m.num_pis) {
      of[aig.inputs()[i]] = nl.add_input("i" + std::to_string(i));
    } else {
      const auto ff = nl.add_dff(netlist::NodeId{}, "l" + std::to_string(i - m.num_pis));
      of[aig.inputs()[i]] = ff;
      dff_nodes.push_back(ff);
    }
  }
  const auto zero = nl.add_constant(false);
  of[0] = zero;
  for (std::uint32_t i = 0; i < aig.num_nodes(); ++i) {
    const auto& n = aig.node(i);
    if (!n.is_and) continue;
    auto input_of = [&](Lit l) {
      netlist::NodeId base = of[node_of(l)];
      return is_complemented(l) ? nl.add_not(base) : base;
    };
    of[i] = nl.add_and(input_of(n.fanin0), input_of(n.fanin1));
  }
  auto resolve = [&](Lit l) {
    const netlist::NodeId base = of[node_of(l)];
    return is_complemented(l) ? nl.add_not(base) : base;
  };
  for (std::size_t j = 0; j < aig.outputs().size(); ++j) {
    if (j < m.num_pos) {
      nl.add_output(resolve(aig.outputs()[j]), "o" + std::to_string(j));
    } else {
      nl.set_dff_input(dff_nodes[j - m.num_pos], resolve(aig.outputs()[j]));
    }
  }
  return nl;
}

}  // namespace vpga::aig

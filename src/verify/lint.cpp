#include "verify/lint.hpp"

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace vpga::verify {

using netlist::Netlist;
using netlist::Node;
using netlist::NodeId;
using netlist::NodeType;

namespace {

bool in_range(const Netlist& nl, NodeId id) {
  return id.valid() && id.index() < nl.num_nodes();
}

/// Per-node structural rules (arity, references, boundary conventions).
void lint_nodes(const Netlist& nl, const std::string& stage, VerifyReport& report) {
  for (std::size_t i = 0; i < nl.num_nodes(); ++i) {
    const NodeId id{i};
    const Node& n = nl.node(id);
    const auto fins = nl.fanins(id);

    for (std::size_t k = 0; k < fins.size(); ++k) {
      const NodeId fi = fins[k];
      if (!in_range(nl, fi)) {
        if (n.type == NodeType::kDff && !fi.valid()) {
          report.add(Severity::kError, "lint.undriven-dff", stage, id,
                     "DFF '" + nl.name_of(id) + "' has an unconnected D pin");
        } else {
          report.add(Severity::kError, "lint.invalid-fanin", stage, id,
                     "fanin " + std::to_string(k) + " is invalid or out of range");
        }
        continue;
      }
      if (nl.node(fi).type == NodeType::kOutput)
        report.add(Severity::kError, "lint.output-read", stage, id,
                   "fanin " + std::to_string(k) + " reads primary output '" +
                       nl.name_of(fi) + "'");
    }

    switch (n.type) {
      case NodeType::kComb:
        if (static_cast<std::size_t>(n.func.num_vars()) != fins.size())
          report.add(Severity::kError, "lint.arity-mismatch", stage, id,
                     "truth table has " + std::to_string(n.func.num_vars()) +
                         " vars but node has " + std::to_string(fins.size()) +
                         " fanins");
        break;
      case NodeType::kOutput:
        if (fins.size() != 1)
          report.add(Severity::kError, "lint.io-boundary", stage, id,
                     "primary output '" + nl.name_of(id) + "' must have exactly one fanin");
        break;
      case NodeType::kDff:
        if (fins.size() != 1)
          report.add(Severity::kError, "lint.io-boundary", stage, id,
                     "DFF '" + nl.name_of(id) + "' must have exactly one fanin (D)");
        break;
      case NodeType::kInput:
        if (!fins.empty())
          report.add(Severity::kError, "lint.io-boundary", stage, id,
                     "primary input '" + nl.name_of(id) + "' must not have fanins");
        break;
      case NodeType::kConst:
        if (!fins.empty())
          report.add(Severity::kError, "lint.io-boundary", stage, id,
                     "constant must not have fanins");
        else if (n.func.num_vars() != 0)
          report.add(Severity::kError, "lint.io-boundary", stage, id,
                     "constant must carry a 0-variable truth table");
        break;
    }
  }
}

/// DFF-aware combinational cycle detection (Kahn over comb/output nodes;
/// register outputs are sources, register D pins are sinks). Mirrors
/// Netlist::check() but reports instead of asserting and tolerates broken
/// references (they are reported separately by lint_nodes).
void lint_cycles(const Netlist& nl, const std::string& stage, VerifyReport& report) {
  const std::size_t n = nl.num_nodes();
  auto is_sink = [&](std::size_t i) {
    const NodeType t = nl.node(NodeId(i)).type;
    return t == NodeType::kComb || t == NodeType::kOutput;
  };
  // pending[i] = comb fanins of sink i; the comb fanout lists in CSR form
  // (fanout_begin / fanout_pool), each filled in ascending sink order.
  std::vector<int> pending(n, 0);
  std::vector<std::uint32_t> fanout_begin(n + 1, 0);
  std::size_t expected = 0;
  auto comb_fanin = [&](NodeId fi) {
    return in_range(nl, fi) && nl.node(fi).type == NodeType::kComb;
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (!is_sink(i)) continue;
    ++expected;
    for (NodeId fi : nl.fanins(NodeId(i))) {
      if (!comb_fanin(fi)) continue;
      ++pending[i];
      ++fanout_begin[fi.index() + 1];
    }
  }
  for (std::size_t i = 0; i < n; ++i) fanout_begin[i + 1] += fanout_begin[i];
  std::vector<std::uint32_t> fanout_pool(fanout_begin[n]);
  std::vector<std::uint32_t> fill(fanout_begin.begin(), fanout_begin.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    if (!is_sink(i)) continue;
    for (NodeId fi : nl.fanins(NodeId(i)))
      if (comb_fanin(fi)) fanout_pool[fill[fi.index()]++] = static_cast<std::uint32_t>(i);
  }
  std::vector<std::uint32_t> ready;
  ready.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    if (is_sink(i) && pending[i] == 0) ready.push_back(static_cast<std::uint32_t>(i));
  std::size_t visited = 0;
  while (!ready.empty()) {
    const std::uint32_t i = ready.back();
    ready.pop_back();
    ++visited;
    for (std::uint32_t e = fanout_begin[i]; e < fanout_begin[i + 1]; ++e)
      if (--pending[fanout_pool[e]] == 0) ready.push_back(fanout_pool[e]);
  }
  if (visited == expected) return;
  for (std::size_t i = 0; i < n; ++i) {
    if (is_sink(i) && pending[i] > 0) {
      report.add(Severity::kError, "lint.comb-cycle", stage, NodeId(i),
                 "combinational cycle through this node (" +
                     std::to_string(expected - visited) + " nodes unorderable)");
      return;  // one cycle diagnostic per run; members overlap heavily
    }
  }
}

/// Warning rules: dead logic and ambiguous names.
void lint_hygiene(const Netlist& nl, const std::string& stage, VerifyReport& report) {
  // Reverse reachability from observation points (primary outputs and
  // register D pins); a comb node outside every observed cone is dead.
  std::vector<char> reached(nl.num_nodes(), 0);
  std::vector<std::uint32_t> stack;
  auto push_root = [&](NodeId id) {
    if (in_range(nl, id) && !reached[id.index()]) {
      reached[id.index()] = 1;
      stack.push_back(id.value());
    }
  };
  for (NodeId id : nl.outputs()) push_root(id);
  for (NodeId id : nl.dffs()) push_root(id);
  while (!stack.empty()) {
    const NodeId id{static_cast<std::size_t>(stack.back())};
    stack.pop_back();
    for (NodeId fi : nl.fanins(id)) push_root(fi);
  }
  for (std::size_t i = 0; i < nl.num_nodes(); ++i) {
    const Node& n = nl.node(NodeId(i));
    if (n.type == NodeType::kComb && !reached[i])
      report.add(Severity::kWarning, "lint.unreachable", stage, NodeId(i),
                 "combinational node feeds no primary output or register");
  }

  // Keyed on views of the netlist's own name strings: no name is copied.
  std::size_t named = 0;
  for (std::size_t i = 0; i < nl.num_nodes(); ++i)
    if (!nl.name_of(NodeId(i)).empty()) ++named;
  std::unordered_map<std::string_view, std::size_t> first_named;
  first_named.reserve(named);
  for (std::size_t i = 0; i < nl.num_nodes(); ++i) {
    const std::string& name = nl.name_of(NodeId(i));
    if (name.empty()) continue;
    const auto [it, inserted] = first_named.emplace(name, i);
    if (!inserted)
      report.add(Severity::kWarning, "lint.duplicate-name", stage, NodeId(i),
                 "name '" + name + "' already used by node " +
                     std::to_string(it->second));
  }
}

}  // namespace

void lint_netlist(const Netlist& nl, const std::string& stage, VerifyReport& report) {
  lint_nodes(nl, stage, report);
  lint_cycles(nl, stage, report);
  lint_hygiene(nl, stage, report);
}

}  // namespace vpga::verify

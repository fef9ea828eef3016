#include "verify/equiv.hpp"

#include <string>
#include <vector>

#include "netlist/bitsim.hpp"
#include "obs/obs.hpp"

namespace vpga::verify {

using netlist::Netlist;
using netlist::NodeId;

namespace {

/// Transitive-fanin cone of one node: node count plus the primary inputs it
/// depends on (the region to inspect when this output diverges).
std::string describe_cone(const Netlist& nl, NodeId root) {
  std::vector<char> seen(nl.num_nodes(), 0);
  std::vector<std::uint32_t> stack;
  stack.reserve(nl.num_nodes());
  stack.push_back(root.value());
  seen[root.index()] = 1;
  int nodes = 0, inputs = 0;
  while (!stack.empty()) {
    const NodeId id{static_cast<std::size_t>(stack.back())};
    stack.pop_back();
    ++nodes;
    if (nl.node(id).type == netlist::NodeType::kInput) ++inputs;
    for (NodeId fi : nl.fanins(id)) {
      if (!fi.valid() || fi.index() >= nl.num_nodes() || seen[fi.index()]) continue;
      seen[fi.index()] = 1;
      stack.push_back(fi.value());
    }
  }
  return std::to_string(nodes) + " nodes / " + std::to_string(inputs) +
         " supporting inputs";
}

}  // namespace

void check_equivalence(const Netlist& golden, const Netlist& revised,
                       const std::string& stage, VerifyReport& report,
                       const EquivOptions& opts) {
  if (golden.inputs().size() != revised.inputs().size() ||
      golden.outputs().size() != revised.outputs().size()) {
    report.add(Severity::kError, "equiv.interface-mismatch", stage, NodeId{},
               "interface differs: " + std::to_string(golden.inputs().size()) + "/" +
                   std::to_string(golden.outputs().size()) + " PI/PO vs " +
                   std::to_string(revised.inputs().size()) + "/" +
                   std::to_string(revised.outputs().size()));
    return;
  }

  // 64 independent pattern streams per cycle, clocked in lockstep from reset.
  const auto div = netlist::random_divergence(golden, revised, opts.cycles, opts.seed);
  const int cycles = div ? div->cycle + 1 : opts.cycles;
  if (cycles > 0) obs::count("verify.equiv.vectors", 64LL * cycles);
  if (!div) return;
  // First diverging cone only; later mismatches are downstream noise.
  const NodeId out = revised.outputs()[div->output];
  report.add(Severity::kError, "equiv.output-diverges", stage, out,
             "output '" + revised.name_of(out) + "' (index " + std::to_string(div->output) +
                 ") diverges at cycle " + std::to_string(div->cycle) + ", pattern " +
                 std::to_string(div->pattern) + "; revised cone: " +
                 describe_cone(revised, out));
}

}  // namespace vpga::verify

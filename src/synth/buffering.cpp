#include "synth/buffering.hpp"

#include <cstdint>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace vpga::synth {

int insert_buffers(netlist::Netlist& nl, int max_fanout, const library::CellLibrary& lib) {
  VPGA_ASSERT(max_fanout >= 2);
  (void)lib;
  int inserted = 0;
  bool changed = true;
  // Sink references per driver in CSR form, rebuilt on every pass: driver
  // d's (consumer node, fanin pin) pairs are sink[offset[d], offset[d + 1]),
  // consumer ascending, then pin ascending. Hoisted out of the fixpoint loop
  // so later passes reuse the capacity.
  std::vector<std::uint32_t> offset;
  std::vector<std::uint32_t> cursor;
  std::vector<std::pair<netlist::NodeId, std::uint32_t>> sink;
  while (changed) {
    changed = false;
    const std::size_t original_count = nl.num_nodes();
    offset.assign(original_count + 1, 0);
    for (netlist::NodeId id : nl.all_nodes())
      for (const netlist::NodeId fi : nl.fanins(id))
        if (fi.valid()) ++offset[fi.index() + 1];
    for (std::size_t d = 0; d < original_count; ++d) offset[d + 1] += offset[d];
    cursor.assign(offset.begin(), offset.end() - 1);
    sink.resize(offset.back());
    for (netlist::NodeId id : nl.all_nodes()) {
      const auto fins = nl.fanins(id);
      for (std::size_t p = 0; p < fins.size(); ++p)
        if (fins[p].valid()) sink[cursor[fins[p].index()]++] = {id, static_cast<std::uint32_t>(p)};
    }
    for (std::size_t d = 0; d < original_count; ++d) {
      const netlist::NodeId driver(d);
      if (nl.node(driver).type == netlist::NodeType::kOutput) continue;
      if (offset[d + 1] - offset[d] <= static_cast<std::uint32_t>(max_fanout)) continue;
      // Keep the first max_fanout-1 sinks on the driver and move the rest
      // behind a buffer; iterating again balances deep trees.
      const auto buf = nl.add_comb(logic::TruthTable(1, 0b10), {driver});
      nl.node(buf).cell = library::CellKind::kBuf;
      for (std::uint32_t i = offset[d] + static_cast<std::uint32_t>(max_fanout - 1);
           i < offset[d + 1]; ++i)
        nl.set_fanin(sink[i].first, sink[i].second, buf);
      ++inserted;
      changed = true;
    }
  }
  return inserted;
}

}  // namespace vpga::synth

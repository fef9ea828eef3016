#include "timing/power.hpp"

#include <bit>
#include <cmath>

#include "common/rng.hpp"
#include "core/config.hpp"
#include "netlist/bitsim.hpp"

namespace vpga::timing {

PowerReport estimate_power(const netlist::Netlist& nl, const place::Placement& placed,
                           const PowerOptions& opts, const library::CellLibrary& lib) {
  PowerReport rep;
  rep.toggle_rate.assign(nl.num_nodes(), 0.0);
  if (opts.cycles <= 0 || nl.num_nodes() == 0) return rep;

  // --- switching activity by random simulation -------------------------------
  // 64 independent stimulus streams per cycle; a node's toggles in one cycle
  // are the lanes where its word changed since the previous cycle.
  netlist::BitSimulator sim(nl);
  common::Rng rng(opts.seed);
  std::vector<std::uint64_t> prev(nl.num_nodes(), 0);
  std::vector<int> toggles(nl.num_nodes(), 0);
  for (int cycle = 0; cycle < opts.cycles; ++cycle) {
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) sim.set_input(i, rng.next_u64());
    sim.eval();
    for (netlist::NodeId id : nl.all_nodes()) {
      const std::uint64_t v = sim.value(id);
      if (cycle > 0) toggles[id.index()] += std::popcount(v ^ prev[id.index()]);
      prev[id.index()] = v;
    }
    sim.step();
  }
  const double denom = 64.0 * std::max(1, opts.cycles - 1);
  for (netlist::NodeId id : nl.all_nodes())
    rep.toggle_rate[id.index()] = toggles[id.index()] / denom;

  // --- capacitance per net -----------------------------------------------------
  const auto& specs = core::config_specs(lib);
  auto input_cap = [&](const netlist::Node& n) {
    if (n.type == netlist::NodeType::kDff) return lib.spec(library::CellKind::kDff).input_cap_ff;
    if (n.type != netlist::NodeType::kComb) return 0.0;
    if (n.has_config()) return specs[n.config_tag].input_cap_ff;
    if (n.is_mapped()) return lib.spec(*n.cell).input_cap_ff;
    return lib.spec(library::CellKind::kNd2wi).input_cap_ff;
  };
  std::vector<double> cap_ff(nl.num_nodes(), 0.0);
  for (netlist::NodeId id : nl.all_nodes()) {
    const auto& n = nl.node(id);
    const double pin = input_cap(n);
    for (netlist::NodeId fi : nl.fanins(id)) {
      if (!fi.valid()) continue;
      cap_ff[fi.index()] += pin;
      if (opts.net_length_um.empty()) {
        const double dx = std::abs(placed.pos[id.index()].x - placed.pos[fi.index()].x);
        const double dy = std::abs(placed.pos[id.index()].y - placed.pos[fi.index()].y);
        cap_ff[fi.index()] += (dx + dy) * opts.process.wire_cap_ff_per_um;
      }
    }
  }
  if (!opts.net_length_um.empty())
    for (netlist::NodeId id : nl.all_nodes())
      cap_ff[id.index()] += opts.net_length_um[id.index()] * opts.process.wire_cap_ff_per_um;

  // --- P = 1/2 alpha C V^2 f -----------------------------------------------------
  const double f_hz = 1e12 / opts.clock_period_ps;
  const double v2 = opts.vdd * opts.vdd;
  double dynamic_w = 0.0;
  double rate_sum = 0.0;
  int nets = 0;
  for (netlist::NodeId id : nl.all_nodes()) {
    if (cap_ff[id.index()] <= 0.0) continue;
    dynamic_w += 0.5 * rep.toggle_rate[id.index()] * cap_ff[id.index()] * 1e-15 * v2 * f_hz;
    rate_sum += rep.toggle_rate[id.index()];
    ++nets;
  }
  rep.dynamic_mw = dynamic_w * 1e3;
  rep.avg_toggle_rate = nets > 0 ? rate_sum / nets : 0.0;

  // Clock network: every cycle both edges drive each DFF clock pin (cap
  // comparable to the D pin) plus distribution wiring (one tile pitch each).
  const double clk_pin_ff = lib.spec(library::CellKind::kDff).input_cap_ff;
  const double clk_cap = static_cast<double>(nl.dffs().size()) *
                         (clk_pin_ff + 8.0 * opts.process.wire_cap_ff_per_um);
  rep.clock_mw = clk_cap * 1e-15 * v2 * f_hz * 1e3;  // alpha = 1 (toggles every cycle)
  rep.total_mw = rep.dynamic_mw + rep.clock_mw;
  return rep;
}

}  // namespace vpga::timing

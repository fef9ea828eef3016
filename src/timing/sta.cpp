#include "timing/sta.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "core/config.hpp"
#include "obs/obs.hpp"

namespace vpga::timing {
namespace {

using netlist::Netlist;
using netlist::NodeId;
using netlist::NodeType;

struct NodeTiming {
  library::TimingArc arc;   // driving arc of the node's output
  double input_cap_ff = 0;  // per input pin
  double setup_ps = 0;      // DFF only
};

NodeTiming timing_of(const Netlist& nl, NodeId id, const library::CellLibrary& lib,
                     const std::array<core::ConfigSpec, core::kNumConfigKinds>& specs) {
  const auto& n = nl.node(id);
  NodeTiming t;
  if (n.type == NodeType::kDff) {
    const auto& s = lib.spec(library::CellKind::kDff);
    t.arc = s.arc;
    t.input_cap_ff = s.input_cap_ff;
    t.setup_ps = s.setup_ps;
    return t;
  }
  if (n.type != NodeType::kComb) return t;  // PI/PO/const: no arc
  if (n.has_config()) {
    const auto& s = specs[n.config_tag];
    t.arc = s.arc;
    t.input_cap_ff = s.input_cap_ff;
    return t;
  }
  VPGA_ASSERT_MSG(n.is_mapped(), "STA requires mapped or compacted netlists");
  const auto& s = lib.spec(*n.cell);
  t.arc = s.arc;
  t.input_cap_ff = s.input_cap_ff;
  return t;
}

}  // namespace

TimingReport analyze(const Netlist& nl, const place::Placement& placed,
                     const StaOptions& opts, const library::CellLibrary& lib) {
  const obs::Span span("sta.analyze");
  obs::count("sta.analyses");
  const double T = opts.clock_period_ps;
  const auto& proc = opts.process;

  // Per-node timing data and electrical loads.
  std::vector<NodeTiming> nt(nl.num_nodes());
  const auto& specs = core::config_specs(lib);
  for (NodeId id : nl.all_nodes()) nt[id.index()] = timing_of(nl, id, lib, specs);

  std::vector<double> load_ff(nl.num_nodes(), 0.0);  // pin + wire load per driver
  std::vector<double> wire_len(nl.num_nodes(), 0.0);
  for (NodeId id : nl.all_nodes()) {
    for (NodeId fi : nl.fanins(id)) {
      if (!fi.valid()) continue;
      load_ff[fi.index()] += nt[id.index()].input_cap_ff;
      if (opts.net_length_um.empty()) {
        const double dx = std::abs(placed.pos[id.index()].x - placed.pos[fi.index()].x);
        const double dy = std::abs(placed.pos[id.index()].y - placed.pos[fi.index()].y);
        wire_len[fi.index()] += dx + dy;
      }
    }
  }
  if (!opts.net_length_um.empty())
    for (NodeId id : nl.all_nodes()) wire_len[id.index()] = opts.net_length_um[id.index()];
  for (NodeId id : nl.all_nodes())
    load_ff[id.index()] += wire_len[id.index()] * proc.wire_cap_ff_per_um;

  // Elmore-style wire delay charged once per driven connection (lumped:
  // R_wire/2 * C_wire + negligible pin R); driver resistance effects are in
  // the cell slope * load term.
  auto wire_delay_ps = [&](NodeId driver) {
    const double l = wire_len[driver.index()];
    return 0.5 * proc.wire_res_ohm_per_um * l * proc.wire_cap_ff_per_um * l * 1e-3;
  };

  // Forward pass: arrival at each node's output.
  std::vector<double> arrival(nl.num_nodes(), 0.0);
  for (NodeId ff : nl.dffs())
    arrival[ff.index()] = nt[ff.index()].arc.delay(load_ff[ff.index()]);
  const auto& order = nl.topo_order();
  obs::count("sta.arrival_propagations", static_cast<long long>(order.size()));
  for (NodeId id : order) {
    const auto& n = nl.node(id);
    double in_arr = 0.0;
    for (NodeId fi : nl.fanins(id))
      if (fi.valid())
        in_arr = std::max(in_arr, arrival[fi.index()] + wire_delay_ps(fi));
    if (n.type == NodeType::kOutput) {
      arrival[id.index()] = in_arr;
    } else {
      arrival[id.index()] = in_arr + nt[id.index()].arc.delay(load_ff[id.index()]);
    }
  }

  // Endpoint slacks: POs and DFF D pins.
  TimingReport rep;
  std::vector<EndpointSlack> endpoints;
  endpoints.reserve(nl.outputs().size() + nl.dffs().size());
  for (NodeId id : nl.outputs())
    endpoints.push_back({id, T - arrival[id.index()]});
  for (NodeId ff : nl.dffs()) {
    const NodeId d = nl.fanin(ff, 0);
    VPGA_ASSERT(d.valid());
    endpoints.push_back(
        {ff, T - (arrival[d.index()] + wire_delay_ps(d)) - nt[ff.index()].setup_ps});
  }
  std::sort(endpoints.begin(), endpoints.end(),
            [](const EndpointSlack& a, const EndpointSlack& b) { return a.slack_ps < b.slack_ps; });
  rep.wns_ps = endpoints.empty() ? T : endpoints.front().slack_ps;
  rep.critical_delay_ps = T - rep.wns_ps;
  for (const auto& e : endpoints) {
    if (e.slack_ps < 0) rep.tns_ps += e.slack_ps;
  }
  const std::size_t topk = std::min<std::size_t>(10, endpoints.size());
  rep.top_endpoints.assign(endpoints.begin(), endpoints.begin() + static_cast<long>(topk));
  double sum = 0.0;
  for (const auto& e : rep.top_endpoints) sum += e.slack_ps;
  rep.avg_slack_top10_ps = topk > 0 ? sum / static_cast<double>(topk) : T;

  // Backward pass: required times -> per-node slack -> criticality.
  std::vector<double> required(nl.num_nodes(), 1e18);
  for (NodeId id : nl.outputs()) required[id.index()] = T;
  for (NodeId ff : nl.dffs()) {
    const NodeId d = nl.fanin(ff, 0);
    required[d.index()] = std::min(required[d.index()],
                                   T - nt[ff.index()].setup_ps - wire_delay_ps(d));
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId id = *it;
    const auto& n = nl.node(id);
    const double own_delay =
        n.type == NodeType::kOutput ? 0.0 : nt[id.index()].arc.delay(load_ff[id.index()]);
    const double req_at_inputs = required[id.index()] - own_delay;
    for (NodeId fi : nl.fanins(id))
      if (fi.valid())
        required[fi.index()] =
            std::min(required[fi.index()], req_at_inputs - wire_delay_ps(fi));
  }
  rep.criticality.assign(nl.num_nodes(), 0.0);
  for (NodeId id : nl.all_nodes()) {
    if (required[id.index()] > 1e17) continue;  // not on any timed path
    const double slack = required[id.index()] - arrival[id.index()];
    rep.criticality[id.index()] = std::clamp(1.0 - slack / std::max(1.0, T), 0.0, 1.0);
  }
  return rep;
}

}  // namespace vpga::timing

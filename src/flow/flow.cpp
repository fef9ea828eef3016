#include "flow/flow.hpp"

#include <cmath>
#include <optional>
#include <thread>

#include "common/assert.hpp"
#include "obs/obs.hpp"
#include "place/placement.hpp"
#include "route/router.hpp"
#include "synth/buffering.hpp"
#include "synth/mapper.hpp"

namespace vpga::flow {
namespace {

/// The flow body proper; run_flow wraps it in an ObsContext so every
/// obs::Span / obs::count below (and inside the stage modules) lands in this
/// run's report.
FlowReport run_flow_impl(const designs::BenchmarkDesign& design,
                         const core::PlbArchitecture& arch, char which,
                         const FlowOptions& opts) {
  FlowReport rep;
  rep.design = design.netlist.name();
  rep.arch = arch.name;
  rep.flow = which;
  rep.clock_period_ps = design.clock_period_ps;

  // Stage-boundary checker: every transformation below is bracketed by a
  // check() + enforce() pair, so an illegal IR state aborts the flow at the
  // boundary where it was introduced (docs/VERIFY.md).
  verify::VerifyOptions vopts;
  vopts.level = opts.verify_level;
  vopts.equiv.seed = opts.seed;
  vopts.cec = opts.cec;
  verify::FlowVerifier verifier(arch, vopts);
  const netlist::Netlist& golden = design.netlist;
  {
    const obs::Span span("stage.verify");
    verify::enforce(verifier.check(verify::Stage::kInput, golden));
  }

  // 1. Synthesis + technology mapping to the restricted component library
  //    (Design Compiler stage), delay-oriented. The mapping subject (the
  //    design's AIG and priority cuts) is built once here and shared with
  //    compaction's re-cover.
  std::optional<synth::Subject> subject;
  synth::MapResult mapped;
  {
    const obs::Span span("stage.map");
    subject.emplace(design.netlist);
    mapped = synth::tech_map(*subject, synth::cell_target(arch), synth::Objective::kDelay);
    verify::enforce(verifier.check(verify::Stage::kPostMap, mapped.netlist, &golden));
  }

  // 2. Regularity-driven logic compaction into PLB configurations (the
  //    re-cover runs on the pre-mapping structure; area is accounted against
  //    the mapped netlist, as the paper's flow does). The subject is dropped
  //    once compaction returns, so the physical stages do not carry it.
  compact::CompactionResult compacted;
  {
    const obs::Span span("stage.compact");
    compacted = compact::compact_from(*subject, mapped.netlist, arch);
    subject.reset();
    rep.compaction = compacted.report;
    verify::enforce(verifier.check(verify::Stage::kPostCompact, compacted.netlist, &golden));
  }

  // 3. Physical synthesis: high-fanout buffering, then detailed placement.
  {
    const obs::Span span("stage.buffer");
    synth::insert_buffers(compacted.netlist, opts.max_fanout);
    verify::enforce(verifier.check(verify::Stage::kPostBuffer, compacted.netlist, &golden));
  }
  const netlist::Netlist& nl = compacted.netlist;
  rep.gate_count_nand2 = nl.stats().nand2_equiv;

  place::PlacerOptions popts;
  popts.seed = opts.seed;
  popts.utilization = opts.asic_utilization;

  const library::EffortModel process;
  timing::StaOptions sta;
  sta.clock_period_ps = design.clock_period_ps;
  sta.process = process;

  place::Placement placed;
  {
    const obs::Span span("stage.place");
    const place::Placer placer(nl, popts);
    placed = placer.anneal({});
    // Timing-driven placement refinement (Dolphin's physical synthesis is
    // timing-driven): one STA pass feeds criticality weights into a second
    // anneal from the same spread.
    placed = placer.anneal(timing::analyze(nl, placed, sta).criticality);
  }

  if (which == 'a') {
    // flow a: ASIC implementation of the restricted-library netlist.
    rep.die_area_um2 = place::asic_die_area(nl, opts.asic_utilization);
    const double cell_pitch = std::max(4.0, placed.width_um / 64.0);
    route::RoutingResult routed;
    {
      const obs::Span span("stage.route");
      routed = route::route(nl, placed, cell_pitch);
    }
    rep.wirelength_um = routed.total_wirelength_um;
    rep.route_overflow_edges = routed.overflow_edges;
    rep.route_peak_congestion = routed.peak_congestion;
    sta.net_length_um = routed.net_length_um;
    const obs::Span span("stage.sta");
    const auto t = timing::analyze(nl, placed, sta);
    rep.avg_slack_top10_ps = t.avg_slack_top10_ps;
    rep.wns_ps = t.wns_ps;
    rep.critical_delay_ps = t.critical_delay_ps;
    rep.verify = verifier.report();
    return rep;
  }

  // flow b: legalize into the PLB array inside a timing-driven loop.
  pack::PackOptions packo;
  pack::PackedDesign packed;
  const int pack_iterations = std::max(1, opts.pack_timing_iterations);
  for (int iter = 0; iter < pack_iterations; ++iter) {
    const obs::Span span("stage.pack");
    obs::count("flow.pack_sta_iterations");
    packed = pack::pack(nl, placed, arch, packo);
    // Timing on the legalized design feeds criticality back into the next
    // packing round (the paper's packing <-> physical-synthesis iteration);
    // the last round has no next one to feed.
    if (iter + 1 < pack_iterations)
      packo.criticality = timing::analyze(nl, packed.legal, sta).criticality;
  }
  verify::enforce(verifier.check(verify::Stage::kPostPack, nl, &golden, &packed));

  rep.die_area_um2 = packed.die_area_um2;
  rep.plbs = packed.plbs_used;
  rep.max_displacement_um = packed.max_displacement_um;

  // ASIC-style global+detailed routing over the array (upper metal layers),
  // then the via-budget gate: the routed + configured design must fit the
  // tiles' candidate via sites.
  route::RoutingResult routed;
  {
    const obs::Span span("stage.route");
    routed = route::route(nl, packed.legal, packed.tile_size_um);
    verify::enforce(verifier.check(verify::Stage::kPostRoute, nl, nullptr, &packed));
  }
  rep.wirelength_um = routed.total_wirelength_um;
  rep.route_overflow_edges = routed.overflow_edges;
  rep.route_peak_congestion = routed.peak_congestion;
  sta.net_length_um = routed.net_length_um;
  const obs::Span span("stage.sta");
  const auto t = timing::analyze(nl, packed.legal, sta);
  rep.avg_slack_top10_ps = t.avg_slack_top10_ps;
  rep.wns_ps = t.wns_ps;
  rep.critical_delay_ps = t.critical_delay_ps;
  rep.verify = verifier.report();
  return rep;
}

}  // namespace

FlowReport run_flow(const designs::BenchmarkDesign& design, const core::PlbArchitecture& arch,
                    char which, const FlowOptions& opts) {
  VPGA_ASSERT(which == 'a' || which == 'b');
  // Forensics: dump the flight-recorder ring on terminate / fatal signal,
  // so any crash below ships its last-N-events context (events.hpp).
  obs::flight::install_crash_handlers();
  obs::ObsContext ctx(opts.trace, opts.metrics, opts.memtrack);
  const obs::ScopedObs bind(&ctx);
  obs::flight_event("flow.begin");
  obs::flight_event("flow.seed", static_cast<long long>(opts.seed));
  FlowReport rep = run_flow_impl(design, arch, which, opts);
  if (opts.memtrack) {
    // Run-wide totals alongside the per-span family published at span close.
    const obs::memtrack::Totals& t = ctx.memtracker().totals();
    ctx.metrics().add("flow.alloc_bytes", t.alloc_bytes);
    ctx.metrics().add("flow.alloc_count", t.alloc_count);
    ctx.metrics().add("flow.peak_live_bytes", t.peak_live_bytes);
  }
  rep.obs = ctx.report();
  obs::flight_event("flow.end");
  return rep;
}

DesignComparison compare_architectures(const designs::BenchmarkDesign& design,
                                       const FlowOptions& opts) {
  DesignComparison c;
  const auto gran = core::PlbArchitecture::granular();
  const auto lut = core::PlbArchitecture::lut_based();
  if (!opts.parallel_compare) {
    c.granular_a = run_flow(design, gran, 'a', opts);
    c.granular_b = run_flow(design, gran, 'b', opts);
    c.lut_a = run_flow(design, lut, 'a', opts);
    c.lut_b = run_flow(design, lut, 'b', opts);
    return c;
  }
  // The four runs share only immutable inputs (design, architectures, opts);
  // each run_flow binds a fresh thread-local ObsContext, so traces and
  // metrics never interleave and the reports match the serial path exactly.
  std::thread tga([&] { c.granular_a = run_flow(design, gran, 'a', opts); });
  std::thread tgb([&] { c.granular_b = run_flow(design, gran, 'b', opts); });
  std::thread tla([&] { c.lut_a = run_flow(design, lut, 'a', opts); });
  std::thread tlb([&] { c.lut_b = run_flow(design, lut, 'b', opts); });
  tga.join();
  tgb.join();
  tla.join();
  tlb.join();
  return c;
}

}  // namespace vpga::flow

// Engineering microbenchmarks (google-benchmark): throughput of the CAD
// kernels that dominate the flow's runtime. Not a paper figure — used to
// keep the paper-scale benches tractable.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "aig/aig.hpp"
#include "common/rng.hpp"
#include "compact/compact.hpp"
#include "compact/flowmap.hpp"
#include "designs/designs.hpp"
#include "logic/s3.hpp"
#include "netlist/bitsim.hpp"
#include "obs/events.hpp"
#include "obs/memtrack.hpp"
#include "obs/obs.hpp"
#include "pack/packer.hpp"
#include "place/placement.hpp"
#include "synth/cuts.hpp"
#include "synth/mapper.hpp"
#include "timing/sta.hpp"
#include "verify/cec.hpp"

namespace {

using namespace vpga;

void BM_S3Analysis(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(logic::analyze_s3());
}
BENCHMARK(BM_S3Analysis);

void BM_AigConstruction(benchmark::State& state) {
  const auto nl = designs::make_ripple_adder(static_cast<int>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(aig::from_netlist(nl));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AigConstruction)->Arg(16)->Arg(64)->Complexity();

void BM_CutEnumeration(benchmark::State& state) {
  const auto d = designs::make_alu(static_cast<int>(state.range(0)));
  const auto m = aig::from_netlist(d.netlist);
  for (auto _ : state) benchmark::DoNotOptimize(synth::CutDatabase(m.aig));
}
BENCHMARK(BM_CutEnumeration)->Arg(8)->Arg(32);

void BM_TechMap(benchmark::State& state) {
  const auto d = designs::make_alu(static_cast<int>(state.range(0)));
  const auto target = synth::cell_target(core::PlbArchitecture::granular());
  for (auto _ : state)
    benchmark::DoNotOptimize(synth::tech_map(d.netlist, target, synth::Objective::kDelay));
}
BENCHMARK(BM_TechMap)->Arg(8)->Arg(32);

// The hottest flow stage (BENCH_flow.json: ~65% of wall-clock): the full
// pricing-round loop — three priced re-covers plus FA fusion and pool
// rebalancing — over a mapped ALU.
void BM_Compact(benchmark::State& state) {
  const auto d = designs::make_alu(static_cast<int>(state.range(0)));
  const auto arch = core::PlbArchitecture::granular();
  const auto mapped =
      synth::tech_map(d.netlist, synth::cell_target(arch), synth::Objective::kDelay);
  for (auto _ : state) benchmark::DoNotOptimize(compact::compact(mapped.netlist, arch));
}
BENCHMARK(BM_Compact)->Arg(8)->Arg(32);

// The exact-equivalence kernel: per-output miter proofs of a tech-mapped
// ripple adder against its golden generator netlist.
//   0: cheap-first tier ladder as shipped (every cone retires exhaustively)
//   1: SAT-only — the exhaustive tier is disabled, so every cone that
//      survives hashing and small truth tables goes to the CDCL miter
void BM_CecMiter(benchmark::State& state) {
  const auto nl = designs::make_ripple_adder(12);
  const auto target = synth::cell_target(core::PlbArchitecture::granular());
  const auto mapped = synth::tech_map(nl, target, synth::Objective::kDelay);
  verify::CecOptions opts;
  if (state.range(0) == 1) opts.max_exhaustive_inputs = 0;
  for (auto _ : state) {
    verify::VerifyReport report;
    verify::check_cec(nl, mapped.netlist, "bench", report, opts);
    benchmark::DoNotOptimize(report.error_count());
  }
}
BENCHMARK(BM_CecMiter)->Arg(0)->Arg(1);

// The BDD-tier claim: XOR-dominated cones are linear for ROBDDs and
// exponential for CDCL clause learning. A 24-bit parity cone, forward fold
// vs a fixed pseudo-random fold (the miter is a Tseitin formula over the
// union of two Hamiltonian paths — an expander, the resolution-hard family):
//   0: BDD tier forced (the shipped closing tier for such cones)
//   1: SAT-only, conflict budget capped at 4096 so the arm stays affordable —
//      the point comes back *undecided*, i.e. this measures a small fraction
//      of the real SAT cost, and CI still asserts the BDD arm wins 10x.
void BM_BddCec(benchmark::State& state) {
  netlist::Netlist fwd("parity_fwd");
  netlist::Netlist shuf("parity_shuf");
  constexpr int kWidth = 24;
  std::vector<netlist::NodeId> xf, xs;
  for (int i = 0; i < kWidth; ++i) {
    const std::string name = "x" + std::to_string(i);
    xf.push_back(fwd.add_input(name));
    xs.push_back(shuf.add_input(name));
  }
  std::vector<std::size_t> ord(kWidth);
  for (std::size_t i = 0; i < ord.size(); ++i) ord[i] = i;
  std::uint64_t seed = 0x9E3779B97F4A7C15ull;  // deterministic Fisher-Yates
  for (std::size_t i = ord.size() - 1; i > 0; --i) {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    std::swap(ord[i], ord[(seed >> 33) % (i + 1)]);
  }
  netlist::NodeId af = xf[0], as = xs[ord[0]];
  for (std::size_t i = 1; i < ord.size(); ++i) {
    af = fwd.add_xor(af, xf[i]);
    as = shuf.add_xor(as, xs[ord[i]]);
  }
  fwd.add_output(af, "p");
  shuf.add_output(as, "p");
  verify::CecOptions opts;
  opts.sat_sweep = false;
  if (state.range(0) == 0) {
    opts.force_bdd = true;
  } else {
    opts.bdd_tier = false;
    opts.sat_conflict_budget = 4096;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(verify::check_combinational_equivalence(fwd, shuf, opts));
  }
}
BENCHMARK(BM_BddCec)->Arg(0)->Arg(1);

// One eval() of the bit simulator's compiled lut3() program over the mapped
// 4x16 switch, the verify_exact design whose proofs and random-stimulus
// set-up run the simulator most; inputs and registers hold random words.
//   0: 64 patterns per node (BitSimulator)
//   1: 256 patterns per node (BasicBitSimulator<Word256>)
template <class W>
void bitsim_eval(benchmark::State& state, const netlist::Netlist& nl) {
  common::Rng rng(1);
  auto random_word = [&rng] {
    if constexpr (std::is_same_v<W, std::uint64_t>) {
      return rng.next_u64();
    } else {
      W w;
      for (std::uint64_t& x : w.w) x = rng.next_u64();
      return w;
    }
  };
  netlist::BasicBitSimulator<W> sim(nl);
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) sim.set_input(i, random_word());
  for (std::size_t d = 0; d < nl.dffs().size(); ++d) sim.set_state(d, random_word());
  for (auto _ : state) {
    sim.eval();
    benchmark::DoNotOptimize(sim.output(0));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(nl.num_nodes()));
}

void BM_BitSimEval(benchmark::State& state) {
  const auto d = designs::make_network_switch(4, 16);
  const auto mapped = synth::tech_map(
      d.netlist, synth::cell_target(core::PlbArchitecture::granular()), synth::Objective::kDelay);
  if (state.range(0) == 0) bitsim_eval<std::uint64_t>(state, mapped.netlist);
  else bitsim_eval<netlist::Word256>(state, mapped.netlist);
}
BENCHMARK(BM_BitSimEval)->Arg(0)->Arg(1);

void BM_FlowMapLabels(benchmark::State& state) {
  const auto nl = designs::make_ripple_adder(static_cast<int>(state.range(0)));
  const auto m = aig::from_netlist(nl);
  for (auto _ : state) benchmark::DoNotOptimize(compact::flowmap_labels(m.aig));
}
BENCHMARK(BM_FlowMapLabels)->Arg(16)->Arg(64);

struct Prepared {
  netlist::Netlist nl;
  place::Placement placed;
};

Prepared prepare(int width) {
  const auto d = designs::make_alu(width);
  const auto arch = core::PlbArchitecture::granular();
  auto mapped = synth::tech_map(d.netlist, synth::cell_target(arch), synth::Objective::kDelay);
  auto comp = compact::compact(mapped.netlist, arch);
  Prepared p{std::move(comp.netlist), {}};
  p.placed = place::place(p.nl);
  return p;
}

void BM_Place(benchmark::State& state) {
  const auto p = prepare(static_cast<int>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(place::place(p.nl));
}
BENCHMARK(BM_Place)->Arg(8)->Arg(32);

void BM_Pack(benchmark::State& state) {
  const auto p = prepare(static_cast<int>(state.range(0)));
  const auto arch = core::PlbArchitecture::granular();
  for (auto _ : state) benchmark::DoNotOptimize(pack::pack(p.nl, p.placed, arch));
}
BENCHMARK(BM_Pack)->Arg(8)->Arg(32);

void BM_Sta(benchmark::State& state) {
  const auto p = prepare(static_cast<int>(state.range(0)));
  timing::StaOptions o;
  o.clock_period_ps = 4500;
  for (auto _ : state) benchmark::DoNotOptimize(timing::analyze(p.nl, p.placed, o));
}
BENCHMARK(BM_Sta)->Arg(8)->Arg(32);

// The observability claim: kernels pay nothing when tracing/metrics are off.
// BM_Sta runs the most instrumented kernel with no bound context; the pair
// below measures the raw disabled instrumentation points themselves.
void BM_ObsDisabledInstrumentation(benchmark::State& state) {
  for (auto _ : state) {
    const obs::Span s("bench.span");
    obs::count("bench.counter");
    obs::observe("bench.histogram", 1.0);
  }
}
BENCHMARK(BM_ObsDisabledInstrumentation);

// Metrics only: an enabled tracer keeps every span, which would grow without
// bound across benchmark iterations.
void BM_ObsEnabledMetrics(benchmark::State& state) {
  obs::ObsContext ctx(/*trace=*/false, /*metrics=*/true);
  const obs::ScopedObs bind(&ctx);
  for (auto _ : state) {
    obs::count("bench.counter");
    obs::observe("bench.histogram", 1.0);
  }
}
BENCHMARK(BM_ObsEnabledMetrics);

// Always-on observability overhead on a real kernel: BM_FlowMapLabels/16
// wrapped in one span per iteration, under three recorder states —
//   0: flight recorder off (VPGA_FLIGHT=0 equivalent)
//   1: flight recorder on (the shipped default)
//   2: flight on + memtrack bound (FlowOptions::memtrack)
// CI asserts state 1 stays within 2% of state 0 (the "always on at bounded
// cost" claim in events.hpp).
void BM_ObsOverhead(benchmark::State& state) {
  const auto nl = designs::make_ripple_adder(16);
  const auto m = aig::from_netlist(nl);
  const bool was_enabled = obs::flight::enabled();
  obs::flight::set_enabled(state.range(0) >= 1);
  obs::memtrack::MemTracker tracker;
  const obs::memtrack::ScopedMemTrack bind(state.range(0) >= 2 ? &tracker : nullptr);
  for (auto _ : state) {
    const obs::Span s("stage.map");
    benchmark::DoNotOptimize(compact::flowmap_labels(m.aig));
  }
  obs::flight::set_enabled(was_enabled);
}
BENCHMARK(BM_ObsOverhead)->Arg(0)->Arg(1)->Arg(2);

}  // namespace

BENCHMARK_MAIN();

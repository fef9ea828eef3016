#pragma once
/// \file flow.hpp
/// The paper's end-to-end design flows (Figure 6).
///
///   flow a — the standard-cell ASIC flow using the restricted library of
///            PLB component cells (the Packing step is skipped);
///   flow b — the full VPGA flow: the compacted design is legalized into a
///            regular PLB array by the packer, inside an iterative loop with
///            timing analysis (the paper's packing <-> Dolphin loop), then
///            routed over the array and timed post-layout.
///
/// Both flows share synthesis, mapping, compaction, buffering, placement,
/// routing and STA, so the a/b deltas isolate exactly what the paper's
/// Tables 1 and 2 measure: the cost of regularity and the quality of the PLB
/// architecture.

#include <string>

#include "compact/compact.hpp"
#include "core/plb.hpp"
#include "designs/designs.hpp"
#include "obs/obs.hpp"
#include "pack/packer.hpp"
#include "timing/sta.hpp"
#include "verify/verify.hpp"

namespace vpga::flow {

struct FlowOptions {
  std::uint64_t seed = 1;
  /// Packing <-> timing iterations in flow b (paper: "This iteration loop is
  /// repeated until all the components have been alloted legal locations").
  int pack_timing_iterations = 2;
  int max_fanout = 8;
  double asic_utilization = 0.85;
  /// Stage-boundary verification (docs/VERIFY.md). Every stage of either
  /// flow is bracketed by checker calls; the flow aborts on error-severity
  /// findings. kLintEquiv additionally checks each stage against the input
  /// design on random stimulus; kExact proves equivalence with the SAT-backed
  /// miter checker (src/verify/cec.hpp), tuned by `cec`.
  verify::VerifyLevel verify_level = verify::VerifyLevel::kLint;
  /// Exact-equivalence knobs (tier ceilings, SAT conflict budget); only read
  /// at verify_level kExact.
  verify::CecOptions cec;
  /// Record a nested span tree of the run (docs/OBSERVABILITY.md); exported
  /// from FlowReport::obs as Chrome trace-event JSON. Off = zero overhead.
  bool trace = false;
  /// Record named work counters/gauges/histograms from every stage.
  bool metrics = false;
  /// Attribute heap allocations (bytes, count, peak live) to the innermost
  /// active span via the global operator new/delete hooks; surfaces as the
  /// "<span>.alloc_bytes" counter family and per-span trace args. Off =
  /// zero overhead beyond one thread-local load per allocation, and the
  /// flow result is byte-identical either way (tests/test_determinism.cpp).
  bool memtrack = false;
  /// Run compare_architectures' four flows on four threads. Each run binds
  /// its own ObsContext, so traces/metrics stay per-run; results are
  /// deterministic and identical to the serial path.
  bool parallel_compare = false;
};

struct FlowReport {
  std::string design;
  std::string arch;
  char flow = 'a';
  double clock_period_ps = 0.0;
  double gate_count_nand2 = 0.0;       ///< paper Table 2 "No. of gates"
  double die_area_um2 = 0.0;           ///< paper Table 1
  double avg_slack_top10_ps = 0.0;     ///< paper Table 2
  double wns_ps = 0.0;
  double critical_delay_ps = 0.0;
  double wirelength_um = 0.0;
  /// Router legality: edges over capacity after negotiation and the peak
  /// edge usage / capacity (route::RoutingResult).
  int route_overflow_edges = 0;
  double route_peak_congestion = 0.0;
  int plbs = 0;                        ///< flow b only
  double max_displacement_um = 0.0;    ///< flow b legalization perturbation
  compact::CompactionReport compaction;
  /// Findings from all stage-boundary checks (empty at verify_level kOff;
  /// never contains errors — those abort the flow).
  verify::VerifyReport verify;
  /// Trace spans + metrics of this run (empty unless FlowOptions::trace /
  /// metrics were set; see docs/OBSERVABILITY.md).
  obs::ObsReport obs;
};

/// Runs one flow (a or b) for one design on one PLB architecture.
FlowReport run_flow(const designs::BenchmarkDesign& design, const core::PlbArchitecture& arch,
                    char which, const FlowOptions& opts = {});

/// Convenience: both flows on both paper architectures for one design
/// (the 4-column structure of Tables 1 and 2).
struct DesignComparison {
  FlowReport granular_a, granular_b, lut_a, lut_b;
};
DesignComparison compare_architectures(const designs::BenchmarkDesign& design,
                                       const FlowOptions& opts = {});

}  // namespace vpga::flow

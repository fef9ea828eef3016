// Flow-level determinism: the bit-reproducibility the paper's Tables 1/2
// comparisons rest on, and the property fabriclint's det.* rules enforce
// statically (docs/LINT.md). Two independent compare_architectures runs on
// the same design must agree byte-for-byte on every FlowReport quantity and
// on the full metrics export — including with the four flows racing on
// threads (parallel_compare), which is why this test is in the CI TSan job's
// filter alongside test_obs and test_flow.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/plb.hpp"
#include "designs/designs.hpp"
#include "flow/flow.hpp"

namespace vpga {
namespace {

designs::BenchmarkDesign small_design() {
  return {designs::make_ripple_adder(12), 8000.0, true};
}

/// Bit-exact double comparison: report doubles must match to the last ulp,
/// not within a tolerance.
void expect_bits_equal(double a, double b, const char* what) {
  EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0)
      << what << " differs between runs: " << a << " vs " << b;
}

void expect_reports_identical(const flow::FlowReport& a, const flow::FlowReport& b) {
  EXPECT_EQ(a.design, b.design);
  EXPECT_EQ(a.arch, b.arch);
  EXPECT_EQ(a.flow, b.flow);
  expect_bits_equal(a.clock_period_ps, b.clock_period_ps, "clock_period_ps");
  expect_bits_equal(a.gate_count_nand2, b.gate_count_nand2, "gate_count_nand2");
  expect_bits_equal(a.die_area_um2, b.die_area_um2, "die_area_um2");
  expect_bits_equal(a.avg_slack_top10_ps, b.avg_slack_top10_ps, "avg_slack_top10_ps");
  expect_bits_equal(a.wns_ps, b.wns_ps, "wns_ps");
  expect_bits_equal(a.critical_delay_ps, b.critical_delay_ps, "critical_delay_ps");
  expect_bits_equal(a.wirelength_um, b.wirelength_um, "wirelength_um");
  EXPECT_EQ(a.route_overflow_edges, b.route_overflow_edges);
  expect_bits_equal(a.route_peak_congestion, b.route_peak_congestion, "route_peak_congestion");
  EXPECT_EQ(a.plbs, b.plbs);
  expect_bits_equal(a.max_displacement_um, b.max_displacement_um, "max_displacement_um");
  EXPECT_EQ(a.verify.size(), b.verify.size());
  // The metrics export covers every counter/gauge/histogram of the run;
  // byte-for-byte equality of the serialized document is the whole point
  // (trace spans carry wall-clock and are deliberately not compared).
  EXPECT_EQ(a.obs.metrics_json(), b.obs.metrics_json());
  EXPECT_EQ(a.obs.counters, b.obs.counters);
}

TEST(Determinism, CompareArchitecturesTwiceIsByteIdentical) {
  const auto design = small_design();
  flow::FlowOptions opts;
  opts.metrics = true;
  opts.seed = 7;
  const auto first = flow::compare_architectures(design, opts);
  const auto second = flow::compare_architectures(design, opts);
  expect_reports_identical(first.granular_a, second.granular_a);
  expect_reports_identical(first.granular_b, second.granular_b);
  expect_reports_identical(first.lut_a, second.lut_a);
  expect_reports_identical(first.lut_b, second.lut_b);
}

TEST(Determinism, ParallelCompareMatchesItselfAndSerial) {
  const auto design = small_design();
  flow::FlowOptions serial_opts;
  serial_opts.metrics = true;
  serial_opts.seed = 11;
  flow::FlowOptions parallel_opts = serial_opts;
  parallel_opts.parallel_compare = true;

  const auto serial = flow::compare_architectures(design, serial_opts);
  const auto parallel1 = flow::compare_architectures(design, parallel_opts);
  const auto parallel2 = flow::compare_architectures(design, parallel_opts);

  // Threading must change nothing: parallel == serial, and parallel runs
  // agree with each other.
  expect_reports_identical(serial.granular_a, parallel1.granular_a);
  expect_reports_identical(serial.granular_b, parallel1.granular_b);
  expect_reports_identical(serial.lut_a, parallel1.lut_a);
  expect_reports_identical(serial.lut_b, parallel1.lut_b);
  expect_reports_identical(parallel1.granular_b, parallel2.granular_b);
  expect_reports_identical(parallel1.lut_b, parallel2.lut_b);
}

/// Memory-profiling counter names, which legitimately differ between a
/// memtrack-on and a memtrack-off run and are excluded from the equality.
bool is_memtrack_counter(const std::string& name) {
  const auto ends_with = [&name](std::string_view suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  return ends_with(".alloc_bytes") || ends_with(".alloc_count") ||
         ends_with(".peak_live_bytes");
}

TEST(Determinism, MemtrackObservesWithoutPerturbing) {
  const auto design = small_design();
  flow::FlowOptions off;
  off.metrics = true;
  off.seed = 7;
  flow::FlowOptions on = off;
  on.memtrack = true;

  const auto arch = core::PlbArchitecture::granular();
  const auto plain = flow::run_flow(design, arch, 'b', off);
  const auto tracked = flow::run_flow(design, arch, 'b', on);

  // Every QoR quantity is bit-identical: the profiler observes the flow, it
  // must not steer it.
  expect_bits_equal(plain.clock_period_ps, tracked.clock_period_ps, "clock_period_ps");
  expect_bits_equal(plain.gate_count_nand2, tracked.gate_count_nand2, "gate_count_nand2");
  expect_bits_equal(plain.die_area_um2, tracked.die_area_um2, "die_area_um2");
  expect_bits_equal(plain.avg_slack_top10_ps, tracked.avg_slack_top10_ps, "avg_slack_top10_ps");
  expect_bits_equal(plain.wns_ps, tracked.wns_ps, "wns_ps");
  expect_bits_equal(plain.critical_delay_ps, tracked.critical_delay_ps, "critical_delay_ps");
  expect_bits_equal(plain.wirelength_um, tracked.wirelength_um, "wirelength_um");
  EXPECT_EQ(plain.route_overflow_edges, tracked.route_overflow_edges);
  expect_bits_equal(plain.route_peak_congestion, tracked.route_peak_congestion,
                    "route_peak_congestion");
  EXPECT_EQ(plain.plbs, tracked.plbs);
  expect_bits_equal(plain.max_displacement_um, tracked.max_displacement_um, "max_displacement_um");

  // The non-memory counters agree exactly; the tracked run only *adds* the
  // alloc counter family.
  std::vector<std::pair<std::string, long long>> plain_counters, tracked_counters;
  for (const auto& c : plain.obs.counters)
    if (!is_memtrack_counter(c.first)) plain_counters.push_back(c);
  for (const auto& c : tracked.obs.counters)
    if (!is_memtrack_counter(c.first)) tracked_counters.push_back(c);
  EXPECT_EQ(plain_counters, tracked_counters);
  EXPECT_GT(tracked.obs.counters.size(), plain.obs.counters.size());

  // And memtrack is itself deterministic where it can be: two tracked runs
  // agree on QoR, on every non-memory counter, and on every .alloc_count
  // (the flow performs the same allocations). Byte totals are NOT compared:
  // malloc_usable_size depends on heap chunk reuse, which varies in-process.
  const auto tracked2 = flow::run_flow(design, arch, 'b', on);
  expect_bits_equal(tracked.die_area_um2, tracked2.die_area_um2, "die_area_um2");
  expect_bits_equal(tracked.critical_delay_ps, tracked2.critical_delay_ps,
                    "critical_delay_ps");
  for (const auto& [name, value] : tracked.obs.counters) {
    const auto ends_with = [&n = name](std::string_view suffix) {
      return n.size() >= suffix.size() &&
             n.compare(n.size() - suffix.size(), suffix.size(), suffix) == 0;
    };
    if (ends_with(".alloc_bytes") || ends_with(".peak_live_bytes")) continue;
    EXPECT_EQ(value, tracked2.obs.counter(name)) << name;
  }
}

TEST(Determinism, SeedChangesStochasticStagesButStaysSelfConsistent) {
  const auto design = small_design();
  flow::FlowOptions a;
  a.metrics = true;
  a.seed = 1;
  flow::FlowOptions b = a;
  b.seed = 2;
  const auto arch = core::PlbArchitecture::granular();
  const auto r1 = flow::run_flow(design, arch, 'b', a);
  const auto r1_again = flow::run_flow(design, arch, 'b', a);
  const auto r2 = flow::run_flow(design, arch, 'b', b);
  expect_reports_identical(r1, r1_again);
  // Different seeds must still produce a valid flow; equality is not
  // required (annealing/tie-breaks legitimately depend on the seed).
  EXPECT_GT(r2.die_area_um2, 0.0);
}

}  // namespace
}  // namespace vpga

#pragma once
// Shared harness for the Table 1 / Table 2 benches: runs the paper's four
// designs through both flows on both architectures.
//
// VPGA_BENCH_SCALE (0 < s <= 1, default 1.0) shrinks the datapath widths for
// quick runs; at the paper-scale default each bench takes about 10 s (4-core
// x86 VM, RelWithDebInfo build).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "flow/flow.hpp"

namespace vpga::benchharness {

inline double bench_scale() {
  if (const char* s = std::getenv("VPGA_BENCH_SCALE")) {
    const double v = std::atof(s);
    if (v > 0.0 && v <= 1.0) return v;
  }
  return 1.0;
}

struct SuiteResults {
  std::vector<flow::DesignComparison> designs;  // paper order
  std::vector<std::string> names;
  std::vector<bool> datapath;
};

inline SuiteResults run_suite(const flow::FlowOptions& opts = {}) {
  SuiteResults out;
  const double scale = bench_scale();
  std::fprintf(stderr, "[flow_bench] running paper suite at scale %.2f...\n", scale);
  for (const auto& d : designs::paper_suite(scale)) {
    std::fprintf(stderr, "[flow_bench]   %s (%0.0f NAND2-eq)\n", d.netlist.name().c_str(),
                 d.netlist.stats().nand2_equiv);
    out.designs.push_back(flow::compare_architectures(d, opts));
    out.names.push_back(d.netlist.name());
    out.datapath.push_back(d.datapath_dominated);
  }
  return out;
}

}  // namespace vpga::benchharness

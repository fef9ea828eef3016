#pragma once
// Shared pieces of the paper-scale flow benchmark: workload definitions, the
// flows a workload runs, the seeded verify_exact mutants, and the result sink.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "flow/flow.hpp"

namespace flowbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One design of a workload: the short key used in metric names and its
/// generator (a public designs::make_* call).
struct DesignSpec {
  std::string key;
  vpga::designs::BenchmarkDesign (*make)();
};

struct Workload {
  std::string name;
  char flow = 'a';
  vpga::verify::VerifyLevel level = vpga::verify::VerifyLevel::kLint;
  /// verify_exact: one inverted-output mutant per design x architecture.
  bool mutants = false;
  std::vector<DesignSpec> designs;
  /// Nominal length of one pass over the flows; a run of S seconds makes
  /// floor(S / pass_seconds) passes, at least one.
  double pass_seconds = 1.0;
};

/// The named workload at paper scale, or with `smoke` on the
/// paper_suite(0.15)-sized designs; nullptr for an unknown name.
const Workload* find_workload(std::string_view name, bool smoke);

/// Architecture keys in metric names, in Inputs::archs order.
inline constexpr const char* kArchKeys[2] = {"granular", "lut"};

/// One run_flow call of a workload: a design on one architecture.
struct FlowCase {
  std::size_t design = 0;
  int arch = 0;       ///< index into kArchKeys / Inputs::archs
  std::string label;  ///< "<design>.<arch>.<flow>", as in flow.run_s.<label>
};

/// A post-map netlist with one primary output inverted; its known CEC verdict
/// is "not equivalent".
struct Mutant {
  std::size_t flow_case = 0;
  std::size_t output = 0;
  vpga::netlist::Netlist netlist;
};

/// Everything a run measures on: the generated designs, the architectures,
/// the flow list and (verify_exact) the mutants.
struct Inputs {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  /// FlowOptions::seed of each pass; the first is `seed` itself.
  std::vector<std::uint64_t> flow_seeds;
  std::vector<vpga::designs::BenchmarkDesign> designs;
  std::vector<vpga::core::PlbArchitecture> archs;
  std::vector<FlowCase> cases;
  std::vector<Mutant> mutants;

  [[nodiscard]] vpga::flow::FlowOptions flow_options(std::size_t pass) const;
};

/// Operations attempted and failed, with a reason per failure on stderr.
struct Tally {
  long long attempted = 0;
  long long failed = 0;
  void check(bool ok, const std::string& what);
};

/// The paper's Table 1/2 numbers of one flow plus route congestion; the
/// traced replay must reproduce them exactly.
struct Qor {
  double die_area_um2 = 0.0;
  int plbs = 0;
  double wirelength_um = 0.0;
  double slack_top10_ps = 0.0;
  long long overflow_edges = 0;
  double peak_congestion = 0.0;
  bool operator==(const Qor&) const = default;
};

/// Checks one mutant's CEC verdict against its known answer ("not
/// equivalent"); an "equivalent" verdict is cross-checked on random stimulus.
void check_mutant_verdict(const vpga::verify::CecReport& cec, const Inputs& in,
                          const Mutant& m, Tally& tally);

/// Metric name -> value, printed in name order.
using Metrics = std::map<std::string, double>;

/// The traced replay (replay.cpp): reruns every flow of `in` through the
/// public layer functions with spans around each call, compares the result
/// with the untraced run_flow QoR `reference`, and returns the per-layer
/// metrics. `untraced_s` is the untraced time per flow case then per mutant.
Metrics run_traced_replay(const Inputs& in, const std::vector<Qor>& reference,
                          const std::vector<double>& untraced_s, Tally& tally,
                          const std::string& trace_path);

}  // namespace flowbench

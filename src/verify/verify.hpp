#pragma once
/// \file verify.hpp
/// Flow-wide verification façade: one checker call per stage boundary.
///
/// The flow driver holds a FlowVerifier for the whole run and calls check()
/// after every transformation. Each call runs the structural lint, then the
/// stage's legality rules, then (at lint+equiv level, when a golden reference
/// is supplied and the netlist linted clean) the random-stimulus equivalence
/// gate against the original design. Findings accumulate in one VerifyReport;
/// enforce() aborts the process on error-severity findings, printing every
/// diagnostic first — so an illegal IR state is caught at the boundary where
/// it is introduced, not three stages later as a wrong benchmark number.
///
/// See docs/VERIFY.md for the rule catalogue and the stage contracts.

#include <cstdint>
#include <optional>
#include <string>

#include "core/plb.hpp"
#include "netlist/netlist.hpp"
#include "pack/packer.hpp"
#include "verify/cec.hpp"
#include "verify/diagnostic.hpp"
#include "verify/equiv.hpp"
#include "verify/lint.hpp"
#include "verify/stage.hpp"

namespace vpga::verify {

/// How much checking the flow performs at each stage boundary.
enum class VerifyLevel : std::uint8_t {
  kOff,       ///< no checking (benchmarking the raw flow)
  kLint,      ///< structural lint + stage legality rules (cheap; default)
  kLintEquiv, ///< lint + random-stimulus equivalence against the input design
  kExact,     ///< lint + SAT-backed exact equivalence proof (cec.hpp)
};

/// Pipeline positions at which the flow calls the checker.
enum class Stage : std::uint8_t {
  kInput,        ///< the benchmark netlist entering the flow
  kPostMap,      ///< after technology mapping to the restricted library
  kPostCompact,  ///< after regularity-driven compaction into configurations
  kPostBuffer,   ///< after high-fanout buffering (physical synthesis)
  kPostPack,     ///< after legalization into the PLB array (flow b)
  kPostRoute,    ///< after routing over the array (flow b via-budget gate)
};
const char* to_string(Stage s);

struct VerifyOptions {
  VerifyLevel level = VerifyLevel::kLint;
  EquivOptions equiv;
  CecOptions cec;
};

/// Stage-boundary checker for one flow run on one architecture.
class FlowVerifier {
 public:
  FlowVerifier(const core::PlbArchitecture& arch, const VerifyOptions& opts)
      : arch_(arch), opts_(opts) {}

  /// Checks one stage boundary and returns the findings of *this call*
  /// (also accumulated into report()). `golden` enables the equivalence gate
  /// (ignored below kLintEquiv or when the lint found errors); `packed` is
  /// required at kPostPack and kPostRoute. At kExact, the first proof builds
  /// a CecBaseline of `golden` that every later proof and fingerprint probe
  /// reuses, so a flow passes the same golden netlist, unchanged, to every
  /// call (another netlist gets a fresh baseline).
  [[nodiscard]] VerifyReport check(Stage stage, const netlist::Netlist& nl,
                                   const netlist::Netlist* golden = nullptr,
                                   const pack::PackedDesign* packed = nullptr);

  /// All findings across every stage checked so far.
  [[nodiscard]] const VerifyReport& report() const { return report_; }
  [[nodiscard]] bool enabled() const { return opts_.level != VerifyLevel::kOff; }

 private:
  /// arch_'s tile-state table, built by the first check that needs one.
  const core::TileStateTable& tiles();

  const core::PlbArchitecture& arch_;
  VerifyOptions opts_;
  VerifyReport report_;
  std::optional<core::TileStateTable> tiles_;
  /// The exact gate's golden side: AIG, checked literals, fingerprint.
  std::optional<CecBaseline> baseline_;
  /// Buffer-transparent fingerprint of the last (golden, revised) pair the
  /// exact gate proved clean. Stage boundaries that do not rewrite the logic
  /// function structure (buffering, pack, place, route) present the same
  /// proof obligation again; matching here skips the re-proof.
  std::uint64_t cec_proven_fp_ = 0;
  bool cec_has_proven_fp_ = false;
};

/// Prints every diagnostic to stderr and aborts if the report carries
/// error-severity findings (the flow's stage gate).
void enforce(const VerifyReport& report);

}  // namespace vpga::verify

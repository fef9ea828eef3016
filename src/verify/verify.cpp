#include "verify/verify.hpp"

#include <cstdio>

#include "common/assert.hpp"
#include "obs/obs.hpp"

namespace vpga::verify {

const char* to_string(Stage s) {
  switch (s) {
    case Stage::kInput: return "input";
    case Stage::kPostMap: return "post-map";
    case Stage::kPostCompact: return "post-compact";
    case Stage::kPostBuffer: return "post-buffer";
    case Stage::kPostPack: return "post-pack";
    case Stage::kPostRoute: return "post-route";
  }
  return "?";
}

VerifyReport FlowVerifier::check(Stage stage, const netlist::Netlist& nl,
                                 const netlist::Netlist* golden,
                                 const pack::PackedDesign* packed) {
  VerifyReport local;
  if (opts_.level == VerifyLevel::kOff) return local;

  const std::string name = to_string(stage);
  const obs::Span span("verify." + name);
  obs::count("verify.checks");
  lint_netlist(nl, name, local);

  switch (stage) {
    case Stage::kInput:
      break;
    case Stage::kPostMap:
      check_post_map(nl, arch_, name, local);
      break;
    case Stage::kPostCompact:
    case Stage::kPostBuffer:
      check_post_compact(nl, arch_, tiles(), name, local);
      break;
    case Stage::kPostPack:
      check_post_compact(nl, arch_, tiles(), name, local);
      VPGA_ASSERT_MSG(packed != nullptr, "post-pack check needs the PackedDesign");
      check_post_pack(nl, *packed, arch_, tiles(), name, local);
      break;
    case Stage::kPostRoute:
      VPGA_ASSERT_MSG(packed != nullptr, "post-route check needs the PackedDesign");
      check_post_route(nl, *packed, arch_, name, local);
      break;
  }

  // The equivalence gates need a valid topological order, so they only run on
  // netlists the lint passed without errors.
  if (golden != nullptr && stage != Stage::kInput && !local.has_errors()) {
    if (opts_.level == VerifyLevel::kLintEquiv)
      check_equivalence(*golden, nl, name, local, opts_.equiv);
    else if (opts_.level == VerifyLevel::kExact) {
      if (!baseline_ || &baseline_->golden() != golden) baseline_.emplace(*golden);
      // The fingerprint is buffer-transparent, so boundaries that did not
      // change the logic function structure — pack, place, route, and the
      // buffering stage itself — skip the re-proof: the last proven pair is
      // the identical proof obligation.
      const std::uint64_t fp =
          baseline_->fingerprint() * 0x100000001B3ull ^ netlist_fingerprint(nl);
      if (cec_has_proven_fp_ && fp == cec_proven_fp_) {
        obs::count("cec.cache_hits");
      } else {
        check_cec(*baseline_, nl, name, local, opts_.cec);
        if (!local.has_errors() && !local.fired("cec.resource-limit")) {
          cec_proven_fp_ = fp;
          cec_has_proven_fp_ = true;
        }
      }
    }
  }

  obs::count("verify.findings", static_cast<long long>(local.diagnostics().size()));
  for (const auto& d : local.diagnostics()) {
    if (d.severity == Severity::kError) {
      obs::count("verify.errors");
      // Error findings go straight to the flight recorder too: if enforce()
      // aborts the run, the forensics dump names the violated rule.
      obs::flight::record(obs::flight::EventKind::kVerify, d.rule,
                          static_cast<std::int64_t>(d.severity),
                          d.node.valid() ? d.node.index() : -1);
    }
    report_.add(d.severity, d.rule, d.stage, d.node, d.message);
  }
  // One summary event per boundary check (name = stage, a = findings,
  // b = errors) so a dump shows how far verification got.
  obs::flight::record(obs::flight::EventKind::kVerify, name,
                      static_cast<std::int64_t>(local.diagnostics().size()),
                      static_cast<std::int64_t>(local.error_count()));
  return local;
}

const core::TileStateTable& FlowVerifier::tiles() {
  if (!tiles_) tiles_.emplace(arch_);
  return *tiles_;
}

void enforce(const VerifyReport& report) {
  if (!report.has_errors()) return;  // warnings stay in the report, not on stderr
  // fabriclint: disable(io.stray-stream) -- enforce() is the documented abort
  // path: diagnostics must reach stderr before VPGA_ASSERT terminates.
  std::fputs(report.summary().c_str(), stderr);
  // Ship the postmortem before aborting: the dump latches, so the SIGABRT
  // raised below cannot overwrite the verify-failure reason.
  obs::flight_event("verify.abort", report.error_count());
  obs::flight::dump_forensics("verify-failure");
  VPGA_ASSERT_MSG(!report.has_errors(), "flow verification failed (see diagnostics above)");
}

}  // namespace vpga::verify

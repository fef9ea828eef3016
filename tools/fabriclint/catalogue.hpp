#pragma once
/// \file catalogue.hpp
/// The canonical catalogue of fabriclint rule ids, modeled on
/// src/verify/rules.hpp: every rule the linter can emit appears here exactly
/// once, the docs table in docs/LINT.md is checked against this list by the
/// tree-level `verify.rule-sync` check, and tests/test_fabriclint.cpp keeps a
/// failing + passing fixture per id. A rule added to the engine without a doc
/// row and a fixture fails CI rather than drifting.
///
/// Only rule-id string literals may appear in this file: the sync check
/// scrapes every dotted string literal below as a catalogue entry.

#include <array>
#include <string_view>

namespace vpga::fabriclint {

inline constexpr std::array<std::string_view, 18> kLintCatalogue = {
    // Determinism (all walked trees).
    "det.unordered-iter",
    "det.raw-rng",
    "det.ptr-order",
    "det.wall-clock",
    "det.float-accum",
    "det.iter-invalidation",
    // Lifetime (semantic engine + dataflow, src/ only).
    "lifetime.dangling-local",
    // Library I/O discipline (src/ only).
    "io.stray-stream",
    // Lock discipline (semantic engine, src/ only).
    "conc.unguarded-access",
    "conc.lock-order",
    "conc.unjoined-thread",
    // Verification-result flow (semantic engine, src/ only).
    "flow.dropped-report",
    // Observability naming (src/ only).
    "obs.span-name",
    "obs.metric-name",
    "obs.event-name",
    // Tree-level sync and build-level checks.
    "verify.rule-sync",
    "hdr.self-contained",
    // Suppression hygiene.
    "meta.bad-suppression",
};

/// True iff `rule` names a catalogued rule id.
constexpr bool known_rule(std::string_view rule) {
  for (std::string_view r : kLintCatalogue)
    if (r == rule) return true;
  return false;
}

}  // namespace vpga::fabriclint

#pragma once
/// \file names.hpp
/// Canonical registry of observability names (docs/OBSERVABILITY.md).
///
/// Every literal span / metric name used by library instrumentation appears
/// here exactly once; fabriclint's `obs.span-name` / `obs.metric-name` rules
/// (docs/LINT.md) check call-site literals against these arrays, so a name
/// typo or an undocumented metric fails lint rather than silently forking
/// the naming scheme. Dynamic families built by concatenation —
/// "verify.<stage>" and "compact.config.<KIND>" — carry a runtime suffix and
/// are exempt from the literal check by construction.
///
/// All names follow the dotted lowercase `family.detail` convention with
/// `stage.*` reserved for the flow's top-level phases.

#include <array>
#include <string_view>

namespace vpga::obs::names {

/// Trace span names (one per obs::Span call site family).
inline constexpr std::array<std::string_view, 32> kSpanNames = {
    "stage.verify",  "stage.map",   "stage.compact", "stage.buffer",
    "stage.place",   "stage.pack",  "stage.route",   "stage.sta",
    "map.subject",   "map.aig",     "map.cuts",      "map.tech_map",
    "compact.pricing_round",
    "pack.lower_bound", "pack.attempt",  "pack.quadrisect", "pack.fill",
    "place.median_sweeps", "place.anneal",
    "route.decompose", "route.initial", "route.negotiate", "route.maze_repair",
    "sta.analyze",   "verify.cec",  "cec.corr",    "cec.signatures", "cec.golden",
    "cec.witness",   "cec.sweep",   "cec.bdd",     "cec.miter",
};

/// Counter / gauge / histogram names (obs::count, obs::gauge, obs::observe).
/// `flow.alloc_*` are the run-wide memtrack totals (per-span totals are the
/// dynamic "<span>.alloc_bytes" family, exempt by construction like every
/// concatenated name).
inline constexpr std::array<std::string_view, 54> kMetricNames = {
    "map.cuts_enumerated", "map.match_attempts", "map.dp_rounds", "map.nodes_emitted",
    "compact.cover_rounds",
    "pack.groups", "pack.grow_attempts", "pack.spiral_relocations", "pack.displacement_um",
    "flow.pack_sta_iterations",
    "flow.alloc_bytes", "flow.alloc_count", "flow.peak_live_bytes",
    "place.median_sweeps", "place.sa_moves", "place.sa_accepted",
    "route.nets", "route.connections", "route.ripups", "route.maze_routes",
    "route.maze_expansions", "route.overflow_edges", "route.peak_congestion",
    "sta.analyses", "sta.arrival_propagations",
    "verify.checks", "verify.findings", "verify.errors", "verify.equiv.vectors",
    "verify.via_budget.overruns",
    "cec.points", "cec.witness_rejects", "cec.sweep_merges", "cec.unknown", "cec.cache_hits",
    "cec.tier_resolved.structural", "cec.tier_resolved.truth", "cec.tier_resolved.bitsim",
    "cec.tier_resolved.bdd", "cec.tier_resolved.sat",
    "cec.bdd_nodes", "cec.bdd_ite_calls", "cec.bdd_cache_hits", "cec.bdd_fallbacks",
    "cec.corr_classes", "cec.corr_rounds", "cec.corr_permuted", "cec.corr_fallbacks",
    "cec.corr_unmatched",
    "sat.conflicts", "sat.decisions", "sat.propagations", "sat.restarts", "sat.learned",
};

/// Flight-recorder event names (obs::flight_event call sites; the structured
/// span/metric/verify events record span and rule names, which the span /
/// metric registries above already govern). Checked by fabriclint's
/// `obs.event-name` rule.
inline constexpr std::array<std::string_view, 4> kEventNames = {
    "flow.begin", "flow.end", "flow.seed", "verify.abort",
};

/// True iff `name` is a registered span name.
constexpr bool known_span(std::string_view name) {
  for (std::string_view s : kSpanNames)
    if (s == name) return true;
  return false;
}

/// True iff `name` is a registered metric name.
constexpr bool known_metric(std::string_view name) {
  for (std::string_view s : kMetricNames)
    if (s == name) return true;
  return false;
}

/// True iff `name` is a registered flight-recorder event name.
constexpr bool known_event(std::string_view name) {
  for (std::string_view s : kEventNames)
    if (s == name) return true;
  return false;
}

}  // namespace vpga::obs::names

#pragma once
/// \file fabriclint.hpp
/// fabriclint — the project-native static-analysis pass (docs/LINT.md).
///
/// A fast, dependency-free linter (tokenizer + lightweight decl tracking, no
/// libclang) that walks src/, bench/ and examples/ and enforces the
/// determinism / observability / verification invariants the flow's
/// reproducibility rests on. Rule ids are catalogued in catalogue.hpp;
/// rationale and suppression policy live in docs/LINT.md.
///
/// The engine is a library so tests/test_fabriclint.cpp can drive every rule
/// on in-memory fixtures; tools/fabriclint/main.cpp wraps it as the CLI and
/// CTest / CI gate.

#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace vpga::fabriclint {

/// One finding. `file` is repo-relative with forward slashes.
struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

/// Canonical observability names parsed from src/obs/names.hpp.
struct ObsRegistry {
  std::set<std::string, std::less<>> spans;
  std::set<std::string, std::less<>> metrics;
  std::set<std::string, std::less<>> events;
  [[nodiscard]] bool empty() const {
    return spans.empty() && metrics.empty() && events.empty();
  }
};

/// Scrapes kSpanNames / kMetricNames / kEventNames string literals out of
/// the registry header's content (src/obs/names.hpp).
ObsRegistry parse_obs_registry(std::string_view names_hpp);

/// Lints one translation unit. `rel_path` decides rule scoping: io.* and
/// obs.* rules fire only under src/, det.raw-rng is exempt in
/// src/common/rng.hpp, det.wall-clock is exempt under src/obs/. Pass a null
/// registry to skip obs registry-membership checks (convention still
/// enforced).
std::vector<Finding> lint_source(std::string_view rel_path, std::string_view content,
                                 const ObsRegistry* registry);

/// Tree-level `verify.rule-sync`: the dotted string literals of a rule
/// catalogue header must equal the rule ids documented in a markdown table
/// (lines starting with '|' whose first backticked token is dotted). Used for
/// src/verify/rules.hpp <-> docs/VERIFY.md and
/// tools/fabriclint/catalogue.hpp <-> docs/LINT.md.
std::vector<Finding> check_rule_sync(std::string_view header_rel_path,
                                     std::string_view header_content,
                                     std::string_view docs_rel_path,
                                     std::string_view docs_content);

/// `hdr.self-contained`: compiles `#include "<header>"` as its own
/// translation unit (`compiler` -std=c++20 -fsyntax-only -I include_dir).
/// Returns one finding on failure, none on success. The build-time
/// enforcement is the vpga_header_selfcheck CMake target; this entry point
/// backs the CLI --headers mode and the fixture tests.
std::vector<Finding> check_header_self_contained(const std::string& header_path,
                                                 const std::string& rel_path,
                                                 const std::string& include_dir,
                                                 const std::string& compiler);

/// One file handed to the semantic pass. `rel_path` is repo-relative with
/// forward slashes; rules only fire for paths under src/ but every file
/// contributes symbols to the project index.
struct SourceFile {
  std::string rel_path;
  std::string content;
};

/// Options for the semantic engine (fabriclint v3).
struct ProjectOptions {
  /// Worker threads for the per-TU analysis phase (results are merged in
  /// file order, so output is independent of scheduling).
  std::size_t jobs = 1;
};

/// The semantic engine (fabriclint v3): analyzes every file with
/// symbols.hpp, builds the interprocedural call graph (callgraph.hpp) plus
/// per-function dataflow (dataflow.hpp), and runs the project-wide rules —
/// conc.unguarded-access, conc.lock-order, conc.unjoined-thread,
/// flow.dropped-report, det.float-accum, det.iter-invalidation, the
/// transitive extension of io.stray-stream and lifetime.dangling-local.
/// Complements the per-TU token rules of lint_source(); suppression
/// directives apply identically.
std::vector<Finding> lint_project(const std::vector<SourceFile>& files,
                                  const ProjectOptions& options);
std::vector<Finding> lint_project(const std::vector<SourceFile>& files);

/// Renders findings as a JSON document (schema vpga.fabriclint.v4), parseable
/// by obs/json.hpp — {"schema", "total", "findings":
/// [{file,line,rule,message}]}. A non-negative `elapsed_ms` adds the
/// linter's own wall-clock to the footer.
std::string findings_json(const std::vector<Finding>& findings,
                          long long elapsed_ms = -1);

/// Stable output order: (file, line, rule, message).
void sort_findings(std::vector<Finding>& findings);

}  // namespace vpga::fabriclint

#include "fabriclint.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "catalogue.hpp"
#include "lexer.hpp"
#include "obs/json.hpp"

namespace vpga::fabriclint {
namespace {

// ---------------------------------------------------------------------------
// Path scoping
// ---------------------------------------------------------------------------

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool in_library(std::string_view rel) { return starts_with(rel, "src/"); }

// ---------------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------------

bool is_ident(const Token& t, std::string_view text) {
  return t.kind == TokKind::kIdent && t.text == text;
}
bool is_punct(const Token& t, std::string_view text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

/// Index one past the `>` matching the `<` at `open` (treating `>>` as two
/// closes), or npos when the angle bracket never closes before a `;`/`{`.
std::size_t match_angle(const std::vector<Token>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kPunct) continue;
    if (t.text == "<" || t.text == "<<") depth += static_cast<int>(t.text.size());
    if (t.text == ">" || t.text == ">>") {
      depth -= static_cast<int>(t.text.size());
      if (depth <= 0) return i + 1;
    }
    if (t.text == ";" || t.text == "{") return std::string::npos;
  }
  return std::string::npos;
}

/// Index one past the token matching the opener at `open` ((), [], {}).
std::size_t match_pair(const std::vector<Token>& toks, std::size_t open, char o, char c) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kPunct) continue;
    if (toks[i].text.size() == 1 && toks[i].text[0] == o) ++depth;
    if (toks[i].text.size() == 1 && toks[i].text[0] == c && --depth == 0) return i + 1;
  }
  return std::string::npos;
}

bool matches_obs_convention(std::string_view name) {
  int segments = 0;
  std::size_t pos = 0;
  while (pos <= name.size()) {
    const auto dot = name.find('.', pos);
    const std::string_view seg = name.substr(pos, dot == std::string_view::npos
                                                      ? std::string_view::npos
                                                      : dot - pos);
    if (seg.empty() || !(seg[0] >= 'a' && seg[0] <= 'z')) return false;
    for (char ch : seg)
      if (!((ch >= 'a' && ch <= 'z') || (ch >= '0' && ch <= '9') || ch == '_')) return false;
    ++segments;
    if (dot == std::string_view::npos) break;
    pos = dot + 1;
  }
  return segments >= 2;
}

// ---------------------------------------------------------------------------
// Rule engine
// ---------------------------------------------------------------------------

class Linter {
 public:
  Linter(std::string_view rel_path, std::string_view content, const ObsRegistry* registry)
      : rel_(rel_path), registry_(registry), lexed_(lex(content)) {
    index_suppressions();
  }

  std::vector<Finding> run() {
    collect_unordered_decls();
    scan_tokens();
    scan_lambda_comparators();
    sort_findings(findings_);
    return std::move(findings_);
  }

 private:
  void add(int line, std::string_view rule, std::string message) {
    const auto it = suppressed_.find(line);
    if (it != suppressed_.end() && it->second.count(std::string(rule)) > 0) return;
    findings_.push_back({std::string(rel_), line, std::string(rule), std::move(message)});
  }

  /// Line of the first token strictly after `line` (the code an own-line
  /// directive annotates), or `line` + 1 when no token follows.
  int next_code_line(int line) const {
    for (const Token& t : lexed_.tokens)
      if (t.line > line) return t.line;
    return line + 1;
  }

  /// Builds line -> suppressed-rule-ids from the directives; malformed or
  /// reasonless directives become meta.bad-suppression findings themselves.
  void index_suppressions() {
    for (const Directive& d : lexed_.directives) {
      const int target = d.own_line ? next_code_line(d.line) : d.line;
      switch (d.kind) {
        case Directive::Kind::kSortedDownstream:
          suppressed_[target].insert("det.unordered-iter");
          break;
        case Directive::Kind::kDisable:
          if (!known_rule(d.rule)) {
            findings_.push_back({std::string(rel_), d.line, "meta.bad-suppression",
                                 "disable() names unknown rule '" + d.rule + "'"});
          } else if (!d.has_reason) {
            findings_.push_back({std::string(rel_), d.line, "meta.bad-suppression",
                                 "suppression of " + d.rule +
                                     " needs a reason: // fabriclint: disable(" + d.rule +
                                     ") -- <why>"});
          } else {
            suppressed_[target].insert(d.rule);
          }
          break;
        case Directive::Kind::kMalformed:
          findings_.push_back({std::string(rel_), d.line, "meta.bad-suppression",
                               "unparseable fabriclint directive: '" + d.raw + "'"});
          break;
      }
    }
  }

  /// Records every variable/member declared with an unordered container type
  /// (std::unordered_map<K,V> name / const std::unordered_set<T>& name).
  void collect_unordered_decls() {
    const auto& t = lexed_.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != TokKind::kIdent) continue;
      if (t[i].text != "unordered_map" && t[i].text != "unordered_set" &&
          t[i].text != "unordered_multimap" && t[i].text != "unordered_multiset")
        continue;
      if (i + 1 >= t.size() || !is_punct(t[i + 1], "<")) continue;
      std::size_t j = match_angle(t, i + 1);
      if (j == std::string::npos) continue;
      while (j < t.size() && (is_punct(t[j], "&") || is_punct(t[j], "*") ||
                              is_ident(t[j], "const")))
        ++j;
      if (j < t.size() && t[j].kind == TokKind::kIdent) unordered_vars_.insert(t[j].text);
    }
  }

  /// One linear pass for the token-pattern rules.
  void scan_tokens() {
    const auto& t = lexed_.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind == TokKind::kIdent) {
        check_raw_rng(i);
        check_wall_clock(i);
        check_stray_stream(i);
        check_range_for(i);
        check_less_ptr(i);
        check_obs_call(i);
      }
      check_addr_compare(i);
    }
  }

  void check_raw_rng(std::size_t i) {
    if (rel_ == "src/common/rng.hpp") return;
    static const std::set<std::string_view> kRaw = {
        "rand",         "srand",          "rand_r",        "random_shuffle",
        "mt19937",      "mt19937_64",     "minstd_rand",   "minstd_rand0",
        "random_device", "default_random_engine", "knuth_b"};
    const auto& t = lexed_.tokens;
    if (kRaw.count(t[i].text) == 0) return;
    // `rand`/`srand` only as calls; the generator type names always count.
    if ((t[i].text == "rand" || t[i].text == "srand" || t[i].text == "rand_r") &&
        (i + 1 >= t.size() || !is_punct(t[i + 1], "(")))
      return;
    add(t[i].line, "det.raw-rng",
        "raw randomness source '" + t[i].text +
            "' — draw from common/rng.hpp (vpga::common::Rng) with an explicit seed");
  }

  void check_wall_clock(std::size_t i) {
    if (starts_with(rel_, "src/obs/") || starts_with(rel_, "tools/")) return;
    const auto& t = lexed_.tokens;
    static const std::set<std::string_view> kWall = {"system_clock", "gettimeofday",
                                                     "localtime",    "gmtime",
                                                     "mktime",       "timespec_get"};
    const bool std_qualified =
        i >= 2 && is_punct(t[i - 1], "::") && is_ident(t[i - 2], "std");
    bool hit = kWall.count(t[i].text) > 0;
    if (!hit && (t[i].text == "time" || t[i].text == "clock")) {
      if (std_qualified) {
        hit = true;
      } else if (t[i].text == "time" && i + 1 < t.size() && is_punct(t[i + 1], "(")) {
        // Bare C time(...) call: not a member access, not another namespace's
        // qualification, and not a declaration (`double time(...)`) — a
        // preceding identifier only counts when it is a statement keyword.
        const bool member_or_scope = i > 0 && (is_punct(t[i - 1], ".") ||
                                               is_punct(t[i - 1], "->") ||
                                               is_punct(t[i - 1], "::"));
        const bool decl_like = i > 0 && t[i - 1].kind == TokKind::kIdent &&
                               t[i - 1].text != "return" && t[i - 1].text != "case" &&
                               t[i - 1].text != "co_return";
        if (!member_or_scope && !decl_like) hit = true;
      }
    }
    if (hit)
      add(t[i].line, "det.wall-clock",
          "wall-clock source '" + t[i].text +
              "' outside src/obs/ — stages must not read real time (use obs spans "
              "for timing)");
  }

  void check_stray_stream(std::size_t i) {
    if (!in_library(rel_)) return;
    static const std::set<std::string_view> kStreams = {
        "cout", "cerr", "clog",     "printf", "fprintf", "vprintf",
        "puts", "putchar", "fputs", "fputc",  "fwrite"};
    const auto& t = lexed_.tokens;
    if (kStreams.count(t[i].text) == 0) return;
    // Skip member access (x.puts(...)) — only the global/std entities count.
    if (i > 0 && (is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->"))) return;
    add(t[i].line, "io.stray-stream",
        "direct I/O via '" + t[i].text +
            "' in library code — route diagnostics through verify::Diagnostic or obs");
  }

  /// Range-for whose range expression ends in a tracked unordered variable.
  void check_range_for(std::size_t i) {
    const auto& t = lexed_.tokens;
    if (!is_ident(t[i], "for") || i + 1 >= t.size() || !is_punct(t[i + 1], "(")) return;
    const std::size_t close = match_pair(t, i + 1, '(', ')');
    if (close == std::string::npos) return;
    // Locate the range colon at parenthesis depth 1 (a `;` first means a
    // classic three-clause for).
    int depth = 0;
    std::size_t colon = std::string::npos;
    for (std::size_t j = i + 1; j < close - 1; ++j) {
      if (is_punct(t[j], "(") || is_punct(t[j], "[")) ++depth;
      if (is_punct(t[j], ")") || is_punct(t[j], "]")) --depth;
      if (depth != 1) continue;
      if (is_punct(t[j], ";")) return;
      if (is_punct(t[j], ":")) {
        colon = j;
        break;
      }
    }
    if (colon == std::string::npos || colon + 1 >= close - 1) return;
    const Token& last = t[close - 2];  // final token of the range expression
    if (last.kind == TokKind::kIdent && unordered_vars_.count(last.text) > 0)
      add(t[i].line, "det.unordered-iter",
          "range-for over unordered container '" + last.text +
              "' — iteration order is nondeterministic; iterate a sorted/indexed view "
              "or annotate the loop with // fabriclint: sorted-downstream");
  }

  /// std::less<T*> keyed on pointer order.
  void check_less_ptr(std::size_t i) {
    const auto& t = lexed_.tokens;
    if (!is_ident(t[i], "less") || i + 1 >= t.size() || !is_punct(t[i + 1], "<")) return;
    const std::size_t end = match_angle(t, i + 1);
    if (end == std::string::npos || end < 3) return;
    if (is_punct(t[end - 2], "*"))
      add(t[i].line, "det.ptr-order",
          "std::less over a pointer type orders by address — allocation-dependent and "
          "nondeterministic across runs");
  }

  /// `&a < &b` — direct address comparison.
  void check_addr_compare(std::size_t i) {
    const auto& t = lexed_.tokens;
    if (i + 4 >= t.size()) return;
    if (is_punct(t[i], "&") && t[i + 1].kind == TokKind::kIdent &&
        (is_punct(t[i + 2], "<") || is_punct(t[i + 2], ">")) && is_punct(t[i + 3], "&") &&
        t[i + 4].kind == TokKind::kIdent)
      add(t[i].line, "det.ptr-order",
          "ordering on object addresses (&" + t[i + 1].text + " vs &" + t[i + 4].text +
              ") is allocation-dependent — key on stable ids instead");
  }

  /// Lambdas with pointer-typed parameters compared by `<`/`>` in the body.
  void scan_lambda_comparators() {
    const auto& t = lexed_.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (!is_punct(t[i], "[")) continue;
      // Subscript, not a lambda introducer, when preceded by a value.
      if (i > 0 && (t[i - 1].kind == TokKind::kIdent || t[i - 1].kind == TokKind::kNumber ||
                    t[i - 1].kind == TokKind::kString || is_punct(t[i - 1], ")") ||
                    is_punct(t[i - 1], "]")))
        continue;
      const std::size_t cap_end = match_pair(t, i, '[', ']');
      if (cap_end == std::string::npos || cap_end >= t.size() || !is_punct(t[cap_end], "("))
        continue;
      const std::size_t params_end = match_pair(t, cap_end, '(', ')');
      if (params_end == std::string::npos) continue;
      // Pointer-typed parameter names: last ident of any `,`-separated
      // parameter that contains a `*`.
      std::set<std::string> ptr_params;
      std::size_t start = cap_end + 1;
      int depth = 0;
      for (std::size_t j = cap_end + 1; j < params_end; ++j) {
        const bool at_end = j == params_end - 1;
        if (is_punct(t[j], "(") || is_punct(t[j], "[") || is_punct(t[j], "<")) ++depth;
        if (is_punct(t[j], ")") || is_punct(t[j], "]") || is_punct(t[j], ">")) --depth;
        if ((depth == 0 && is_punct(t[j], ",")) || at_end) {
          const std::size_t stop = at_end ? params_end : j;
          bool has_star = false;
          std::string name;
          for (std::size_t k = start; k < stop; ++k) {
            if (is_punct(t[k], "*")) has_star = true;
            if (t[k].kind == TokKind::kIdent) name = t[k].text;
          }
          if (has_star && !name.empty()) ptr_params.insert(name);
          start = j + 1;
        }
      }
      if (ptr_params.empty()) continue;
      // Body: skip specifiers/trailing return until `{`, then search it.
      std::size_t body = params_end;
      while (body < t.size() && !is_punct(t[body], "{") && !is_punct(t[body], ";")) ++body;
      if (body >= t.size() || !is_punct(t[body], "{")) continue;
      const std::size_t body_end = match_pair(t, body, '{', '}');
      if (body_end == std::string::npos) continue;
      for (std::size_t j = body + 1; j + 2 < body_end; ++j) {
        if (t[j].kind == TokKind::kIdent && (is_punct(t[j + 1], "<") || is_punct(t[j + 1], ">")) &&
            t[j + 2].kind == TokKind::kIdent && ptr_params.count(t[j].text) > 0 &&
            ptr_params.count(t[j + 2].text) > 0 && t[j].text != t[j + 2].text) {
          add(t[j].line, "det.ptr-order",
              "comparator orders pointers '" + t[j].text + "' and '" + t[j + 2].text +
                  "' by address — compare stable keys (ids, names) instead");
          break;
        }
      }
    }
  }

  /// obs::Span / obs::count / obs::gauge / obs::observe with a literal name:
  /// the literal must follow the dotted lowercase convention and be present
  /// in the src/obs/names.hpp registry. Concatenated (dynamic) names are the
  /// registry's documented prefix families and are skipped.
  void check_obs_call(std::size_t i) {
    if (!in_library(rel_) || starts_with(rel_, "src/obs/")) return;
    const auto& t = lexed_.tokens;
    if (!is_ident(t[i], "obs") || i + 2 >= t.size() || !is_punct(t[i + 1], "::")) return;
    const std::string& fn = t[i + 2].text;
    const bool span = fn == "Span";
    const bool metric = fn == "count" || fn == "gauge" || fn == "observe";
    const bool event = fn == "flight_event";
    if (!span && !metric && !event) return;
    std::size_t j = i + 3;
    if (span && j < t.size() && t[j].kind == TokKind::kIdent) ++j;  // variable name
    if (j >= t.size() || (!is_punct(t[j], "(") && !is_punct(t[j], "{"))) return;
    ++j;
    if (j >= t.size() || t[j].kind != TokKind::kString) return;
    if (j + 1 < t.size() && is_punct(t[j + 1], "+")) return;  // dynamic name
    const std::string& name = t[j].text;
    const std::string_view rule =
        span ? "obs.span-name" : (event ? "obs.event-name" : "obs.metric-name");
    const char* noun = span ? "span" : (event ? "event" : "metric");
    if (!matches_obs_convention(name)) {
      add(t[j].line, rule,
          std::string(noun) + " name '" + name +
              "' violates the dotted lowercase family.detail convention "
              "(docs/OBSERVABILITY.md)");
      return;
    }
    if (registry_ == nullptr || registry_->empty()) return;
    const auto& known =
        span ? registry_->spans : (event ? registry_->events : registry_->metrics);
    if (known.count(name) == 0)
      add(t[j].line, rule,
          std::string(noun) + " name '" + name +
              "' is not in the registry — add it to src/obs/names.hpp and "
              "docs/OBSERVABILITY.md");
  }

  std::string_view rel_;
  const ObsRegistry* registry_;
  LexResult lexed_;
  std::set<std::string> unordered_vars_;
  std::map<int, std::set<std::string>> suppressed_;
  std::vector<Finding> findings_;
};

}  // namespace

ObsRegistry parse_obs_registry(std::string_view names_hpp) {
  ObsRegistry reg;
  const LexResult lexed = lex(names_hpp);
  std::set<std::string, std::less<>>* current = nullptr;
  for (const Token& t : lexed.tokens) {
    if (t.kind == TokKind::kIdent) {
      if (t.text == "kSpanNames") current = &reg.spans;
      if (t.text == "kMetricNames") current = &reg.metrics;
      if (t.text == "kEventNames") current = &reg.events;
    }
    if (t.kind == TokKind::kString && current != nullptr) current->insert(t.text);
  }
  return reg;
}

std::vector<Finding> lint_source(std::string_view rel_path, std::string_view content,
                                 const ObsRegistry* registry) {
  return Linter(rel_path, content, registry).run();
}

std::vector<Finding> check_rule_sync(std::string_view header_rel_path,
                                     std::string_view header_content,
                                     std::string_view docs_rel_path,
                                     std::string_view docs_content) {
  std::set<std::string> catalogued;
  for (const Token& t : lex(header_content).tokens)
    if (t.kind == TokKind::kString && t.text.find('.') != std::string::npos)
      catalogued.insert(t.text);

  // A documented rule is the first backticked token of a table row when that
  // token is dotted and plain (no spaces, scopes or calls) — the same scrape
  // the retired test_verify string-scrape test used.
  std::set<std::string> documented;
  std::istringstream in{std::string(docs_content)};
  std::string line;
  while (std::getline(in, line)) {
    const auto bar = line.find_first_not_of(" \t");
    if (bar == std::string::npos || line[bar] != '|') continue;
    const auto open = line.find('`');
    if (open == std::string::npos) continue;
    const auto close = line.find('`', open + 1);
    if (close == std::string::npos) continue;
    const std::string tok = line.substr(open + 1, close - open - 1);
    if (tok.find('.') == std::string::npos) continue;
    if (tok.find_first_of(" :(/") != std::string::npos) continue;
    documented.insert(tok);
  }

  std::vector<Finding> findings;
  for (const std::string& r : catalogued)
    if (documented.count(r) == 0)
      findings.push_back({std::string(header_rel_path), 1, "verify.rule-sync",
                          "rule '" + r + "' is catalogued but has no table row in " +
                              std::string(docs_rel_path)});
  for (const std::string& r : documented)
    if (catalogued.count(r) == 0)
      findings.push_back({std::string(docs_rel_path), 1, "verify.rule-sync",
                          "rule '" + r + "' is documented but missing from " +
                              std::string(header_rel_path)});
  sort_findings(findings);
  return findings;
}

std::vector<Finding> check_header_self_contained(const std::string& header_path,
                                                 const std::string& rel_path,
                                                 const std::string& include_dir,
                                                 const std::string& compiler) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "fabriclint_hdr";
  fs::create_directories(dir);
  const fs::path tu = dir / "selfcheck.cpp";
  const fs::path err = dir / "selfcheck.err";
  {
    std::ofstream out(tu);
    out << "#include \"" << header_path << "\"\n";
  }
  const std::string cmd = compiler + " -std=c++20 -fsyntax-only -I \"" + include_dir +
                          "\" \"" + tu.string() + "\" 2> \"" + err.string() + "\"";
  const int rc = std::system(cmd.c_str());  // NOLINT
  if (rc == 0) return {};
  std::string first_error;
  std::ifstream in(err);
  std::getline(in, first_error);
  return {{rel_path, 1, "hdr.self-contained",
           "header does not compile standalone: " + first_error}};
}

std::string findings_json(const std::vector<Finding>& findings, long long elapsed_ms) {
  std::string out = "{\"schema\": \"vpga.fabriclint.v4\", \"total\": " +
                    std::to_string(findings.size()) + ", \"findings\": [";
  bool first = true;
  for (const Finding& f : findings) {
    if (!first) out += ", ";
    first = false;
    out += "{\"file\": ";
    obs::json::append_string(out, f.file);
    out += ", \"line\": " + std::to_string(f.line) + ", \"rule\": ";
    obs::json::append_string(out, f.rule);
    out += ", \"message\": ";
    obs::json::append_string(out, f.message);
    out += "}";
  }
  out += "]";
  if (elapsed_ms >= 0) out += ", \"elapsed_ms\": " + std::to_string(elapsed_ms);
  out += "}";
  return out;
}

void sort_findings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    if (a.rule != b.rule) return a.rule < b.rule;
    return a.message < b.message;
  });
}

}  // namespace vpga::fabriclint

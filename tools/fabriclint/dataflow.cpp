#include "dataflow.hpp"

#include <set>

namespace vpga::fabriclint {
namespace {

bool is_ident(const Token& t, std::string_view text) {
  return t.kind == TokKind::kIdent && t.text == text;
}
bool is_punct(const Token& t, std::string_view text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

/// Head type idents the dataflow pass attributes declarations to. CamelCase
/// project class names are accepted separately in type_end_at().
const std::set<std::string_view>& known_type_heads() {
  static const std::set<std::string_view> t = {
      "map",    "unordered_map", "multimap", "unordered_multimap",
      "set",    "unordered_set", "multiset", "unordered_multiset",
      "vector", "deque",         "list",     "array",
      "string", "string_view",   "auto",     "int",
      "long",   "short",         "unsigned", "signed",
      "char",   "bool",          "float",    "double",
      "size_t", "ptrdiff_t",     "int8_t",   "int16_t",
      "int32_t", "int64_t",      "uint8_t",  "uint16_t",
      "uint32_t", "uint64_t",    "uintptr_t"};
  return t;
}

bool camel_case(std::string_view name) {
  if (name.empty() || name[0] < 'A' || name[0] > 'Z') return false;
  for (char c : name)
    if (c >= 'a' && c <= 'z') return true;
  return false;
}

/// Keywords that can precede a declaration's type without ending the
/// statement context.
bool decl_qualifier(const Token& t) {
  return is_ident(t, "const") || is_ident(t, "static") || is_ident(t, "constexpr") ||
         is_ident(t, "inline") || is_ident(t, "thread_local") || is_ident(t, "mutable");
}

/// Index one past the `>` matching the `<` at `open` (`>>` counts twice), or
/// npos when it never closes before `;`/`{`.
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

/// close[i] = index of the token closing the (), [] or {} opened at i, over
/// the half-open token range [begin, end).
std::vector<std::size_t> match_brackets(const std::vector<Token>& toks,
                                        std::size_t begin, std::size_t end) {
  std::vector<std::size_t> close(toks.size(), std::string::npos);
  std::vector<std::size_t> stack;
  for (std::size_t i = begin; i < end && i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kPunct || toks[i].text.size() != 1) continue;
    const char c = toks[i].text[0];
    if (c == '(' || c == '[' || c == '{') {
      stack.push_back(i);
    } else if (c == ')' || c == ']' || c == '}') {
      const char open = c == ')' ? '(' : (c == ']' ? '[' : '{');
      while (!stack.empty() && toks[stack.back()].text[0] != open) stack.pop_back();
      if (!stack.empty()) {
        close[stack.back()] = i;
        stack.pop_back();
      }
    }
  }
  return close;
}

/// The collector proper: one instance per (tu, fn) pair.
class DataflowAnalyzer {
 public:
  DataflowAnalyzer(const TuSymbols& tu, const FunctionInfo& fn)
      : tu_(tu), fn_(fn), close_(match_brackets(tu.lexed.tokens, 0, tu.lexed.tokens.size())) {}

  FunctionDataflow run() {
    if (!fn_.is_definition) return std::move(df_);
    collect_params();
    recover_lambdas();
    recover_loops();
    collect_locals();
    return std::move(df_);
  }

 private:
  const std::vector<Token>& toks() const { return tu_.lexed.tokens; }

  /// Attempts to read a declaration's type at token index i. On success
  /// returns the index of the first modifier/name token after the (possibly
  /// templated) type; 0 on failure.
  std::size_t type_end_at(std::size_t i) const {
    const auto& t = toks();
    if (t[i].kind != TokKind::kIdent) return 0;
    if (known_type_heads().count(t[i].text) == 0 && !camel_case(t[i].text)) return 0;
    std::size_t j = i + 1;
    if (j < t.size() && is_punct(t[j], "<")) {
      const std::size_t a = match_angle(t, j);
      if (a == std::string::npos) return 0;
      j = a;
    }
    return j;
  }

  void collect_params() {
    const auto& t = toks();
    std::size_t i = fn_.params_open + 1;
    const std::size_t end =
        fn_.params_close == std::string::npos ? fn_.params_open : fn_.params_close;
    while (i < end) {
      // Skip leading qualifiers and namespace qualification of the type.
      while (i < end && (decl_qualifier(t[i]) ||
                         (i + 1 < end && t[i].kind == TokKind::kIdent &&
                          is_punct(t[i + 1], "::"))))
        i += is_punct(t[i + 1 < end ? i + 1 : i], "::") && !decl_qualifier(t[i]) ? 2 : 1;
      std::size_t j = i < end ? type_end_at(i) : 0;
      if (j == 0 || j > end) {
        // Not a recognized declaration: skip to the next top-level comma.
        while (i < end && !is_punct(t[i], ",")) {
          if (is_punct(t[i], "(") || is_punct(t[i], "[") || is_punct(t[i], "{")) {
            const std::size_t c = close_[i];
            if (c == std::string::npos || c >= end) return;
            i = c;
          }
          ++i;
        }
        ++i;
        continue;
      }
      bool ref = false;
      while (j < end && (is_punct(t[j], "&") || is_punct(t[j], "&&") ||
                         is_punct(t[j], "*") || decl_qualifier(t[j]))) {
        if (!decl_qualifier(t[j])) ref = true;
        ++j;
      }
      if (j < end && t[j].kind == TokKind::kIdent)
        df_.vars.push_back({t[j].text, j, t[j].line, true, ref, false});
      i = j;
      while (i < end && !is_punct(t[i], ",")) {
        if (is_punct(t[i], "(") || is_punct(t[i], "[") || is_punct(t[i], "{")) {
          const std::size_t c = close_[i];
          if (c == std::string::npos || c >= end) return;
          i = c;
        }
        ++i;
      }
      ++i;
    }
  }

  /// Records the body range of every lambda literal: a `[` that is not a
  /// subscript (no ident/`]`/`)` before it), its capture list, an optional
  /// parameter list, specifier tokens, then the `{` body.
  void recover_lambdas() {
    const auto& t = toks();
    for (std::size_t i = fn_.body_begin + 1; i + 1 < fn_.body_end; ++i) {
      if (!is_punct(t[i], "[")) continue;
      if (i > 0 && (t[i - 1].kind == TokKind::kIdent || is_punct(t[i - 1], "]") ||
                    is_punct(t[i - 1], ")")) &&
          !is_ident(t[i - 1], "return") && !is_ident(t[i - 1], "co_return"))
        continue;  // subscript
      const std::size_t cap_close = close_[i];
      if (cap_close == std::string::npos || cap_close >= fn_.body_end) continue;
      std::size_t j = cap_close + 1;
      if (j < fn_.body_end && is_punct(t[j], "(")) {
        const std::size_t p = close_[j];
        if (p == std::string::npos || p >= fn_.body_end) continue;
        j = p + 1;
      }
      // mutable / noexcept / -> RetType, but never across a statement end.
      while (j < fn_.body_end && !is_punct(t[j], "{") && !is_punct(t[j], ";") &&
             j - cap_close < 8)
        ++j;
      if (j >= fn_.body_end || !is_punct(t[j], "{")) continue;
      const std::size_t body_close = close_[j];
      if (body_close == std::string::npos || body_close >= fn_.body_end) continue;
      df_.lambda_bodies.push_back({j, body_close + 1});
    }
  }

  void recover_loops() {
    const auto& t = toks();
    for (std::size_t i = fn_.body_begin + 1; i + 1 < fn_.body_end; ++i) {
      if (t[i].kind != TokKind::kIdent) continue;
      LoopInfo loop;
      loop.header_tok = i;
      loop.line = t[i].line;
      if ((is_ident(t[i], "for") || is_ident(t[i], "while")) && i + 1 < fn_.body_end &&
          is_punct(t[i + 1], "(")) {
        // `} while (...)` is the tail of a do-while already recovered below.
        if (is_ident(t[i], "while") && i > 0 && is_punct(t[i - 1], "}")) continue;
        const std::size_t header_close = close_[i + 1];
        if (header_close == std::string::npos || header_close + 1 >= fn_.body_end) continue;
        if (is_ident(t[i], "for")) recover_range_for(loop, i + 1, header_close);
        body_range(loop, header_close + 1);
      } else if (is_ident(t[i], "do") && i + 1 < fn_.body_end && is_punct(t[i + 1], "{")) {
        body_range(loop, i + 1);
      } else {
        continue;
      }
      if (loop.body_end == 0) continue;
      df_.loops.push_back(std::move(loop));
    }
  }

  /// Fills body_begin/body_end with the statement after the loop header.
  void body_range(LoopInfo& loop, std::size_t at) {
    const std::size_t end = statement_end(at);
    if (end == std::string::npos) return;
    loop.body_begin = at;
    loop.body_end = end;
  }

  /// One past the last token of the statement that starts at `at`, or npos:
  /// a `{` block; a for, while, switch or if (with its else) statement,
  /// which ends where its own body ends; otherwise up to the next `;`.
  std::size_t statement_end(std::size_t at) const {
    const auto& t = toks();
    if (at >= fn_.body_end) return std::string::npos;
    if (is_punct(t[at], "{")) {
      const std::size_t c = close_[at];
      return c == std::string::npos || c >= fn_.body_end ? std::string::npos : c + 1;
    }
    const bool is_if = is_ident(t[at], "if");
    if ((is_if || is_ident(t[at], "for") || is_ident(t[at], "while") ||
         is_ident(t[at], "switch")) &&
        at + 1 < fn_.body_end && is_punct(t[at + 1], "(")) {
      const std::size_t c = close_[at + 1];
      if (c == std::string::npos || c >= fn_.body_end) return std::string::npos;
      const std::size_t end = statement_end(c + 1);
      if (is_if && end < fn_.body_end && is_ident(t[end], "else")) return statement_end(end + 1);
      return end;
    }
    std::size_t j = at;
    while (j < fn_.body_end && !is_punct(t[j], ";")) {
      if (is_punct(t[j], "(") || is_punct(t[j], "[") || is_punct(t[j], "{")) {
        const std::size_t c = close_[j];
        if (c == std::string::npos || c >= fn_.body_end) return std::string::npos;
        j = c;
      }
      ++j;
    }
    return j < fn_.body_end ? j + 1 : std::string::npos;
  }

  /// Detects `for (decl : range)` and normalizes the range expression. With
  /// `::` lexed as one token, a single `:` at header paren depth 0 is
  /// unambiguously the range colon.
  void recover_range_for(LoopInfo& loop, std::size_t header_open,
                         std::size_t header_close) {
    const auto& t = toks();
    std::size_t colon = std::string::npos;
    int depth = 0;
    for (std::size_t k = header_open + 1; k < header_close; ++k) {
      if (is_punct(t[k], "(") || is_punct(t[k], "[") || is_punct(t[k], "{")) ++depth;
      if (is_punct(t[k], ")") || is_punct(t[k], "]") || is_punct(t[k], "}")) --depth;
      if (depth == 0 && is_punct(t[k], ":")) {
        colon = k;
        break;
      }
    }
    if (colon == std::string::npos) return;
    loop.range_for = true;
    for (std::size_t k = colon + 1; k < header_close; ++k)
      loop.range_expr += is_punct(t[k], "->") ? "." : t[k].text;
  }

  void collect_locals() {
    const auto& t = toks();
    for (std::size_t i = fn_.body_begin + 1; i + 1 < fn_.body_end; ++i) {
      // Statement context: a declaration starts after `;` `{` `}` `(`;
      // namespace qualification (`std::`, `logic::`) and qualifier keywords
      // (`static const`) may precede the head type ident — walk back over
      // both, collecting `static` on the way.
      std::size_t start = i;
      bool is_static = false;
      while (start > fn_.body_begin + 1) {
        const Token& prev = t[start - 1];
        if (decl_qualifier(prev)) {
          if (is_ident(prev, "static")) is_static = true;
          --start;
          continue;
        }
        if (is_punct(prev, "::") && start >= 2 && t[start - 2].kind == TokKind::kIdent) {
          start -= 2;
          continue;
        }
        break;
      }
      if (start > fn_.body_begin + 1) {
        const Token& prev = t[start - 1];
        const bool stmt_start = is_punct(prev, ";") || is_punct(prev, "{") ||
                                is_punct(prev, "}") || is_punct(prev, "(");
        if (!stmt_start) continue;
      }
      const std::size_t after_type = type_end_at(i);
      if (after_type == 0 || after_type + 1 >= fn_.body_end) continue;
      std::size_t j = after_type;
      bool ref = false;
      while (j + 1 < fn_.body_end && (is_punct(t[j], "&") || is_punct(t[j], "&&") ||
                                      is_punct(t[j], "*") || decl_qualifier(t[j]))) {
        if (!decl_qualifier(t[j])) ref = true;
        ++j;
      }
      if (j + 1 >= fn_.body_end || t[j].kind != TokKind::kIdent) continue;
      const Token& next = t[j + 1];
      const bool declarator_end = is_punct(next, "=") || is_punct(next, ";") ||
                                  is_punct(next, "{") || is_punct(next, "(") ||
                                  is_punct(next, "[") || is_punct(next, ",") ||
                                  is_punct(next, ":") || is_punct(next, ")");
      if (!declarator_end) continue;
      if (df_.var(t[j].text) != nullptr) continue;  // first declaration wins
      df_.vars.push_back({t[j].text, j, t[j].line, false, ref, is_static});
      i = j;
    }
  }

  const TuSymbols& tu_;
  const FunctionInfo& fn_;
  std::vector<std::size_t> close_;
  FunctionDataflow df_;
};

}  // namespace

FunctionDataflow analyze_dataflow(const TuSymbols& tu, const FunctionInfo& fn) {
  return DataflowAnalyzer(tu, fn).run();
}

std::string receiver_chain(const std::vector<Token>& toks, std::size_t callee_tok) {
  std::vector<std::string> parts;
  std::size_t i = callee_tok;
  while (i >= 2 && (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->")) &&
         toks[i - 2].kind == TokKind::kIdent) {
    parts.push_back(toks[i - 2].text);
    i -= 2;
  }
  // A pending `.`/`->` means the walk stopped inside a longer chain whose
  // head is not a plain ident (`x[0].y.callee`, `f().y.callee`): unresolved.
  // A `)`/`]` directly before the first chain ident is NOT a receiver — an
  // ident can only follow one across a statement or control-flow-header
  // boundary (`for (...) out.push_back(x);`).
  if (i >= 1 && (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->")))
    return {};
  std::string out;
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    if (!out.empty()) out += '.';
    out += *it;
  }
  return out;
}

}  // namespace vpga::fabriclint

#include "symbols.hpp"

#include <array>

namespace vpga::fabriclint {
namespace {

bool is_ident(const Token& t, std::string_view text) {
  return t.kind == TokKind::kIdent && t.text == text;
}
bool is_punct(const Token& t, std::string_view text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

bool all_caps_macro(std::string_view name) {
  bool has_alpha = false;
  for (char c : name) {
    if (c >= 'a' && c <= 'z') return false;
    if (c >= 'A' && c <= 'Z') has_alpha = true;
  }
  return has_alpha;
}

const std::set<std::string_view>& control_keywords() {
  static const std::set<std::string_view> kw = {
      "if",       "for",      "while",    "switch",       "catch",   "return",
      "sizeof",   "alignof",  "decltype", "static_assert", "noexcept", "throw",
      "co_await", "co_yield", "co_return", "new",          "delete",  "typeid",
      "alignas",  "requires", "assert"};
  return kw;
}

const std::set<std::string_view>& lock_raii_types() {
  static const std::set<std::string_view> t = {"lock_guard", "scoped_lock",
                                               "unique_lock", "shared_lock"};
  return t;
}

const std::set<std::string_view>& stdio_names() {
  static const std::set<std::string_view> s = {
      "cout", "cerr", "clog",     "printf", "fprintf", "vprintf",
      "puts", "putchar", "fputs", "fputc",  "fwrite"};
  return s;
}

bool mutex_type_name(std::string_view t) {
  return t == "mutex" || t == "recursive_mutex" || t == "shared_mutex" ||
         t == "timed_mutex" || t == "recursive_timed_mutex";
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

/// The analyzer proper: one instance per TU.
class TuAnalyzer {
 public:
  TuAnalyzer(std::string_view rel_path, std::string_view content) {
    tu_.rel_path = std::string(rel_path);
    tu_.lexed = lex(content);
    match_brackets();
    index_suppressions();
  }

  TuSymbols run() {
    scan_scopes();
    return std::move(tu_);
  }

 private:
  const std::vector<Token>& toks() const { return tu_.lexed.tokens; }

  /// close_[i] = index of the token closing the (), [] or {} opened at i.
  void match_brackets() {
    const auto& t = toks();
    close_.assign(t.size(), std::string::npos);
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != TokKind::kPunct || t[i].text.size() != 1) continue;
      const char c = t[i].text[0];
      if (c == '(' || c == '[' || c == '{') {
        stack.push_back(i);
      } else if (c == ')' || c == ']' || c == '}') {
        const char open = c == ')' ? '(' : (c == ']' ? '[' : '{');
        // Pop until the matching opener kind (tolerates lossy streams).
        while (!stack.empty() && toks()[stack.back()].text[0] != open) stack.pop_back();
        if (!stack.empty()) {
          close_[stack.back()] = i;
          stack.pop_back();
        }
      }
    }
  }

  int next_code_line(int line) const {
    for (const Token& t : toks())
      if (t.line > line) return t.line;
    return line + 1;
  }

  /// Well-formed suppressions only; malformed ones are reported by the
  /// token-level Linter, not here.
  void index_suppressions() {
    for (const Directive& d : tu_.lexed.directives) {
      const int target = d.own_line ? next_code_line(d.line) : d.line;
      if (d.kind == Directive::Kind::kSortedDownstream)
        tu_.suppressed[target].insert("det.unordered-iter");
      if (d.kind == Directive::Kind::kDisable && d.has_reason && !d.rule.empty())
        tu_.suppressed[target].insert(d.rule);
    }
  }

  // -------------------------------------------------------------------------
  // Scope scan
  // -------------------------------------------------------------------------

  struct Scope {
    enum class Kind { kNamespace, kClass, kOther };
    Kind kind = Kind::kOther;
    int class_idx = -1;
    std::size_t close = std::string::npos;
  };

  bool at_decl_scope() const {
    return scopes_.empty() || scopes_.back().kind != Scope::Kind::kOther;
  }
  int current_class() const {
    return scopes_.empty() || scopes_.back().kind != Scope::Kind::kClass
               ? -1
               : scopes_.back().class_idx;
  }

  void scan_scopes() {
    const auto& t = toks();
    std::size_t i = 0;
    std::size_t stmt_start = 0;
    while (i < t.size()) {
      if (is_punct(t[i], "}")) {
        if (!scopes_.empty() && scopes_.back().close == i) scopes_.pop_back();
        stmt_start = ++i;
        continue;
      }
      if (is_punct(t[i], ";")) {
        if (current_class() >= 0) scan_field_statement(stmt_start, i);
        stmt_start = ++i;
        continue;
      }
      if (is_ident(t[i], "namespace") && !(i > 0 && is_ident(t[i - 1], "using"))) {
        std::size_t j = i + 1;
        while (j < t.size() && !is_punct(t[j], "{") && !is_punct(t[j], ";")) ++j;
        if (j < t.size() && is_punct(t[j], "{")) {
          scopes_.push_back({Scope::Kind::kNamespace, -1, close_[j]});
          stmt_start = i = j + 1;
        } else {
          stmt_start = i = j + 1;  // namespace alias / malformed
        }
        continue;
      }
      if ((is_ident(t[i], "class") || is_ident(t[i], "struct") || is_ident(t[i], "union")) &&
          !(i > 0 && (is_punct(t[i - 1], "<") || is_punct(t[i - 1], ",") ||
                      is_ident(t[i - 1], "enum")))) {
        if (std::size_t adv = try_open_class(i, stmt_start); adv != 0) {
          i = adv;
          continue;
        }
      }
      if (at_decl_scope() && t[i].kind == TokKind::kIdent) {
        if (std::size_t adv = try_parse_function(i, stmt_start); adv != 0) {
          stmt_start = i = adv;
          continue;
        }
      }
      if (is_punct(t[i], "{")) {
        scopes_.push_back({Scope::Kind::kOther, -1, close_[i]});
        stmt_start = ++i;
        continue;
      }
      ++i;
    }
  }

  /// At a `class`/`struct` keyword: opens a class scope when this is a
  /// definition. Returns the next scan index, or 0 when not a definition.
  std::size_t try_open_class(std::size_t i, std::size_t& stmt_start) {
    const auto& t = toks();
    std::size_t j = i + 1;
    std::string name;
    if (j < t.size() && t[j].kind == TokKind::kIdent) name = t[j++].text;
    // Walk to '{' (definition) or ';'/'('/'=' (declaration, parameter, ...).
    while (j < t.size() && !is_punct(t[j], "{")) {
      if (is_punct(t[j], ";") || is_punct(t[j], "(") || is_punct(t[j], ")") ||
          is_punct(t[j], "=") || is_punct(t[j], ">"))
        return 0;
      ++j;
    }
    if (j >= t.size() || name.empty()) return 0;
    tu_.classes.push_back({name, {}, {}});
    scopes_.push_back(
        {Scope::Kind::kClass, static_cast<int>(tu_.classes.size() - 1), close_[j]});
    stmt_start = j + 1;
    return j + 1;
  }

  /// A class-scope statement ending in `;`: extracts FABRIC_GUARDED_BY
  /// annotations and mutex members.
  void scan_field_statement(std::size_t begin, std::size_t end) {
    const auto& t = toks();
    ClassInfo& cls = tu_.classes[static_cast<std::size_t>(current_class())];
    for (std::size_t i = begin; i < end; ++i) {
      if (is_ident(t[i], "FABRIC_GUARDED_BY") && i > begin &&
          t[i - 1].kind == TokKind::kIdent && i + 1 < end && is_punct(t[i + 1], "(")) {
        const std::size_t close = close_[i + 1];
        if (close == std::string::npos || close > end) continue;
        std::string mutex;
        for (std::size_t k = i + 2; k < close; ++k)
          if (t[k].kind == TokKind::kIdent) mutex = t[k].text;  // last path segment
        if (!mutex.empty())
          cls.fields.push_back({t[i - 1].text, mutex, t[i - 1].line});
      }
      if (t[i].kind == TokKind::kIdent && mutex_type_name(t[i].text) && i + 1 < end &&
          t[i + 1].kind == TokKind::kIdent &&
          (i + 2 >= end || is_punct(t[i + 2], ";") || is_punct(t[i + 2], "=") ||
           is_ident(t[i + 2], "FABRIC_GUARDED_BY")))
        cls.mutexes.insert(t[i + 1].text);
    }
  }

  /// At an identifier followed by `(` in declaration scope: records a
  /// function definition (with body analysis) or declaration. Returns the
  /// next scan index, or 0 when this is not a function.
  std::size_t try_parse_function(std::size_t i, std::size_t stmt_start) {
    const auto& t = toks();
    std::string name = t[i].text;
    std::size_t open = i + 1;
    if (is_ident(t[i], "operator")) {
      // operator<op>( — fold the operator tokens into the name.
      std::size_t j = i + 1;
      while (j < t.size() && !is_punct(t[j], "(") && j - i <= 3) name += t[j++].text;
      if (j < t.size() && is_punct(t[j], "(")) {
        // operator()(args): the first () pair is part of the name.
        if (close_[j] == j + 1 && j + 2 < t.size() && is_punct(t[j + 2], "(")) {
          name += "()";
          j += 2;
        }
        open = j;
      } else {
        return 0;
      }
    }
    if (open >= t.size() || !is_punct(t[open], "(")) return 0;
    if (control_keywords().count(name) > 0) return 0;
    if (all_caps_macro(name)) return 0;  // VPGA_ASSERT(...), FABRIC_GUARDED_BY(...)
    const std::size_t params_close = close_[open];
    if (params_close == std::string::npos) return 0;

    FunctionInfo fn;
    fn.name = name;
    fn.line = t[i].line;

    // `Class::name` qualification (nearest qualifier wins for A::B::name).
    std::size_t name_start = i;
    while (name_start >= 2 && is_punct(t[name_start - 1], "::") &&
           t[name_start - 2].kind == TokKind::kIdent) {
      if (fn.class_name.empty()) fn.class_name = t[name_start - 2].text;
      name_start -= 2;
    }
    const bool dtor = name_start > 0 && is_punct(t[name_start - 1], "~");
    if (dtor) --name_start;
    if (fn.class_name.empty() && current_class() >= 0)
      fn.class_name = tu_.classes[static_cast<std::size_t>(current_class())].name;
    fn.is_ctor_or_dtor = dtor || (!fn.class_name.empty() && fn.name == fn.class_name);

    // Return type: statement tokens before the (qualified) name.
    if (!fn.is_ctor_or_dtor)
      for (std::size_t k = stmt_start; k < name_start; ++k) {
        if (t[k].kind == TokKind::kIdent) fn.return_type.push_back(t[k].text);
        if (is_punct(t[k], "&") || is_punct(t[k], "&&")) fn.returns_reference = true;
      }
    fn.params_open = open;
    fn.params_close = params_close;

    // Past the parameter list: specifiers, ctor init list, then `{` or `;`.
    std::size_t j = params_close + 1;
    while (j < t.size()) {
      if (is_punct(t[j], "{") || is_punct(t[j], ";")) break;
      if (is_punct(t[j], "=")) {
        // = default / = delete / = 0: declaration; skip to ';'.
        while (j < t.size() && !is_punct(t[j], ";")) ++j;
        break;
      }
      if (is_punct(t[j], ":")) {
        // Ctor member-init list: skip each `name(args)` / `name{args}`.
        ++j;
        while (j < t.size()) {
          while (j < t.size() && !is_punct(t[j], "(") && !is_punct(t[j], "{") &&
                 !is_punct(t[j], ";"))
            ++j;
          if (j >= t.size() || is_punct(t[j], ";")) break;
          const std::size_t c = close_[j];
          if (c == std::string::npos) return 0;
          if (is_punct(t[j], "{")) {
            // Brace-init of a member, unless this IS the body: a body brace
            // follows `)`/`}` of a previous initializer or the init colon
            // with no preceding member name — heuristic: a member init brace
            // is preceded by an identifier.
            if (j == 0 || t[j - 1].kind != TokKind::kIdent) break;
          }
          j = c + 1;
          if (j < t.size() && is_punct(t[j], ",")) {
            ++j;
            continue;
          }
          break;
        }
        continue;
      }
      if (is_punct(t[j], "(")) {  // noexcept(...)
        const std::size_t c = close_[j];
        if (c == std::string::npos) return 0;
        j = c + 1;
        continue;
      }
      if (t[j].kind == TokKind::kIdent || t[j].kind == TokKind::kPunct) {
        // const / noexcept / override / final / & / && / -> trailing return
        ++j;
        continue;
      }
      return 0;
    }
    if (j >= t.size()) return 0;

    if (is_punct(t[j], "{")) {
      const std::size_t body_close = close_[j];
      if (body_close == std::string::npos) return 0;
      fn.is_definition = true;
      fn.body_begin = j;
      fn.body_end = body_close + 1;
      analyze_body(fn, open, params_close);
      tu_.functions.push_back(std::move(fn));
      return body_close + 1;
    }
    if (is_punct(t[j], ";")) {
      tu_.functions.push_back(std::move(fn));
      return j + 1;
    }
    return 0;
  }

  // -------------------------------------------------------------------------
  // Body analysis
  // -------------------------------------------------------------------------

  /// Innermost enclosing block close for a token index, given a stack of
  /// open-brace token indices.
  std::size_t enclosing_close(const std::vector<std::size_t>& blocks,
                              std::size_t body_end) const {
    if (blocks.empty()) return body_end - 1;
    const std::size_t c = close_[blocks.back()];
    return c == std::string::npos ? body_end - 1 : c;
  }

  void analyze_body(FunctionInfo& fn, std::size_t params_open, std::size_t params_close) {
    const auto& t = toks();

    // Parameters of floating-point type count as accumulation targets.
    for (std::size_t k = params_open + 1; k < params_close; ++k)
      if ((is_ident(t[k], "double") || is_ident(t[k], "float")) && k + 1 < params_close) {
        std::size_t m = k + 1;
        while (m < params_close && (is_punct(t[m], "&") || is_punct(t[m], "*") ||
                                    is_ident(t[m], "const")))
          ++m;
        if (m < params_close && t[m].kind == TokKind::kIdent)
          fn.float_vars.push_back({t[m].text, m});
      }

    std::vector<std::size_t> blocks;  // open `{` indices inside the body
    for (std::size_t i = fn.body_begin + 1; i + 1 < fn.body_end; ++i) {
      if (is_punct(t[i], "{")) {
        blocks.push_back(i);
        continue;
      }
      if (is_punct(t[i], "}")) {
        if (!blocks.empty() && close_[blocks.back()] == i) blocks.pop_back();
        continue;
      }
      if (t[i].kind != TokKind::kIdent) continue;

      // RAII lock acquisition: lock_guard/scoped_lock/unique_lock/shared_lock
      // [<...>] var(args).
      if (lock_raii_types().count(t[i].text) > 0) {
        std::size_t j = i + 1;
        if (j < t.size() && is_punct(t[j], "<")) {
          const std::size_t a = match_angle(t, j);
          if (a == std::string::npos) continue;
          j = a;
        }
        if (j < t.size() && t[j].kind == TokKind::kIdent) ++j;  // variable name
        if (j >= t.size() || !is_punct(t[j], "(")) continue;
        const std::size_t args_close = close_[j];
        if (args_close == std::string::npos || args_close >= fn.body_end) continue;
        const std::size_t scope_end = enclosing_close(blocks, fn.body_end);
        std::string mutex;
        for (std::size_t k = j + 1; k <= args_close; ++k) {
          if (t[k].kind == TokKind::kIdent) mutex = t[k].text;  // last path segment
          if ((is_punct(t[k], ",") && close_[j] == args_close) || k == args_close) {
            if (!mutex.empty())
              fn.locks.push_back({mutex, i, scope_end, t[i].line});
            mutex.clear();
          }
        }
        continue;
      }

      // Manual m.lock() ... m.unlock(): held to unlock or body end.
      if (is_ident(t[i], "lock") && i >= 2 &&
          (is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->")) &&
          t[i - 2].kind == TokKind::kIdent && i + 1 < t.size() && is_punct(t[i + 1], "(")) {
        const std::string& m = t[i - 2].text;
        std::size_t until = fn.body_end - 1;
        for (std::size_t k = i + 1; k + 1 < fn.body_end; ++k)
          if (is_ident(t[k], "unlock") && k >= 2 && t[k - 2].text == m &&
              (is_punct(t[k - 1], ".") || is_punct(t[k - 1], "->"))) {
            until = k;
            break;
          }
        fn.locks.push_back({m, i, until, t[i].line});
        continue;
      }

      // std::thread locals and thread-lambda parallel regions.
      if (is_ident(t[i], "thread") || is_ident(t[i], "jthread")) {
        std::size_t ctor = std::string::npos;
        if (i + 1 < t.size() && t[i + 1].kind == TokKind::kIdent && i + 2 < t.size() &&
            (is_punct(t[i + 2], "(") || is_punct(t[i + 2], "{"))) {
          fn.thread_locals.push_back({t[i + 1].text, i + 1, t[i + 1].line, false});
          ctor = i + 2;
        } else if (i + 1 < t.size() && is_punct(t[i + 1], "(")) {
          ctor = i + 1;  // temporary std::thread(...)
        }
        if (ctor != std::string::npos) record_parallel_regions(fn, ctor);
        continue;
      }

      // Floating-point local declarations.
      if ((is_ident(t[i], "double") || is_ident(t[i], "float")) && i + 1 < t.size()) {
        std::size_t m = i + 1;
        while (m < t.size() &&
               (is_punct(t[m], "&") || is_punct(t[m], "*") || is_ident(t[m], "const")))
          ++m;
        if (m < t.size() && t[m].kind == TokKind::kIdent)
          fn.float_vars.push_back({t[m].text, m});
        continue;
      }

      // Unsuppressed direct stdio.
      if (stdio_names().count(t[i].text) > 0 &&
          !(i > 0 && (is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->"))) &&
          !tu_.is_suppressed(t[i].line, "io.stray-stream")) {
        fn.stdio_uses.push_back({t[i].text, t[i].line});
        continue;
      }

      // Call sites.
      if (i + 1 < t.size() && is_punct(t[i + 1], "(") &&
          control_keywords().count(t[i].text) == 0 && !all_caps_macro(t[i].text)) {
        CallSite c;
        c.callee = t[i].text;
        c.tok = i;
        c.line = t[i].line;
        if (i > 0 && (is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->"))) {
          c.member_call = true;
          fn.calls.push_back(std::move(c));
        } else if (i >= 2 && is_punct(t[i - 1], "::") && t[i - 2].kind == TokKind::kIdent) {
          c.qualifier = t[i - 2].text;
          fn.calls.push_back(std::move(c));
        } else {
          // `Type name(...)` declarations are excluded by the prev-token
          // test; keyword predecessors that introduce expressions are not.
          const Token& prev = t[i - 1];
          const bool decl_like =
              i > fn.body_begin &&
              ((prev.kind == TokKind::kIdent && prev.text != "return" &&
                prev.text != "else" && prev.text != "do" && prev.text != "co_return" &&
                prev.text != "co_yield") ||
               is_punct(prev, ">") || is_punct(prev, "*") || is_punct(prev, "&"));
          if (!decl_like) fn.calls.push_back(std::move(c));
        }
      }
    }

    // Resolve thread lifetimes: join()/detach()/std::move(t)/swap escape.
    for (ThreadLocalVar& tv : fn.thread_locals) {
      for (std::size_t k = tv.tok + 1; k + 1 < fn.body_end; ++k) {
        if (t[k].text != tv.name || t[k].kind != TokKind::kIdent) continue;
        const bool member = k + 2 < fn.body_end &&
                            (is_punct(t[k + 1], ".") || is_punct(t[k + 1], "->")) &&
                            (is_ident(t[k + 2], "join") || is_ident(t[k + 2], "detach"));
        const bool moved = k >= 2 && is_punct(t[k - 1], "(") &&
                           (is_ident(t[k - 2], "move") || is_ident(t[k - 2], "swap"));
        const bool returned = k >= 1 && is_ident(t[k - 1], "return");
        if (member || moved || returned) {
          tv.joined_or_detached = true;
          break;
        }
      }
    }
  }

  /// Records the body token range of every lambda literal among a thread
  /// constructor's arguments.
  void record_parallel_regions(FunctionInfo& fn, std::size_t ctor_open) {
    const auto& t = toks();
    const std::size_t args_close = close_[ctor_open];
    if (args_close == std::string::npos) return;
    for (std::size_t k = ctor_open + 1; k < args_close; ++k) {
      if (!is_punct(t[k], "[")) continue;
      if (!(is_punct(t[k - 1], "(") || is_punct(t[k - 1], ",") || is_punct(t[k - 1], "{")))
        continue;  // subscript, not a lambda introducer
      const std::size_t cap_close = close_[k];
      if (cap_close == std::string::npos || cap_close >= args_close) continue;
      std::size_t j = cap_close + 1;
      if (j < args_close && is_punct(t[j], "(")) {
        const std::size_t p = close_[j];
        if (p == std::string::npos) continue;
        j = p + 1;
      }
      while (j < args_close && !is_punct(t[j], "{")) ++j;  // mutable/noexcept/->
      if (j >= args_close) continue;
      const std::size_t body_close = close_[j];
      if (body_close == std::string::npos) continue;
      fn.parallel_regions.push_back({j, body_close + 1});
      k = body_close;
    }
  }

  TuSymbols tu_;
  std::vector<std::size_t> close_;
  std::vector<Scope> scopes_;
};

}  // namespace

TuSymbols analyze_tu(std::string_view rel_path, std::string_view content) {
  return TuAnalyzer(rel_path, content).run();
}

std::map<std::string, std::string> typed_locals(
    const TuSymbols& tu, const FunctionInfo& fn,
    const std::map<std::string, const ClassInfo*>& classes) {
  std::map<std::string, std::string> locals;
  const auto& t = tu.lexed.tokens;
  if (!fn.is_definition) return locals;
  for (std::size_t i = fn.body_begin + 1; i + 1 < fn.body_end; ++i) {
    if (t[i].kind != TokKind::kIdent || classes.count(t[i].text) == 0) continue;
    std::size_t j = i + 1;
    while (j + 1 < fn.body_end &&
           (is_punct(t[j], "&") || is_punct(t[j], "*") || is_ident(t[j], "const")))
      ++j;
    if (j + 1 < fn.body_end && t[j].kind == TokKind::kIdent)
      locals.emplace(t[j].text, t[i].text);
  }
  return locals;
}

}  // namespace vpga::fabriclint

/// \file semantics.cpp
/// lint_project(): the project-wide rule passes of fabriclint v3, built on
/// the per-TU symbol tables (symbols.hpp), the interprocedural call graph
/// (callgraph.hpp) and the per-function dataflow facts (dataflow.hpp). Every
/// rule here degrades to silence when the C++ subset cannot resolve
/// something — over-reporting would make the lint gate unusable, and the
/// dynamic TSan CI job backstops what the subset misses.

#include <algorithm>
#include <atomic>
#include <map>
#include <optional>
#include <set>
#include <thread>
#include <tuple>
#include <string>
#include <string_view>
#include <vector>

#include "callgraph.hpp"
#include "dataflow.hpp"
#include "fabriclint.hpp"
#include "symbols.hpp"

namespace vpga::fabriclint {
namespace {

bool is_punct(const Token& t, std::string_view text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

bool in_src(std::string_view rel_path) {
  return rel_path.substr(0, 4) == "src/";
}

class SemanticLinter {
 public:
  SemanticLinter(const std::vector<SourceFile>& files, const ProjectOptions& options)
      : opts_(options) {
    // Per-TU analysis is independent per file: run it on a worker pool with
    // indexed result slots, so the TU order (and everything derived from it)
    // is identical to a serial run.
    tus_.resize(files.size());
    const std::size_t nworkers = std::min(
        std::max<std::size_t>(1, opts_.jobs), std::max<std::size_t>(1, files.size()));
    if (nworkers <= 1) {
      for (std::size_t i = 0; i < files.size(); ++i)
        tus_[i] = analyze_tu(files[i].rel_path, files[i].content);
    } else {
      std::atomic<std::size_t> next{0};
      std::vector<std::thread> workers;
      workers.reserve(nworkers);
      for (std::size_t w = 0; w < nworkers; ++w)
        workers.emplace_back([&] {
          for (std::size_t i = next.fetch_add(1); i < files.size();
               i = next.fetch_add(1))
            tus_[i] = analyze_tu(files[i].rel_path, files[i].content);
        });
      for (std::thread& t : workers) t.join();
    }
    for (const TuSymbols& tu : tus_)
      for (const ClassInfo& c : tu.classes)
        if (classes_.count(c.name) == 0) classes_.emplace(c.name, &c);
    graph_.emplace(tus_);
  }

  std::vector<Finding> run() {
    check_unguarded_access();
    check_lock_order();
    check_unjoined_threads();
    check_dropped_reports();
    check_float_accum();
    check_transitive_stdio();
    check_dataflow_rules();
    sort_findings(findings_);
    return std::move(findings_);
  }

 private:
  const CallGraph& graph() const { return *graph_; }

  void add(const TuSymbols& tu, int line, std::string rule, std::string message) {
    if (tu.is_suppressed(line, rule)) return;
    findings_.push_back({tu.rel_path, line, std::move(rule), std::move(message)});
  }

  /// True when `fn` holds `mutex` at token index `at` via a lexically
  /// enclosing lock event.
  static bool lock_active(const FunctionInfo& fn, std::string_view mutex,
                          std::size_t at) {
    for (const LockEvent& l : fn.locks)
      if (l.mutex == mutex && l.tok < at && at <= l.scope_end) return true;
    return false;
  }

  /// True when every caller of `fn_idx` holds `mutex` at its call site,
  /// directly or (recursively) via its own callers. A function with no
  /// callers does not hold the lock; cycles resolve optimistically so
  /// mutually recursive helpers under a locked entry point stay clean.
  bool callers_hold(int fn_idx, std::string_view mutex, std::set<int>& visiting) const {
    const auto& callers = graph().callers(fn_idx);
    if (callers.empty()) return false;
    for (const CallGraph::Edge& e : callers) {
      if (lock_active(graph().fn(e.from), mutex, e.tok)) continue;
      if (!visiting.insert(e.from).second) continue;  // cycle: optimistic
      const bool held = callers_hold(e.from, mutex, visiting);
      visiting.erase(e.from);
      if (!held) return false;
    }
    return true;
  }

  // ---------------------------------------------------------------------
  // conc.unguarded-access
  // ---------------------------------------------------------------------

  void check_unguarded_access() {
    for (int i = 0; i < graph().function_count(); ++i) {
      const FunctionInfo& fn = graph().fn(i);
      const TuSymbols& tu = graph().tu_of(i);
      if (!in_src(tu.rel_path) || fn.is_ctor_or_dtor) continue;
      const auto locals = typed_locals(tu, fn, classes_);
      const auto& toks = tu.lexed.tokens;
      for (std::size_t k = fn.body_begin + 1; k + 1 < fn.body_end; ++k) {
        if (toks[k].kind != TokKind::kIdent) continue;
        // Resolve the owning class: `obj.field` / `obj->field` through a
        // local of known class type or `this`, else a bare identifier
        // inside a member function of the owning class.
        std::string cls;
        if (k >= 2 && (is_punct(toks[k - 1], ".") || is_punct(toks[k - 1], "->")) &&
            toks[k - 2].kind == TokKind::kIdent) {
          if (toks[k - 2].text == "this") {
            cls = fn.class_name;
          } else if (const auto it = locals.find(toks[k - 2].text); it != locals.end()) {
            cls = it->second;
          } else {
            continue;
          }
        } else if (k >= 1 &&
                   (is_punct(toks[k - 1], ".") || is_punct(toks[k - 1], "->"))) {
          continue;  // member access through an unresolved receiver
        } else {
          cls = fn.class_name;
        }
        if (cls.empty()) continue;
        const auto cit = classes_.find(cls);
        if (cit == classes_.end()) continue;
        const FieldInfo* field = nullptr;
        for (const FieldInfo& f : cit->second->fields)
          if (f.name == toks[k].text && !f.guarded_by.empty()) field = &f;
        if (field == nullptr) continue;
        if (lock_active(fn, field->guarded_by, k)) continue;
        std::set<int> visiting{i};
        if (callers_hold(i, field->guarded_by, visiting)) continue;
        add(tu, toks[k].line, "conc.unguarded-access",
            "'" + cls + "::" + field->name + "' is FABRIC_GUARDED_BY(" +
                field->guarded_by + ") but accessed in '" + fn.name +
                "' without the mutex held on every path; take a "
                "std::lock_guard first (src/common/concurrency.hpp)");
      }
    }
  }

  // ---------------------------------------------------------------------
  // conc.lock-order
  // ---------------------------------------------------------------------

  /// Mutexes `fn_idx` may acquire directly or through any callee (memoized).
  const std::set<std::string>& acquires(int fn_idx) {
    auto it = acquires_.find(fn_idx);
    if (it != acquires_.end()) return it->second;
    auto& out = acquires_[fn_idx];  // inserted empty first: cycles terminate
    for (const LockEvent& l : graph().fn(fn_idx).locks) out.insert(l.mutex);
    for (const CallGraph::Edge& e : graph().callees(fn_idx)) {
      const std::set<std::string> sub = acquires(e.to);  // copy: `out` may move
      out.insert(sub.begin(), sub.end());
    }
    return out;
  }

  void check_lock_order() {
    struct Site {
      std::string file;
      int line = 0;
    };
    std::map<std::pair<std::string, std::string>, Site> pairs;
    auto note = [&](const std::string& held, const std::string& then,
                    const TuSymbols& tu, int line) {
      if (held == then) return;
      pairs.emplace(std::make_pair(held, then), Site{tu.rel_path, line});
    };
    for (int i = 0; i < graph().function_count(); ++i) {
      const FunctionInfo& fn = graph().fn(i);
      const TuSymbols& tu = graph().tu_of(i);
      if (!in_src(tu.rel_path)) continue;
      for (const LockEvent& l : fn.locks) {
        for (const LockEvent& l2 : fn.locks)
          if (l2.tok > l.tok && l2.tok <= l.scope_end) note(l.mutex, l2.mutex, tu, l2.line);
        for (const CallGraph::Edge& e : graph().callees(i))
          if (e.tok > l.tok && e.tok <= l.scope_end)
            for (const std::string& b : acquires(e.to)) note(l.mutex, b, tu, e.line);
      }
    }
    for (const auto& [pair, site] : pairs) {
      if (pair.first >= pair.second) continue;  // report each unordered pair once
      const auto rev = pairs.find({pair.second, pair.first});
      if (rev == pairs.end()) continue;
      // Anchor on the lexicographically first of the two witness sites.
      const Site& a = site;
      const Site& b = rev->second;
      const bool a_first = std::tie(a.file, a.line) <= std::tie(b.file, b.line);
      const Site& anchor = a_first ? a : b;
      const Site& other = a_first ? b : a;
      const TuSymbols* tu = nullptr;
      for (const TuSymbols& t : tus_)
        if (t.rel_path == anchor.file) tu = &t;
      if (tu == nullptr) continue;
      add(*tu, anchor.line, "conc.lock-order",
          "'" + pair.first + "' and '" + pair.second +
              "' are acquired in both orders (other order at " + other.file + ":" +
              std::to_string(other.line) +
              "); pick one global order or use std::scoped_lock");
    }
  }

  // ---------------------------------------------------------------------
  // conc.unjoined-thread
  // ---------------------------------------------------------------------

  void check_unjoined_threads() {
    for (int i = 0; i < graph().function_count(); ++i) {
      const TuSymbols& tu = graph().tu_of(i);
      if (!in_src(tu.rel_path)) continue;
      for (const ThreadLocalVar& tv : graph().fn(i).thread_locals)
        if (!tv.joined_or_detached)
          add(tu, tv.line, "conc.unjoined-thread",
              "std::thread '" + tv.name +
                  "' is neither joined nor detached on any path; a running "
                  "thread at destruction calls std::terminate");
    }
  }

  // ---------------------------------------------------------------------
  // flow.dropped-report
  // ---------------------------------------------------------------------

  /// True when some declaration or definition named `callee` (narrowed by
  /// `qualifier` when it matches anything) returns VerifyReport/Diagnostic.
  bool returns_report(const std::string& callee, const std::string& qualifier) const {
    bool narrowed_any = false;
    bool narrowed_hit = false;
    bool any_hit = false;
    for (const TuSymbols& tu : tus_)
      for (const FunctionInfo& f : tu.functions) {
        if (f.name != callee) continue;
        const bool hit = f.returns_type("VerifyReport") || f.returns_type("Diagnostic");
        any_hit = any_hit || hit;
        if (!qualifier.empty() && f.class_name == qualifier) {
          narrowed_any = true;
          narrowed_hit = narrowed_hit || hit;
        }
      }
    return narrowed_any ? narrowed_hit : any_hit;
  }

  void check_dropped_reports() {
    for (int i = 0; i < graph().function_count(); ++i) {
      const FunctionInfo& fn = graph().fn(i);
      const TuSymbols& tu = graph().tu_of(i);
      if (!in_src(tu.rel_path)) continue;
      const auto& toks = tu.lexed.tokens;
      for (const CallSite& c : fn.calls) {
        if (!returns_report(c.callee, c.qualifier)) continue;
        // Statement-level call: the expression chain starts a statement and
        // the matching ')' is immediately followed by ';'.
        std::size_t start = c.tok;
        while (start >= 2 &&
               (is_punct(toks[start - 1], ".") || is_punct(toks[start - 1], "->") ||
                is_punct(toks[start - 1], "::")) &&
               toks[start - 2].kind == TokKind::kIdent)
          start -= 2;
        if (!(start == fn.body_begin + 1 || is_punct(toks[start - 1], ";") ||
              is_punct(toks[start - 1], "{") || is_punct(toks[start - 1], "}")))
          continue;
        int depth = 0;
        std::size_t close = std::string::npos;
        for (std::size_t k = c.tok + 1; k < fn.body_end; ++k) {
          if (is_punct(toks[k], "(")) ++depth;
          if (is_punct(toks[k], ")") && --depth == 0) {
            close = k;
            break;
          }
        }
        if (close == std::string::npos || close + 1 >= fn.body_end ||
            !is_punct(toks[close + 1], ";"))
          continue;
        add(tu, c.line, "flow.dropped-report",
            "result of '" + c.callee +
                "' (VerifyReport/Diagnostic) is discarded; inspect it or wrap "
                "the call in verify::enforce()");
      }
    }
  }

  // ---------------------------------------------------------------------
  // det.float-accum
  // ---------------------------------------------------------------------

  void check_float_accum() {
    for (int i = 0; i < graph().function_count(); ++i) {
      const FunctionInfo& fn = graph().fn(i);
      const TuSymbols& tu = graph().tu_of(i);
      if (!in_src(tu.rel_path)) continue;
      const auto& toks = tu.lexed.tokens;
      for (const ParallelRegion& region : fn.parallel_regions)
        for (std::size_t k = region.begin + 1; k + 1 < region.end; ++k) {
          if (toks[k].kind != TokKind::kIdent || k + 1 >= region.end) continue;
          if (!(is_punct(toks[k + 1], "+=") || is_punct(toks[k + 1], "-=") ||
                is_punct(toks[k + 1], "*=")))
            continue;
          // Accumulating into a float declared *outside* the region (and not
          // shadowed by a region-local redeclaration before this token).
          bool outside = false;
          bool shadowed = false;
          for (const FloatVar& v : fn.float_vars) {
            if (v.name != toks[k].text) continue;
            if (v.tok < region.begin) outside = true;
            if (v.tok > region.begin && v.tok < k) shadowed = true;
          }
          if (!outside || shadowed) continue;
          add(tu, toks[k].line, "det.float-accum",
              "floating-point accumulation into '" + toks[k].text +
                  "' inside a std::thread lambda; FP addition is not "
                  "associative, so reduce into per-thread slots and combine "
                  "in a fixed order");
        }
    }
  }

  // ---------------------------------------------------------------------
  // io.stray-stream (transitive)
  // ---------------------------------------------------------------------

  void check_transitive_stdio() {
    // Sinks: src/ functions with unsuppressed direct stdio. Suppressed sinks
    // (documented boundaries like verify::enforce) neither report nor
    // propagate. Reverse-BFS finds every function that can reach a sink; the
    // finding anchors on the call edge that enters the tainted region.
    struct Taint {
      std::string via;   ///< callee the taint flows through
      std::string sink;  ///< "file:line uses 'name'"
      std::size_t tok = 0;
      int line = 0;
    };
    std::map<int, Taint> tainted;  // fn index -> witness edge
    std::vector<int> work;
    for (int i = 0; i < graph().function_count(); ++i) {
      const FunctionInfo& fn = graph().fn(i);
      if (!in_src(graph().tu_of(i).rel_path) || fn.stdio_uses.empty()) continue;
      const StdioUse& u = fn.stdio_uses.front();
      tainted.emplace(i, Taint{fn.name,
                               graph().tu_of(i).rel_path + ":" +
                                   std::to_string(u.line) + " uses '" + u.callee + "'",
                               0, 0});
      work.push_back(i);
    }
    while (!work.empty()) {
      const int cur = work.back();
      work.pop_back();
      const Taint& t = tainted.at(cur);
      const std::string sink = t.sink;
      for (const CallGraph::Edge& e : graph().callers(cur)) {
        if (tainted.count(e.from) > 0) continue;
        tainted.emplace(e.from,
                        Taint{graph().fn(cur).name, sink, e.tok, e.line});
        work.push_back(e.from);
      }
    }
    for (const auto& [idx, t] : tainted) {
      if (t.line == 0) continue;  // a direct sink, handled by the token rule
      const TuSymbols& tu = graph().tu_of(idx);
      if (!in_src(tu.rel_path)) continue;
      add(tu, t.line, "io.stray-stream",
          "'" + graph().fn(idx).name + "' transitively reaches direct I/O "
              "through '" + t.via + "' (" + t.sink +
              "); route diagnostics through verify::Diagnostic or obs spans");
    }
  }

  // ---------------------------------------------------------------------
  // Dataflow rules: lifetime.dangling-local, det.iter-invalidation
  // ---------------------------------------------------------------------

  void check_dataflow_rules() {
    for (int i = 0; i < graph().function_count(); ++i) {
      const FunctionInfo& fn = graph().fn(i);
      const TuSymbols& tu = graph().tu_of(i);
      if (!in_src(tu.rel_path) || !fn.is_definition) continue;
      const FunctionDataflow df = analyze_dataflow(tu, fn);
      check_dangling_local(tu, fn, df);
      for (const LoopInfo& loop : df.loops)
        if (loop.range_for) check_iter_invalidation(tu, loop);
    }
  }

  // lifetime.dangling-local ----------------------------------------------

  void check_dangling_local(const TuSymbols& tu, const FunctionInfo& fn,
                            const FunctionDataflow& df) {
    if (!fn.returns_reference && !fn.returns_type("string_view")) return;
    const auto& t = tu.lexed.tokens;
    for (std::size_t k = fn.body_begin + 1; k + 2 < fn.body_end; ++k) {
      if (!(t[k].kind == TokKind::kIdent && t[k].text == "return")) continue;
      if (df.in_lambda(k)) continue;  // leaves the lambda, not the function
      if (t[k + 1].kind != TokKind::kIdent || !is_punct(t[k + 2], ";")) continue;
      const VarDef* v = df.var(t[k + 1].text);
      if (v == nullptr || v->is_param || v->is_reference || v->is_static) continue;
      const char* what = fn.returns_reference ? "a reference" : "a string_view";
      add(tu, t[k + 1].line, "lifetime.dangling-local",
          "'" + fn.name + "' returns " + what + " to local '" + v->name +
              "' (declared at line " + std::to_string(v->line) +
              "), which dies with the call; return by value or take the "
              "storage from the caller");
    }
  }

  // det.iter-invalidation ------------------------------------------------

  void check_iter_invalidation(const TuSymbols& tu, const LoopInfo& loop) {
    static const std::set<std::string_view> mutators = {
        "push_back", "emplace_back", "insert", "emplace", "erase",
        "clear",     "resize",       "pop_back"};
    const auto& t = tu.lexed.tokens;
    for (std::size_t k = loop.body_begin + 1; k + 1 < loop.body_end; ++k) {
      if (t[k].kind != TokKind::kIdent || mutators.count(t[k].text) == 0) continue;
      if (k < 2 || !(is_punct(t[k - 1], ".") || is_punct(t[k - 1], "->"))) continue;
      if (!is_punct(t[k + 1], "(")) continue;
      const std::string chain = receiver_chain(t, k);
      if (chain.empty() || chain != loop.range_expr) continue;
      add(tu, t[k].line, "det.iter-invalidation",
          "'" + chain + "." + t[k].text + "()' mutates the container '" +
              loop.range_expr + "' being range-for iterated (loop at line " +
              std::to_string(loop.line) +
              "); growth/erase invalidates the hidden iterators — collect "
              "changes and apply them after the loop");
    }
  }

  const ProjectOptions opts_;
  std::vector<TuSymbols> tus_;
  std::map<std::string, const ClassInfo*> classes_;
  std::optional<CallGraph> graph_;
  std::map<int, std::set<std::string>> acquires_;
  std::vector<Finding> findings_;
};

}  // namespace

std::vector<Finding> lint_project(const std::vector<SourceFile>& files,
                                  const ProjectOptions& options) {
  return SemanticLinter(files, options).run();
}

std::vector<Finding> lint_project(const std::vector<SourceFile>& files) {
  return lint_project(files, ProjectOptions{});
}

}  // namespace vpga::fabriclint

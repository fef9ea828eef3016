#pragma once
/// \file symbols.hpp
/// Per-translation-unit symbol analysis for fabriclint's semantic engine.
///
/// analyze_tu() walks the token stream of one file and resolves the scope
/// structure of the project's C++ subset: namespaces, classes with their
/// fields (including FABRIC_GUARDED_BY annotations from
/// src/common/concurrency.hpp) and mutex members, and function
/// definitions/declarations with their body token ranges. Inside each
/// function body it records the events the semantic rules consume: lock
/// acquisitions with their lexical scope, call sites, std::thread locals,
/// thread-lambda (parallel) regions, floating-point local declarations and
/// direct stdio uses. Deliberately not a real C++ front end — like the
/// lexer, it tolerates a lossy view; the rules built on top
/// (callgraph.hpp, conc.* / flow.* passes) are designed so that what the
/// subset cannot see degrades to silence, not to false findings.

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lexer.hpp"

namespace vpga::fabriclint {

/// One data member of a class. `guarded_by` is the mutex named in a
/// FABRIC_GUARDED_BY annotation ("" when unannotated).
struct FieldInfo {
  std::string name;
  std::string guarded_by;
  int line = 0;
};

/// One class/struct with the members the conc rules care about.
struct ClassInfo {
  std::string name;
  std::vector<FieldInfo> fields;
  std::set<std::string> mutexes;  ///< members of a *mutex type
};

/// A mutex acquisition inside a function body. `tok` is the index of the
/// acquiring token; the lock is held for tokens in (tok, scope_end).
struct LockEvent {
  std::string mutex;       ///< last path segment of the lock argument
  std::size_t tok = 0;
  std::size_t scope_end = 0;  ///< token index of the enclosing block's '}'
  int line = 0;
};

/// One call site inside a function body.
struct CallSite {
  std::string callee;     ///< unqualified name
  std::string qualifier;  ///< `X` of `X::callee` ("" otherwise)
  bool member_call = false;  ///< reached through `.` or `->`
  std::size_t tok = 0;
  int line = 0;
};

/// A `std::thread t(...)` local and whether its lifetime is resolved.
struct ThreadLocalVar {
  std::string name;
  std::size_t tok = 0;
  int line = 0;
  bool joined_or_detached = false;  ///< join()/detach()/moved/escaped
};

/// Token range of a lambda body passed to a std::thread constructor.
struct ParallelRegion {
  std::size_t begin = 0;  ///< token index of the lambda body '{'
  std::size_t end = 0;    ///< token index one past the matching '}'
};

/// A local variable declaration of floating-point type.
struct FloatVar {
  std::string name;
  std::size_t tok = 0;
};

/// An unsuppressed direct stdio use (io.stray-stream token set).
struct StdioUse {
  std::string callee;
  int line = 0;
};

/// One function definition or declaration.
struct FunctionInfo {
  std::string name;
  std::string class_name;  ///< enclosing or `X::` qualifier class ("" = free)
  int line = 0;
  bool is_definition = false;
  bool is_ctor_or_dtor = false;
  /// Raw return-type token texts (empty for ctors/dtors and declarations the
  /// subset could not attribute a type to).
  std::vector<std::string> return_type;
  /// The return type carries `&`/`&&` (return_type keeps only idents, so the
  /// reference qualifier would otherwise be lost; lifetime.dangling-local).
  bool returns_reference = false;
  std::size_t params_open = 0;   ///< token index of the parameter-list '('
  std::size_t params_close = 0;  ///< token index of the matching ')'
  std::size_t body_begin = 0;  ///< token index of '{' (definitions only)
  std::size_t body_end = 0;    ///< one past the matching '}'
  std::vector<LockEvent> locks;
  std::vector<CallSite> calls;
  std::vector<ThreadLocalVar> thread_locals;
  std::vector<ParallelRegion> parallel_regions;
  std::vector<FloatVar> float_vars;
  std::vector<StdioUse> stdio_uses;  ///< unsuppressed direct stdio only

  [[nodiscard]] bool returns_type(std::string_view type) const {
    for (const std::string& t : return_type)
      if (t == type) return true;
    return false;
  }
};

/// Everything the semantic rules need from one file.
struct TuSymbols {
  std::string rel_path;
  LexResult lexed;
  std::vector<ClassInfo> classes;
  std::vector<FunctionInfo> functions;
  /// line -> rule ids suppressed by well-formed directives (same semantics
  /// as the token-level Linter: own-line directives bind to the next code
  /// line).
  std::map<int, std::set<std::string>> suppressed;
  /// Local variables of known class type per function body is resolved
  /// on demand by the rule passes via typed_locals().

  [[nodiscard]] bool is_suppressed(int line, std::string_view rule) const {
    const auto it = suppressed.find(line);
    return it != suppressed.end() && it->second.count(std::string(rule)) > 0;
  }
};

/// Analyzes one file. `rel_path` is repo-relative with forward slashes.
TuSymbols analyze_tu(std::string_view rel_path, std::string_view content);

/// Resolves local variables of known class types inside `fn`'s body:
/// `ClassName [&*] name` declarations, mapping variable name -> class name.
/// `classes` is the project-wide class index (name -> ClassInfo).
std::map<std::string, std::string> typed_locals(
    const TuSymbols& tu, const FunctionInfo& fn,
    const std::map<std::string, const ClassInfo*>& classes);

}  // namespace vpga::fabriclint

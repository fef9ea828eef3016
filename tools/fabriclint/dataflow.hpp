#pragma once
/// \file dataflow.hpp
/// Per-function dataflow layer for fabriclint v3, built on the body token
/// ranges recorded by symbols.hpp.
///
/// analyze_dataflow() recovers the loop structure of one function body (for
/// / while / do-while / range-for, with each range-for's normalized range
/// expression), which det.iter-invalidation walks, plus the lambda bodies and
/// the local and parameter declarations whose head type the C++ subset can
/// name (containers, fundamental types, project class names, `auto`), which
/// lifetime.dangling-local reads. Like the rest of the semantic engine,
/// anything the subset cannot resolve degrades to silence, not to false
/// findings.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "symbols.hpp"

namespace vpga::fabriclint {

/// One recovered loop inside a function body.
struct LoopInfo {
  std::size_t header_tok = 0;  ///< token index of `for`/`while`/`do`
  std::size_t body_begin = 0;  ///< first token index of the loop body
  std::size_t body_end = 0;    ///< one past the last body token
  int line = 0;
  bool range_for = false;
  /// Normalized range expression of a range-for (`->` folded to `.`,
  /// whitespace-free concatenation): "tiles", "nl.nodes()", ...
  std::string range_expr;
};

/// One variable the dataflow pass could attribute a declaration to.
struct VarDef {
  std::string name;
  std::size_t tok = 0;  ///< token index of the declared name
  int line = 0;
  bool is_param = false;
  bool is_reference = false;  ///< `&`/`*` between type and name
  bool is_static = false;     ///< `static` local (outlives the call)
};

/// One lambda literal inside a function body.
struct LambdaBody {
  std::size_t begin = 0;  ///< token index of the body `{`
  std::size_t end = 0;    ///< one past the body `}`
};

/// The dataflow facts for one function definition.
struct FunctionDataflow {
  std::vector<LoopInfo> loops;
  std::vector<VarDef> vars;
  /// Lambda literal bodies inside the function body — a `return` in one of
  /// these leaves the lambda, not the function.
  std::vector<LambdaBody> lambda_bodies;

  [[nodiscard]] const VarDef* var(std::string_view name) const {
    for (const VarDef& v : vars)
      if (v.name == name) return &v;
    return nullptr;
  }

  [[nodiscard]] bool in_lambda(std::size_t tok) const {
    for (const LambdaBody& l : lambda_bodies)
      if (l.begin <= tok && tok < l.end) return true;
    return false;
  }
};

/// Builds the dataflow facts for `fn` (a definition) in `tu`.
FunctionDataflow analyze_dataflow(const TuSymbols& tu, const FunctionInfo& fn);

/// Normalized receiver chain of a member call: for the callee ident at
/// `callee_tok` (whose predecessor is `.` or `->`), walks the
/// `ident (. | ->) ident ...` chain backwards and returns it with `->`
/// folded to `.` ("a.b" for `a->b.push_back`). Empty when the receiver is
/// not a plain ident chain (subscripts, call results, ...).
std::string receiver_chain(const std::vector<Token>& toks, std::size_t callee_tok);

}  // namespace vpga::fabriclint

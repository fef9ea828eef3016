#pragma once
// The reference gate evaluator of the bit-simulator tests: the sum-of-minterms
// loop netlist::eval_gate ran before gates were lowered into lut3() steps,
// kept verbatim. It branches on every truth-table row, so it is slow, but it
// is the plainest statement of what a gate computes on a word of patterns.

#include <cstddef>
#include <type_traits>

#include "logic/truth_table.hpp"

namespace vpga::reference {

/// One gate evaluated on a word of patterns at once: bit t of the result is
/// `f` applied to bit t of each fanin word, where `word(k)` returns fanin
/// k's word. For each row r with f(r) = 1, the fanin words in the row's
/// polarities are ANDed and ORed into the result.
template <class FaninWord>
[[nodiscard]] auto eval_gate(const logic::TruthTable& f, std::size_t arity, FaninWord word) {
  using W = std::remove_cvref_t<decltype(word(std::size_t{0}))>;
  W out{};
  const int rows = f.num_rows();
  for (int r = 0; r < rows; ++r) {
    if (!f.eval(static_cast<unsigned>(r))) continue;
    W term = ~W{};
    for (std::size_t k = 0; k < arity; ++k) {
      const W v = word(k);
      term &= (r >> k) & 1 ? v : ~v;
    }
    out |= term;
  }
  return out;
}

}  // namespace vpga::reference

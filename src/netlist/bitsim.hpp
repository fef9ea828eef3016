#pragma once
/// \file bitsim.hpp
/// Bit-parallel (64-pattern) simulation and exhaustive equivalence checking.
///
/// Each node value is a 64-bit word holding 64 independent input patterns, so
/// a combinational netlist with n <= ~20 inputs can be checked against a
/// reference *exhaustively* (2^n patterns, 64 at a time) in milliseconds —
/// turning the synthesis pipeline's equivalence tests from sampling into
/// proof for adder/mux-sized cones.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"

namespace vpga::netlist {

/// One gate evaluated on 64 patterns at once: bit t of the result is `f`
/// applied to bit t of each fanin word, where `word(k)` returns fanin k's
/// word. For each row r with f(r) = 1, the fanin words in the row's
/// polarities are ANDed and ORed into the result. This is the gate
/// evaluator of BitSimulator and of the exact-equivalence checker's witness
/// checks.
template <class FaninWord>
[[nodiscard]] std::uint64_t eval_gate(const logic::TruthTable& f, std::size_t arity,
                                      FaninWord word) {
  std::uint64_t out = 0;
  const int rows = f.num_rows();
  for (int r = 0; r < rows; ++r) {
    if (!f.eval(static_cast<unsigned>(r))) continue;
    std::uint64_t term = ~std::uint64_t{0};
    for (std::size_t k = 0; k < arity; ++k) {
      const std::uint64_t v = word(k);
      term &= (r >> k) & 1 ? v : ~v;
    }
    out |= term;
  }
  return out;
}

/// Evaluates 64 input patterns at once through the combinational logic.
/// Sequential netlists are supported: DFF outputs are part of the pattern
/// state you set explicitly (useful for checking next-state functions).
class BitSimulator {
 public:
  explicit BitSimulator(const Netlist& nl);

  /// Sets the 64-pattern word of primary input i.
  void set_input(std::size_t i, std::uint64_t patterns);
  /// Sets the 64-pattern word of DFF d's output (state).
  void set_state(std::size_t d, std::uint64_t patterns);
  /// Propagates through all combinational logic.
  void eval();
  [[nodiscard]] std::uint64_t output(std::size_t i) const;
  [[nodiscard]] std::uint64_t value(NodeId id) const { return values_[id.index()]; }
  /// 64-pattern word of DFF d's next-state (D pin) after eval().
  [[nodiscard]] std::uint64_t next_state(std::size_t d) const;

 private:
  const Netlist& nl_;
  std::vector<NodeId> order_;
  std::vector<std::uint64_t> values_;
};

/// Exhaustively proves combinational equivalence of two netlists with the
/// same PI/PO interface and no registers. Requires #inputs <= max_inputs
/// (cost 2^n / 64 evaluations); returns false on any mismatch or interface
/// difference. Asserts if either netlist has registers.
bool exhaustive_equivalent(const Netlist& a, const Netlist& b, int max_inputs = 22);

}  // namespace vpga::netlist

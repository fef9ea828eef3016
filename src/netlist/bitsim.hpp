#pragma once
/// \file bitsim.hpp
/// Bit-parallel (64-pattern) netlist simulation, random-stimulus lockstep
/// co-simulation and exhaustive equivalence checking.
///
/// Each node value is a 64-bit word holding 64 independent input patterns, so
/// a combinational netlist with n <= ~20 inputs can be checked against a
/// reference *exhaustively* (2^n patterns, 64 at a time) in milliseconds —
/// turning the synthesis pipeline's equivalence tests from sampling into
/// proof for adder/mux-sized cones. Sequential netlists are clocked with
/// step(): 64 independent streams advance from reset at once, the basis of
/// the random-stimulus equivalence check and of the power estimator's
/// switching activity. A simulator over `Word256` carries four such words per
/// node and evaluates all 256 patterns in one topological pass.

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "netlist/netlist.hpp"

namespace vpga::netlist {

/// 256 patterns per node as four 64-pattern words (word k holds patterns
/// 64k .. 64k + 63), with the bitwise operators eval_gate needs.
struct Word256 {
  static constexpr std::size_t kWords = 4;
  std::array<std::uint64_t, kWords> w{};

  [[nodiscard]] Word256 operator~() const {
    Word256 r;
    for (std::size_t k = 0; k < kWords; ++k) r.w[k] = ~w[k];
    return r;
  }
  Word256& operator&=(const Word256& o) {
    for (std::size_t k = 0; k < kWords; ++k) w[k] &= o.w[k];
    return *this;
  }
  Word256& operator|=(const Word256& o) {
    for (std::size_t k = 0; k < kWords; ++k) w[k] |= o.w[k];
    return *this;
  }
};

/// One gate evaluated on a word of patterns at once: bit t of the result is
/// `f` applied to bit t of each fanin word, where `word(k)` returns fanin
/// k's word (a std::uint64_t or a Word256; the result has the same type).
/// For each row r with f(r) = 1, the fanin words in the row's polarities are
/// ANDed and ORed into the result. This is the one netlist gate evaluator:
/// the bit simulators and the exact-equivalence checker's witness checks
/// both call it.
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

/// Evaluates a word of input patterns at once through the combinational
/// logic: 64 patterns for W = std::uint64_t (`BitSimulator`), 256 for
/// W = Word256. DFF outputs are part of the pattern state: a fresh simulator
/// is the all-zero reset state, step() clocks every register, and
/// set_state() sets a register's word directly (useful for checking
/// next-state functions). Instantiated for those two word types only.
template <class W>
class BasicBitSimulator {
 public:
  explicit BasicBitSimulator(const Netlist& nl);

  /// Sets the pattern word of primary input i.
  void set_input(std::size_t i, W patterns);
  /// Sets the pattern word of DFF d's output (state).
  void set_state(std::size_t d, W patterns);
  /// Propagates through all combinational logic.
  void eval();
  /// Clock edge: every DFF takes its D word at once, so a register fed by
  /// another register sees that register's pre-edge word. Call after eval().
  void step();
  [[nodiscard]] W output(std::size_t i) const;
  [[nodiscard]] W value(NodeId id) const { return values_[id.index()]; }
  /// Pattern word of DFF d's next-state (D pin) after eval().
  [[nodiscard]] W next_state(std::size_t d) const;

 private:
  const Netlist& nl_;
  std::vector<NodeId> order_;
  std::vector<W> values_;
  std::vector<W> next_;  // step()'s D words, gathered before any register moves
};

extern template class BasicBitSimulator<std::uint64_t>;
extern template class BasicBitSimulator<Word256>;

/// The 64-pattern simulator.
using BitSimulator = BasicBitSimulator<std::uint64_t>;

/// Where two netlists' outputs first differ under random stimulus.
struct Divergence {
  int cycle = 0;           ///< clock cycle; 0 is the reset state
  std::size_t output = 0;  ///< primary output index
  int pattern = 0;         ///< lowest differing lane of that cycle's word
};

/// Co-simulates `a` and `b` in lockstep from reset for `cycles` clock cycles
/// of 64 independent patterns each: every cycle draws one
/// Rng(seed).next_u64() word per primary input, in input order, drives both
/// netlists with it and compares every primary output. Returns the first
/// divergence (lowest output index within the first diverging cycle), or
/// nullopt when all 64 * cycles vectors agree. The PI/PO counts must match.
std::optional<Divergence> random_divergence(const Netlist& a, const Netlist& b, int cycles,
                                            std::uint64_t seed = 1);

/// Exhaustively proves combinational equivalence of two netlists with the
/// same PI/PO interface and no registers. Requires #inputs <= max_inputs
/// (cost 2^n / 64 evaluations); returns false on any mismatch or interface
/// difference. Asserts if either netlist has registers.
bool exhaustive_equivalent(const Netlist& a, const Netlist& b, int max_inputs = 22);

}  // namespace vpga::netlist

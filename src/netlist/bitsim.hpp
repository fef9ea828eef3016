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
/// 64k .. 64k + 63).
struct Word256 {
  static constexpr std::size_t kWords = 4;
  std::array<std::uint64_t, kWords> w{};
};

/// kRowMasks[t][r] is all ones when row r of the 3-input truth table t is 1,
/// else all zeros: the eight constants a lut3() mux tree selects between.
alignas(64) inline constexpr std::array<std::array<std::uint64_t, 8>, 256> kRowMasks = [] {
  std::array<std::array<std::uint64_t, 8>, 256> m{};
  for (std::size_t t = 0; t < m.size(); ++t)
    for (std::size_t r = 0; r < 8; ++r) m[t][r] = (t >> r) & 1 ? ~std::uint64_t{0} : 0;
  return m;
}();

/// One 3-input gate on 64 lanes at once, without branches: bit i of the
/// result is row (a_i | b_i << 1 | c_i << 2) of `table`. `a` picks within
/// each pair of row masks, `b` between pairs, `c` between the halves.
[[nodiscard]] inline std::uint64_t lut3(std::uint8_t table, std::uint64_t a, std::uint64_t b,
                                        std::uint64_t c) {
  const auto& m = kRowMasks[table];
  const std::uint64_t r01 = m[0] ^ ((m[0] ^ m[1]) & a);
  const std::uint64_t r23 = m[2] ^ ((m[2] ^ m[3]) & a);
  const std::uint64_t r45 = m[4] ^ ((m[4] ^ m[5]) & a);
  const std::uint64_t r67 = m[6] ^ ((m[6] ^ m[7]) & a);
  const std::uint64_t lo = r01 ^ ((r01 ^ r23) & b);
  const std::uint64_t hi = r45 ^ ((r45 ^ r67) & b);
  return lo ^ ((lo ^ hi) & c);
}

/// lut3() on each of the four words.
[[nodiscard]] inline Word256 lut3(std::uint8_t table, const Word256& a, const Word256& b,
                                  const Word256& c) {
  Word256 r;
  for (std::size_t k = 0; k < Word256::kWords; ++k) r.w[k] = lut3(table, a.w[k], b.w[k], c.w[k]);
  return r;
}

/// The 3-input table of a 2:1 mux: input 2 ? input 1 : input 0.
inline constexpr std::uint8_t kMux21 = 0xCA;

/// The function a gate with table `f` computes over `arity` fanins, as a
/// table over those fanins. It is f's own table when the two agree. A fanin
/// past f's variables must be 0 for the gate to be 1, and a variable past the
/// fanins is ORed out. Asserts arity <= TruthTable::kMaxVars.
[[nodiscard]] std::uint64_t gate_table(const logic::TruthTable& f, std::size_t arity);

/// Lowers a gate with table `g` (from gate_table) over `arity` inputs into
/// 3-input steps. It calls emit(table, a, b, c) once per step and returns the
/// last step's result. The operands are pattern words when eval_gate
/// evaluates a gate, and value slots when BasicBitSimulator compiles one.
/// - Up to 3 inputs: one step. Each missing input reads `zero`, and the table
///   repeats over it.
/// - 4 to 6 inputs: one step per cofactor over inputs 0-2, then 2:1 mux steps
///   (kMux21) that join them on input 3, then 4, then 5.
template <class Operand, class Emit>
Operand lower_gate(std::uint64_t g, std::size_t arity, const Operand* in, const Operand& zero,
                   Emit&& emit) {
  if (arity <= 3) {
    constexpr std::uint8_t kRepeat[4] = {0xFF, 0x55, 0x11, 0x01};
    return emit(static_cast<std::uint8_t>(g * kRepeat[arity]), arity > 0 ? in[0] : zero,
                arity > 1 ? in[1] : zero, arity > 2 ? in[2] : zero);
  }
  Operand part[8] = {};
  std::size_t parts = std::size_t{1} << (arity - 3);
  for (std::size_t h = 0; h < parts; ++h)
    part[h] = emit(static_cast<std::uint8_t>(g >> (8 * h)), in[0], in[1], in[2]);
  for (std::size_t v = 3; v < arity; ++v) {
    parts /= 2;
    for (std::size_t j = 0; j < parts; ++j)
      part[j] = emit(kMux21, part[2 * j], part[2 * j + 1], in[v]);
  }
  return part[0];
}

/// One gate evaluated on a word of patterns at once: bit t of the result is
/// `f` applied to bit t of each fanin word, where `word(k)` returns fanin
/// k's word (a std::uint64_t or a Word256; the result has the same type).
/// This is the one netlist gate evaluator: it runs the same lut3() steps a
/// BasicBitSimulator compiles the gate into, and the exact-equivalence
/// checker's witness checks call it directly.
template <class FaninWord>
[[nodiscard]] auto eval_gate(const logic::TruthTable& f, std::size_t arity, FaninWord word) {
  using W = std::remove_cvref_t<decltype(word(std::size_t{0}))>;
  const std::uint64_t g = gate_table(f, arity);
  W in[logic::TruthTable::kMaxVars] = {};
  for (std::size_t k = 0; k < arity; ++k) in[k] = word(k);
  return lower_gate(g, arity, in, W{}, [](std::uint8_t t, const W& a, const W& b, const W& c) {
    return lut3(t, a, b, c);
  });
}

/// Evaluates a word of input patterns at once through the combinational
/// logic: 64 patterns for W = std::uint64_t (`BitSimulator`), 256 for
/// W = Word256. DFF outputs are part of the pattern state: a fresh simulator
/// is the all-zero reset state, step() clocks every register, and
/// set_state() sets a register's word directly (useful for checking
/// next-state functions). Instantiated for those two word types only.
///
/// Construction compiles the netlist once, in topological order, into a
/// flat program of lut3() steps (lower_gate), one per gate of up to 3 inputs
/// and per output. eval() runs the program without branches on the gates.
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
  /// values_[out] = lut3(table, values_[in[0]], values_[in[1]], values_[in[2]]).
  struct Step {
    std::uint32_t out;
    std::array<std::uint32_t, 3> in;
    std::uint8_t table;
  };

  const Netlist& nl_;
  std::vector<Step> program_;
  /// One slot per node (by index), then the constant-zero slot, then the
  /// temporaries of the widest gate's cofactor and mux steps.
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

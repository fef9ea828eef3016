#pragma once
/// \file regcorr.hpp
/// Register correspondence for the exact-equivalence checker (verify/cec.hpp):
/// which revised register stands for which golden register. A revised
/// netlist whose nodes carry witnesses (netlist::Node::witness) pairs its
/// registers by the golden-AIG literal on their D pins
/// (match_registers_by_witness). Any other pair, and a witnessed one whose
/// literals give no bijection, is matched by joint signature refinement (van
/// Eijk, "Sequential equivalence checking based on structural similarities",
/// IEEE TCAD 2000; match_registers). Its per-register cone facts come from
/// backward bitmask sweeps, one per block of 64 roots, and each refinement
/// round's 256 patterns are one simulator pass per side.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace vpga::verify {

/// A register correspondence between the golden and revised DFF index
/// spaces: perm maps golden index -> revised index, inv is its inverse.
/// `kNone` marks a register with no partner; when any exist the
/// correspondence is incomplete and no point comparison is well defined.
struct RegisterCorrespondence {
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
  std::vector<std::uint32_t> perm;
  std::vector<std::uint32_t> inv;
  int classes = 0;    ///< refinement classes at the fixpoint
  int rounds = 0;     ///< refinement rounds until the fixpoint
  int permuted = 0;   ///< registers matched away from their position
  int fallbacks = 0;  ///< signature-unmatched registers paired positionally
  std::vector<std::size_t> unmatched_golden;
  std::vector<std::size_t> unmatched_revised;

  [[nodiscard]] bool complete() const {
    return unmatched_golden.empty() && unmatched_revised.empty();
  }
};

/// Signature-based register correspondence: partition-refine the registers
/// of both netlists jointly — initial classes from structural D-cone
/// fingerprints plus the set of outputs observing each register, then
/// rounds of 256-pattern next-state simulation where every state leaf is
/// driven by a deterministic word of its *class* (not its index), re-keying
/// each register by (old class, signature, classes of its reader registers)
/// until the partition is stable. The class-keyed stimulus propagates
/// *controllability* forward; the reader-class term propagates
/// *observability* backward — both are needed, because symmetric twins (two
/// structurally identical timers) produce identical simulation signatures by
/// construction and only who *reads* them tells them apart. Classes are
/// side-independent, so pairing ascending within each class aligns
/// reordered/renamed registers. Registers left unpaired fall back to their
/// positional partner when that position is also unpaired (a genuinely
/// diverged D function then refutes as cec.state-diverges with a witness);
/// anything else is unmatched. Both netlists must be lint-clean and have
/// equal interface sizes. Deterministic: the result depends only on the two
/// netlists.
[[nodiscard]] RegisterCorrespondence match_registers(const netlist::Netlist& golden,
                                                     const netlist::Netlist& revised);

/// Pairs each revised register with the golden register whose D pin carries
/// the same golden-AIG literal. `golden_d[g]` is the checked literal on
/// golden register g's D pin; `input_lit` holds the AIG input literal of
/// every primary input, then of every golden register. The literal on a
/// revised D pin is its driver's stamped witness, resolved through
/// witness-less 1-input buffers and inverters as the witness rule does; a
/// primary input's literal or a constant; or, for a pin driven by register
/// e, the AIG input of e's golden partner once e is paired. Registers that
/// share one literal pair in ascending order on both sides. Returns the
/// correspondence (classes, rounds and fallbacks 0) when this pairs every
/// register, and nothing otherwise: a literal that is missing, unknown to
/// the golden side or held by a different number of registers on each
/// side, or a chain of registers that never reaches a paired one. The
/// literals are unchecked claims: the witness rule validates the pairing
/// point by point, so a wrong pair sends points down the ladder and never
/// proves a wrong design.
[[nodiscard]] std::optional<RegisterCorrespondence> match_registers_by_witness(
    const netlist::Netlist& revised, std::span<const std::uint32_t> golden_d,
    std::span<const std::uint32_t> input_lit);

}  // namespace vpga::verify

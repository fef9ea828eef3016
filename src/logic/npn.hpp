#pragma once
/// \file npn.hpp
/// NPN classification of 3-input Boolean functions.
///
/// Two functions are NPN-equivalent when one becomes the other under input
/// Negation, input Permutation and output Negation — exactly the freedoms a
/// via-patterned cell with programmable polarity and routable pins has. The
/// 256 three-input functions fall into 14 NPN classes; classifying coverage
/// sets by NPN class shows *which kinds* of logic a PLB component captures,
/// the lens the paper's predecessor studies ([7], [6]) used to motivate
/// heterogeneous blocks.
///
/// Canonicalization is table-backed: the first query builds a dense
/// tt -> canonical-representative table by orbit enumeration (each class is
/// visited once and flooded over its members), after which `npn_canonical`
/// is a single load. This is what lets the technology mapper replace per-cut
/// x per-option coverage probes with one canonicalize-then-lookup
/// (synth::MatchIndex).

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "logic/function_sets.hpp"

namespace vpga::logic {

/// One cached NPN transform: `apply(tt)` = permute inputs, negate the inputs
/// in `negate_mask`, then (optionally) complement the output.
struct NpnTransform {
  std::array<std::uint8_t, 3> perm{0, 1, 2};  ///< new var v reads old var perm[v]
  std::uint8_t negate_mask = 0;               ///< bit v: input v complemented
  bool negate_output = false;
};

/// The canonical (numerically smallest) representative of tt's NPN class.
/// O(1): one load from the lazily built 256-entry table.
std::uint8_t npn_canonical(std::uint8_t tt);

/// The full tt -> canonical table (256 entries), for bulk consumers such as
/// the mapper's match index.
const std::array<std::uint8_t, 256>& npn_canonical_table3();

/// A transform carrying tt onto its canonical representative
/// (apply_npn3(tt, result) == npn_canonical(tt)). Deterministic: the first
/// transform in (permutation, negation-mask, output-phase) order.
NpnTransform npn_canonical_transform(std::uint8_t tt);

/// Applies an NPN transform to a 3-input truth table.
std::uint8_t apply_npn3(std::uint8_t tt, const NpnTransform& t);

/// All members of tt's NPN class (sorted, deduplicated).
std::vector<std::uint8_t> npn_class_of(std::uint8_t tt);

/// One NPN equivalence class of 3-input functions.
struct NpnClass {
  std::uint8_t representative = 0;  ///< canonical member
  int size = 0;                     ///< number of member functions
  std::string name;                 ///< human-readable label ("XOR3", "MAJ", ...)
};

/// The 14 NPN classes of 3-input logic, sorted by representative.
const std::vector<NpnClass>& npn_classes();

/// Fraction of each NPN class covered by a function set (e.g. a cell's
/// coverage); out[i] in [0,1] aligned with npn_classes().
std::vector<double> npn_coverage(const FnSet3& set);

}  // namespace vpga::logic

#include "logic/npn.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/assert.hpp"
#include "logic/truth_table.hpp"

namespace vpga::logic {
namespace {

/// The 6 permutations of 3 variables, extended to TruthTable::kMaxVars.
constexpr std::array<std::array<int, TruthTable::kMaxVars>, 6> kPerms3 = {{
    {0, 1, 2, 3, 4, 5},
    {0, 2, 1, 3, 4, 5},
    {1, 0, 2, 3, 4, 5},
    {1, 2, 0, 3, 4, 5},
    {2, 0, 1, 3, 4, 5},
    {2, 1, 0, 3, 4, 5},
}};

/// Enumerates all NPN transforms of tt: 6 permutations x 8 input negation
/// masks x 2 output phases = 96 images (with duplicates).
std::vector<std::uint8_t> npn_orbit(std::uint8_t tt) {
  std::vector<std::uint8_t> out;
  out.reserve(96);
  const TruthTable base(3, tt);
  for (const auto& perm : kPerms3) {
    const TruthTable p = base.permute(perm);
    for (unsigned negs = 0; negs < 8; ++negs) {
      TruthTable t = p;
      for (int v = 0; v < 3; ++v)
        if (negs & (1u << v)) t = t.negate_var(v);
      out.push_back(static_cast<std::uint8_t>(t.bits()));
      out.push_back(static_cast<std::uint8_t>((~t).bits()));
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

const char* class_name(std::uint8_t representative) {
  // Named by a familiar member of the class.
  switch (representative) {
    case 0x00: return "constant";
    case 0x01: return "AND3/NOR3";
    case 0x03: return "AND2 (one input unused)";
    case 0x05: return "literal";
    case 0x06: return "XOR2 (one input unused)";
    case 0x07: return "OR-AND (a+b)'c' family";
    case 0x0F: return "literal (one var)";
    case 0x16: return "one-hot (exactly-one)";
    case 0x17: return "not-majority / minority";
    case 0x18: return "a'b'c' + abc-type";
    case 0x19: return "XOR-AND mix";
    case 0x1B: return "mux-like partial";
    case 0x1E: return "AND-XOR (a xor bc)";
    case 0x3C: return "XOR2 of products";
    case 0x69: return "XNOR3/XOR3";
    case 0x6B: return "XOR-majority mix";
    case 0xCA: return "MUX (if-then-else)";
    case 0xE8: return "MAJ3 (carry)";
    default: return "";
  }
}

}  // namespace

const std::array<std::uint8_t, 256>& npn_canonical_table3() {
  // Orbit-flooding: walk functions in ascending order; the first member of
  // each class encountered is its numeric minimum, so the whole orbit is
  // assigned in one sweep and every later member is a pure table hit.
  static const auto table = [] {
    std::array<std::uint8_t, 256> canon{};
    std::array<bool, 256> assigned{};
    for (int f = 0; f < 256; ++f) {
      if (assigned[f]) continue;
      for (std::uint8_t member : npn_orbit(static_cast<std::uint8_t>(f))) {
        canon[member] = static_cast<std::uint8_t>(f);
        assigned[member] = true;
      }
    }
    return canon;
  }();
  return table;
}

std::uint8_t npn_canonical(std::uint8_t tt) { return npn_canonical_table3()[tt]; }

std::uint8_t apply_npn3(std::uint8_t tt, const NpnTransform& t) {
  std::array<int, TruthTable::kMaxVars> perm = {0, 1, 2, 3, 4, 5};
  for (int v = 0; v < 3; ++v) perm[static_cast<std::size_t>(v)] = t.perm[static_cast<std::size_t>(v)];
  TruthTable out = TruthTable(3, tt).permute(perm);
  for (int v = 0; v < 3; ++v)
    if (t.negate_mask & (1u << v)) out = out.negate_var(v);
  if (t.negate_output) out = ~out;
  return static_cast<std::uint8_t>(out.bits());
}

NpnTransform npn_canonical_transform(std::uint8_t tt) {
  const std::uint8_t target = npn_canonical(tt);
  for (const auto& perm : kPerms3) {
    for (unsigned negs = 0; negs < 8; ++negs) {
      for (int phase = 0; phase < 2; ++phase) {
        NpnTransform t;
        for (int v = 0; v < 3; ++v)
          t.perm[static_cast<std::size_t>(v)] = static_cast<std::uint8_t>(perm[static_cast<std::size_t>(v)]);
        t.negate_mask = static_cast<std::uint8_t>(negs);
        t.negate_output = phase == 1;
        if (apply_npn3(tt, t) == target) return t;
      }
    }
  }
  VPGA_ASSERT_MSG(false, "NPN orbit does not reach its own canonical form");
  return {};
}

std::vector<std::uint8_t> npn_class_of(std::uint8_t tt) { return npn_orbit(tt); }

const std::vector<NpnClass>& npn_classes() {
  static const std::vector<NpnClass> classes = [] {
    std::map<std::uint8_t, int> size_of;
    for (int f = 0; f < 256; ++f) ++size_of[npn_canonical(static_cast<std::uint8_t>(f))];
    std::vector<NpnClass> out;
    for (const auto& [rep, size] : size_of) {
      NpnClass c;
      c.representative = rep;
      c.size = size;
      c.name = class_name(rep);
      if (c.name.empty()) {
        char buf[16];
        std::snprintf(buf, sizeof buf, "class 0x%02X", rep);
        c.name = buf;
      }
      out.push_back(std::move(c));
    }
    return out;
  }();
  return classes;
}

std::vector<double> npn_coverage(const FnSet3& set) {
  const auto& classes = npn_classes();
  std::vector<double> covered(classes.size(), 0.0);
  std::vector<double> total(classes.size(), 0.0);
  for (int f = 0; f < 256; ++f) {
    const auto rep = npn_canonical(static_cast<std::uint8_t>(f));
    for (std::size_t i = 0; i < classes.size(); ++i) {
      if (classes[i].representative != rep) continue;
      total[i] += 1.0;
      if (set.test(static_cast<std::size_t>(f))) covered[i] += 1.0;
      break;
    }
  }
  for (std::size_t i = 0; i < classes.size(); ++i)
    covered[i] = total[i] > 0 ? covered[i] / total[i] : 0.0;
  return covered;
}

}  // namespace vpga::logic

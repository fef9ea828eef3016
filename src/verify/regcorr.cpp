#include "verify/regcorr.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>
#include <span>

#include "aig/aig.hpp"
#include "common/assert.hpp"
#include "common/rng.hpp"
#include "netlist/bitsim.hpp"

namespace vpga::verify {
namespace {

using netlist::Netlist;
using netlist::Node;
using netlist::NodeId;
using netlist::NodeType;
using netlist::Word256;

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Calls f(base + j) for every set bit j of `bits`, ascending.
template <class F>
void for_each_bit(std::uint64_t bits, std::size_t base, F f) {
  for (; bits != 0; bits &= bits - 1) f(base + static_cast<std::size_t>(std::countr_zero(bits)));
}

/// Backward bitmask sweeps over the combinational cones of `roots`, one per
/// block of up to 64 roots. In the block starting at root `base`, bit j of a
/// node's mask is set iff the node lies in the cone of roots[base + j]: the
/// root itself and everything reachable through combinational fanins,
/// stopping at inputs, constants and register Q pins. Calls
/// visit(id, mask, base) for every comb node, input and register with a
/// nonzero mask: comb nodes in reverse topological order, then inputs and
/// registers in index order.
template <class Visit>
void sweep_cones(const Netlist& nl, std::span<const NodeId> roots,
                 std::vector<std::uint64_t>& mask, Visit visit) {
  const std::vector<NodeId>& order = nl.topo_order();
  for (std::size_t base = 0; base < roots.size(); base += 64) {
    mask.assign(nl.num_nodes(), 0);
    const std::size_t block = std::min<std::size_t>(64, roots.size() - base);
    for (std::size_t j = 0; j < block; ++j) {
      mask[roots[base + j].index()] |= std::uint64_t{1} << j;
    }
    // Every reader of a comb node comes after it in topological order, so
    // walking backwards completes a node's mask before it reaches the fanins.
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const std::uint64_t m = mask[it->index()];
      if (m == 0 || nl.node(*it).type != NodeType::kComb) continue;
      visit(*it, m, base);
      for (const NodeId fi : nl.fanins(*it)) mask[fi.index()] |= m;
    }
    for (const auto* leaves : {&nl.inputs(), &nl.dffs()}) {
      for (const NodeId id : *leaves) {
        if (mask[id.index()] != 0) visit(id, mask[id.index()], base);
      }
    }
  }
}

/// One side's per-register cone facts.
struct ConeFacts {
  /// Round-0 key: D-cone fingerprint plus output observability.
  std::vector<std::uint64_t> key;
  /// read_by[d]: the registers whose D-cone reads register d, ascending.
  std::vector<std::vector<std::uint32_t>> read_by;
};

/// The D-cone fingerprint is order-independent: gate function words and
/// arities (as a multiset), primary-input leaf indices (PIs correspond
/// positionally, so their indices are shared currency) and leaf counts.
/// State leaf *indices* are deliberately excluded — they are what the
/// correspondence is solving for. Output observability adds a hash of every
/// output whose cone reads the register (outputs correspond by index). All
/// terms are wrapping additions, so the order of the visits is immaterial.
ConeFacts cone_facts(const Netlist& nl) {
  const std::size_t n = nl.dffs().size();
  std::vector<std::uint32_t> slot(nl.num_nodes(), 0);  // position in inputs() or dffs()
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    slot[nl.inputs()[i].index()] = static_cast<std::uint32_t>(i);
  }
  for (std::size_t d = 0; d < n; ++d) slot[nl.dffs()[d].index()] = static_cast<std::uint32_t>(d);

  ConeFacts facts;
  facts.key.assign(n, 0);
  facts.read_by.assign(n, {});
  std::vector<std::uint64_t> comb(n, 0);
  std::vector<std::uint64_t> inputs(n, 0);
  std::vector<std::uint64_t> states(n, 0);
  std::vector<std::uint64_t> mask;
  std::vector<NodeId> roots;
  roots.reserve(std::max(n, nl.outputs().size()));
  for (const NodeId q : nl.dffs()) roots.push_back(nl.fanin(q, 0));
  sweep_cones(nl, roots, mask, [&](NodeId id, std::uint64_t bits, std::size_t base) {
    const Node& nd = nl.node(id);
    switch (nd.type) {
      case NodeType::kComb: {
        const std::uint64_t h =
            mix64(nd.func.bits() ^ (static_cast<std::uint64_t>(nd.num_fanins()) << 56));
        for_each_bit(bits, base, [&](std::size_t e) {
          facts.key[e] += h;
          ++comb[e];
        });
        break;
      }
      case NodeType::kInput: {
        const std::uint64_t h = mix64(0x1000000ull + slot[id.index()]);
        for_each_bit(bits, base, [&](std::size_t e) {
          facts.key[e] += h;
          ++inputs[e];
        });
        break;
      }
      case NodeType::kDff:
        for_each_bit(bits, base, [&](std::size_t e) {
          ++states[e];
          facts.read_by[slot[id.index()]].push_back(static_cast<std::uint32_t>(e));
        });
        break;
      default:
        break;
    }
  });
  for (std::size_t d = 0; d < n; ++d) {
    facts.key[d] += mix64(0xF16E52ull + states[d]) ^ mix64((comb[d] << 16) + inputs[d]);
  }

  roots.clear();
  for (const NodeId o : nl.outputs()) roots.push_back(nl.fanin(o, 0));
  sweep_cones(nl, roots, mask, [&](NodeId id, std::uint64_t bits, std::size_t base) {
    if (nl.node(id).type != NodeType::kDff) return;
    std::uint64_t& key = facts.key[slot[id.index()]];
    for_each_bit(bits, base, [&key](std::size_t o) { key += mix64(0x0B5E57ull + o); });
  });
  return facts;
}

}  // namespace

RegisterCorrespondence match_registers(const Netlist& golden, const Netlist& revised) {
  RegisterCorrespondence corr;
  const std::size_t n = golden.dffs().size();
  const std::size_t ni = golden.inputs().size();
  VPGA_ASSERT(revised.dffs().size() == n && revised.inputs().size() == ni &&
              revised.outputs().size() == golden.outputs().size());
  corr.perm.assign(n, RegisterCorrespondence::kNone);
  corr.inv.assign(n, RegisterCorrespondence::kNone);
  if (n == 0) return corr;
  const ConeFacts facts[2] = {cone_facts(golden), cone_facts(revised)};

  // Round 0: classes from the cone keys, ids assigned by sorted key order so
  // both sides agree on the numbering.
  std::vector<std::uint64_t> keys;
  keys.reserve(2 * n);
  for (const ConeFacts& f : facts) keys.insert(keys.end(), f.key.begin(), f.key.end());
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<std::uint32_t> cls[2];
  for (int s = 0; s < 2; ++s) {
    cls[s].resize(n);
    for (std::size_t d = 0; d < n; ++d) {
      cls[s][d] = static_cast<std::uint32_t>(
          std::lower_bound(keys.begin(), keys.end(), facts[s].key[d]) - keys.begin());
    }
  }
  std::size_t num_classes = keys.size();

  // Shared primary-input stimulus (fixed seed: byte-stable correspondence),
  // 256 patterns per signature. Word w of input i is in_words[w * ni + i].
  constexpr std::size_t kWords = Word256::kWords;
  common::Rng rng(0xC025E5F0ull);
  std::vector<std::uint64_t> in_words(ni * kWords);
  for (auto& w : in_words) w = rng.next_u64();
  using Simulator = netlist::BasicBitSimulator<Word256>;
  Simulator sims[2] = {Simulator(golden), Simulator(revised)};
  for (Simulator& sim : sims) {
    for (std::size_t i = 0; i < ni; ++i) {
      Word256 in;
      for (std::size_t w = 0; w < kWords; ++w) in.w[w] = in_words[w * ni + i];
      sim.set_input(i, in);
    }
  }

  struct RefineKey {
    std::array<std::uint64_t, 6> t;  // (old class, 256-bit signature, readers)
    std::uint32_t side_d;            // side << 31 | register index
  };
  std::vector<RefineKey> refine(2 * n);
  std::vector<std::uint64_t> reader_term(n);
  for (int round = 1; round <= 64; ++round) {
    corr.rounds = round;
    for (int s = 0; s < 2; ++s) {
      for (std::size_t e = 0; e < n; ++e) reader_term[e] = mix64(0x4EADull + cls[s][e]);
      for (std::size_t d = 0; d < n; ++d) {
        Word256 state;
        for (std::size_t w = 0; w < kWords; ++w) {
          state.w[w] = mix64(0xABCDull + (std::uint64_t{cls[s][d]} << 8) + w);
        }
        sims[s].set_state(d, state);
      }
      sims[s].eval();
      for (std::size_t d = 0; d < n; ++d) {
        RefineKey& k = refine[static_cast<std::size_t>(s) * n + d];
        k.t[0] = cls[s][d];
        const Word256 sig = sims[s].next_state(d);
        std::copy(sig.w.begin(), sig.w.end(), k.t.begin() + 1);
        // Backward observability: the multiset of classes reading this
        // register (order-independent sum, refined as the partition splits).
        std::uint64_t readers = 0;
        for (const std::uint32_t e : facts[s].read_by[d]) readers += reader_term[e];
        k.t[5] = readers;
        k.side_d = (static_cast<std::uint32_t>(s) << 31) | static_cast<std::uint32_t>(d);
      }
    }
    std::sort(refine.begin(), refine.end(), [](const RefineKey& a, const RefineKey& b) {
      const auto order = a.t <=> b.t;
      return order != 0 ? order < 0 : a.side_d < b.side_d;
    });
    std::uint32_t next_id = 0;
    for (std::size_t i = 0; i < refine.size(); ++i) {
      if (i > 0 && refine[i].t != refine[i - 1].t) ++next_id;
      const int s = static_cast<int>(refine[i].side_d >> 31);
      cls[s][refine[i].side_d & 0x7FFFFFFFu] = next_id;
    }
    // The key carries the old class, so the partition only ever splits;
    // an unchanged class count is the fixpoint.
    if (static_cast<std::size_t>(next_id) + 1 == num_classes) break;
    num_classes = static_cast<std::size_t>(next_id) + 1;
  }
  corr.classes = static_cast<int>(num_classes);

  // Pair ascending within each class, then the positional fallback.
  std::vector<std::vector<std::uint32_t>> members[2];
  for (int s = 0; s < 2; ++s) {
    members[s].resize(num_classes);
    for (std::size_t d = 0; d < n; ++d) {
      members[s][cls[s][d]].push_back(static_cast<std::uint32_t>(d));
    }
  }
  for (std::size_t c = 0; c < num_classes; ++c) {
    const auto& gm = members[0][c];
    const auto& rm = members[1][c];
    const std::size_t k = std::min(gm.size(), rm.size());
    for (std::size_t i = 0; i < k; ++i) {
      corr.perm[gm[i]] = rm[i];
      corr.inv[rm[i]] = gm[i];
    }
  }
  for (std::size_t d = 0; d < n; ++d) {
    if (corr.perm[d] == RegisterCorrespondence::kNone &&
        corr.inv[d] == RegisterCorrespondence::kNone) {
      corr.perm[d] = static_cast<std::uint32_t>(d);
      corr.inv[d] = static_cast<std::uint32_t>(d);
      ++corr.fallbacks;
    }
  }
  for (std::size_t d = 0; d < n; ++d) {
    if (corr.perm[d] == RegisterCorrespondence::kNone) corr.unmatched_golden.push_back(d);
    if (corr.inv[d] == RegisterCorrespondence::kNone) corr.unmatched_revised.push_back(d);
    if (corr.perm[d] != RegisterCorrespondence::kNone && corr.perm[d] != d) ++corr.permuted;
  }
  return corr;
}

std::optional<RegisterCorrespondence> match_registers_by_witness(
    const Netlist& revised, std::span<const std::uint32_t> golden_d,
    std::span<const std::uint32_t> input_lit) {
  constexpr std::uint32_t kNone = RegisterCorrespondence::kNone;
  constexpr std::uint32_t kNoLit = Node::kNoWitness;
  const std::size_t n = revised.dffs().size();
  const std::size_t ni = revised.inputs().size();
  VPGA_ASSERT(golden_d.size() == n && input_lit.size() == ni + n);
  if (std::find(golden_d.begin(), golden_d.end(), kNoLit) != golden_d.end()) return std::nullopt;

  // Golden registers in (D literal, index) order: each run of one literal is
  // a group, named by its first position.
  std::vector<std::uint32_t> golden(n);
  std::iota(golden.begin(), golden.end(), 0u);
  std::sort(golden.begin(), golden.end(), [&](std::uint32_t a, std::uint32_t b) {
    return golden_d[a] != golden_d[b] ? golden_d[a] < golden_d[b] : a < b;
  });
  std::vector<std::uint32_t> group_lit(n);
  for (std::size_t k = 0; k < n; ++k) group_lit[k] = golden_d[golden[k]];

  std::vector<std::uint32_t> slot(revised.num_nodes(), kNone);  // position in inputs() or dffs()
  for (std::size_t i = 0; i < ni; ++i) slot[revised.inputs()[i].index()] = static_cast<std::uint32_t>(i);
  for (std::size_t d = 0; d < n; ++d) slot[revised.dffs()[d].index()] = static_cast<std::uint32_t>(d);

  // A D pin resolves to a literal, or to register `reg`'s Q pin, complemented
  // when `lit` is 1.
  struct Resolved {
    std::uint32_t lit = kNoLit;
    std::uint32_t reg = kNone;
  };
  auto resolve = [&](NodeId id) {
    std::uint32_t neg = 0;
    for (;;) {
      const Node& nd = revised.node(id);
      switch (nd.type) {
        case NodeType::kComb:
          if (nd.witness != kNoLit) return Resolved{nd.witness ^ neg};
          if (nd.num_fanins() != 1 || (nd.func.bits() != 0b10 && nd.func.bits() != 0b01)) {
            return Resolved{};
          }
          neg ^= nd.func.bits() == 0b01 ? 1u : 0u;
          id = revised.fanin(id, 0);
          break;
        case NodeType::kInput:
          return Resolved{input_lit[slot[id.index()]] ^ neg};
        case NodeType::kConst:
          return Resolved{(nd.func.eval(0) ? aig::kTrue : aig::kFalse) ^ neg};
        case NodeType::kDff:
          return Resolved{neg, slot[id.index()]};
        default:
          return Resolved{};
      }
    }
  };

  RegisterCorrespondence corr;
  corr.perm.assign(n, kNone);
  corr.inv.assign(n, kNone);
  std::vector<std::uint32_t> lit(n, kNoLit);
  // Registers whose D pin reads register e's Q: a list per e, threaded
  // through next_waiter, each with its complement bit in lit.
  std::vector<std::uint32_t> first_waiter(n, kNone);
  std::vector<std::uint32_t> next_waiter(n, kNone);
  std::vector<std::uint32_t> ready;
  ready.reserve(n);
  for (std::size_t d = 0; d < n; ++d) {
    const Resolved r = resolve(revised.fanin(revised.dffs()[d], 0));
    lit[d] = r.lit;
    if (r.reg != kNone) {
      next_waiter[d] = first_waiter[r.reg];
      first_waiter[r.reg] = static_cast<std::uint32_t>(d);
    } else if (r.lit == kNoLit) {
      return std::nullopt;
    } else {
      ready.push_back(static_cast<std::uint32_t>(d));
    }
  }
  // Revised members of the group starting at golden position k fill
  // members[k..]; a group pairs ascending as soon as it is full, which makes
  // the literals of the registers its members feed known.
  std::vector<std::uint32_t> members(n);
  std::vector<std::uint32_t> filled(n, 0);
  while (!ready.empty()) {
    const std::uint32_t d = ready.back();
    ready.pop_back();
    const auto lo = static_cast<std::size_t>(
        std::lower_bound(group_lit.begin(), group_lit.end(), lit[d]) - group_lit.begin());
    if (lo == n || group_lit[lo] != lit[d]) return std::nullopt;
    const std::size_t hi = static_cast<std::size_t>(
        std::upper_bound(group_lit.begin() + static_cast<long>(lo), group_lit.end(), lit[d]) -
        group_lit.begin());
    if (lo + filled[lo] == hi) return std::nullopt;  // more revised than golden members
    members[lo + filled[lo]++] = d;
    if (lo + filled[lo] < hi) continue;
    std::sort(members.begin() + static_cast<long>(lo), members.begin() + static_cast<long>(hi));
    for (std::size_t k = lo; k < hi; ++k) {
      const std::uint32_t g = golden[k];
      const std::uint32_t r = members[k];
      corr.perm[g] = r;
      corr.inv[r] = g;
      for (std::uint32_t w = first_waiter[r]; w != kNone; w = next_waiter[w]) {
        lit[w] = input_lit[ni + g] ^ lit[w];
        ready.push_back(w);
      }
    }
  }
  if (std::find(corr.inv.begin(), corr.inv.end(), kNone) != corr.inv.end()) return std::nullopt;
  for (std::size_t g = 0; g < n; ++g) {
    if (corr.perm[g] != g) ++corr.permuted;
  }
  return corr;
}

}  // namespace vpga::verify

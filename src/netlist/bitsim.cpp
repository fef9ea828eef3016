#include "netlist/bitsim.hpp"

#include <bit>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace vpga::netlist {

std::uint64_t gate_table(const logic::TruthTable& f, std::size_t arity) {
  VPGA_ASSERT_MSG(arity <= logic::TruthTable::kMaxVars, "gate has more than 6 fanins");
  // Rows past f's own are 0, so fanins past its variables need no work; fold
  // each variable past the fanins into the half of the table without it.
  std::uint64_t g = f.bits();
  for (int v = f.num_vars() - 1; v >= static_cast<int>(arity); --v) {
    const int half = 1 << v;
    g = (g | (g >> half)) & ((std::uint64_t{1} << half) - 1);
  }
  return g;
}

namespace {

/// Steps lower_gate() emits for a gate: one up to 3 inputs, else one per
/// cofactor over inputs 0-2 plus one fewer 2:1 muxes.
std::size_t steps_of(std::size_t arity) {
  return arity <= 3 ? 1 : (std::size_t{1} << (arity - 2)) - 1;
}

/// Temporaries of the widest gate: its last step writes the gate's own slot.
constexpr std::size_t kMaxTemps = (std::size_t{1} << (logic::TruthTable::kMaxVars - 2)) - 2;

}  // namespace

template <class W>
BasicBitSimulator<W>::BasicBitSimulator(const Netlist& nl) : nl_(nl) {
  const auto zero = static_cast<std::uint32_t>(nl.num_nodes());
  values_.assign(nl.num_nodes() + 1 + kMaxTemps, W{});
  std::size_t steps = 0;
  for (const NodeId id : nl.all_nodes()) {
    const Node& n = nl.node(id);
    if (n.type == NodeType::kComb) steps += steps_of(n.fanin_count);
    if (n.type == NodeType::kOutput) ++steps;
    if (n.type == NodeType::kConst)  // a 0-input gate: every lane is func's bit 0
      values_[id.index()] = eval_gate(logic::TruthTable(0, n.func.bits() & 1), 0,
                                      [](std::size_t) { return W{}; });
  }
  program_.reserve(steps);

  std::uint32_t next_temp = 0;
  auto emit = [&](std::uint8_t table, std::uint32_t a, std::uint32_t b, std::uint32_t c) {
    program_.push_back({next_temp, {a, b, c}, table});
    return next_temp++;
  };
  std::uint32_t in[logic::TruthTable::kMaxVars];
  for (const NodeId id : nl.topo_order()) {
    const Node& n = nl.node(id);
    next_temp = zero + 1;
    if (n.type == NodeType::kOutput) {
      in[0] = nl.fanin(id, 0).value();
      lower_gate(std::uint64_t{0b10}, 1, in, zero, emit);  // the identity on its driver
    } else {
      const auto fins = nl.fanins(id);
      const std::uint64_t g = gate_table(n.func, fins.size());
      for (std::size_t k = 0; k < fins.size(); ++k) in[k] = fins[k].value();
      lower_gate(g, fins.size(), in, zero, emit);
    }
    program_.back().out = id.value();
  }
}

template <class W>
void BasicBitSimulator<W>::set_input(std::size_t i, W patterns) {
  VPGA_ASSERT(i < nl_.inputs().size());
  values_[nl_.inputs()[i].index()] = patterns;
}

template <class W>
void BasicBitSimulator<W>::set_state(std::size_t d, W patterns) {
  VPGA_ASSERT(d < nl_.dffs().size());
  values_[nl_.dffs()[d].index()] = patterns;
}

template <class W>
void BasicBitSimulator<W>::eval() {
  W* v = values_.data();
  for (const Step& s : program_) v[s.out] = lut3(s.table, v[s.in[0]], v[s.in[1]], v[s.in[2]]);
}

template <class W>
void BasicBitSimulator<W>::step() {
  const auto& dffs = nl_.dffs();
  next_.resize(dffs.size());  // sized by the first edge; later edges reuse it
  for (std::size_t d = 0; d < dffs.size(); ++d) next_[d] = next_state(d);
  for (std::size_t d = 0; d < dffs.size(); ++d) values_[dffs[d].index()] = next_[d];
}

template <class W>
W BasicBitSimulator<W>::output(std::size_t i) const {
  VPGA_ASSERT(i < nl_.outputs().size());
  return values_[nl_.outputs()[i].index()];
}

template <class W>
W BasicBitSimulator<W>::next_state(std::size_t d) const {
  VPGA_ASSERT(d < nl_.dffs().size());
  const NodeId din = nl_.fanin(nl_.dffs()[d], 0);
  VPGA_ASSERT(din.valid());
  return values_[din.index()];
}

template class BasicBitSimulator<std::uint64_t>;
template class BasicBitSimulator<Word256>;

std::optional<Divergence> random_divergence(const Netlist& a, const Netlist& b, int cycles,
                                            std::uint64_t seed) {
  VPGA_ASSERT(a.inputs().size() == b.inputs().size() &&
              a.outputs().size() == b.outputs().size());
  BitSimulator sa(a), sb(b);
  common::Rng rng(seed);
  for (int cycle = 0; cycle < cycles; ++cycle) {
    for (std::size_t i = 0; i < a.inputs().size(); ++i) {
      const std::uint64_t w = rng.next_u64();
      sa.set_input(i, w);
      sb.set_input(i, w);
    }
    sa.eval();
    sb.eval();
    for (std::size_t o = 0; o < a.outputs().size(); ++o) {
      const std::uint64_t diff = sa.output(o) ^ sb.output(o);
      if (diff != 0) return Divergence{cycle, o, std::countr_zero(diff)};
    }
    sa.step();
    sb.step();
  }
  return std::nullopt;
}

bool exhaustive_equivalent(const Netlist& a, const Netlist& b, int max_inputs) {
  VPGA_ASSERT_MSG(a.dffs().empty() && b.dffs().empty(),
                  "exhaustive_equivalent is combinational-only");
  if (a.inputs().size() != b.inputs().size()) return false;
  if (a.outputs().size() != b.outputs().size()) return false;
  const int n = static_cast<int>(a.inputs().size());
  if (n > max_inputs) return false;

  BitSimulator sa(a), sb(b);
  // Inputs 0..5 cycle within one 64-pattern word; inputs >= 6 come from the
  // block index, so one eval covers 64 assignments.
  static constexpr std::uint64_t kLane[6] = {
      0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
      0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL};
  const std::uint64_t blocks = n > 6 ? (std::uint64_t{1} << (n - 6)) : 1;
  for (std::uint64_t blk = 0; blk < blocks; ++blk) {
    for (int i = 0; i < n; ++i) {
      const std::uint64_t w =
          i < 6 ? kLane[i] : ((blk >> (i - 6)) & 1 ? ~std::uint64_t{0} : 0);
      sa.set_input(static_cast<std::size_t>(i), w);
      sb.set_input(static_cast<std::size_t>(i), w);
    }
    sa.eval();
    sb.eval();
    for (std::size_t o = 0; o < a.outputs().size(); ++o)
      if (sa.output(o) != sb.output(o)) return false;
  }
  return true;
}

}  // namespace vpga::netlist

#include "netlist/bitsim.hpp"

#include <bit>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace vpga::netlist {

template <class W>
BasicBitSimulator<W>::BasicBitSimulator(const Netlist& nl)
    : nl_(nl), order_(nl.topo_order()), values_(nl.num_nodes(), W{}) {
  for (NodeId id : nl.all_nodes()) {
    const Node& n = nl.node(id);
    if (n.type == NodeType::kConst)
      values_[id.index()] = (n.func.bits() & 1) ? ~W{} : W{};
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
  for (NodeId id : order_) {
    const Node& n = nl_.node(id);
    const auto fins = nl_.fanins(id);
    if (n.type == NodeType::kOutput) {
      values_[id.index()] = values_[fins[0].index()];
      continue;
    }
    values_[id.index()] = eval_gate(n.func, fins.size(),
                                    [&](std::size_t k) { return values_[fins[k].index()]; });
  }
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

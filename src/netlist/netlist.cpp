#include "netlist/netlist.hpp"

#include <algorithm>
#include <functional>

#include "common/assert.hpp"

namespace vpga::netlist {

using logic::TruthTable;

Netlist::Netlist() { names_.emplace_back(); }

Netlist::Netlist(std::string name) : name_(std::move(name)) { names_.emplace_back(); }

// The analysis cache holds a mutex, so the compiler-generated copy/move
// operations are deleted; copy the data members and start the destination
// with a cold cache (cache contents are derivable, never copied).
Netlist::Netlist(const Netlist& other)
    : name_(other.name_),
      nodes_(other.nodes_),
      fanin_pool_(other.fanin_pool_),
      names_(other.names_),
      inputs_(other.inputs_),
      outputs_(other.outputs_),
      dffs_(other.dffs_) {}

Netlist::Netlist(Netlist&& other) noexcept
    : name_(std::move(other.name_)),
      nodes_(std::move(other.nodes_)),
      fanin_pool_(std::move(other.fanin_pool_)),
      names_(std::move(other.names_)),
      inputs_(std::move(other.inputs_)),
      outputs_(std::move(other.outputs_)),
      dffs_(std::move(other.dffs_)) {}

Netlist& Netlist::operator=(const Netlist& other) {
  if (this == &other) return *this;
  name_ = other.name_;
  nodes_ = other.nodes_;
  fanin_pool_ = other.fanin_pool_;
  names_ = other.names_;
  inputs_ = other.inputs_;
  outputs_ = other.outputs_;
  dffs_ = other.dffs_;
  invalidate_analysis();
  return *this;
}

Netlist& Netlist::operator=(Netlist&& other) noexcept {
  if (this == &other) return *this;
  name_ = std::move(other.name_);
  nodes_ = std::move(other.nodes_);
  fanin_pool_ = std::move(other.fanin_pool_);
  names_ = std::move(other.names_);
  inputs_ = std::move(other.inputs_);
  outputs_ = std::move(other.outputs_);
  dffs_ = std::move(other.dffs_);
  invalidate_analysis();
  return *this;
}

std::uint32_t Netlist::intern_name(std::string_view name) {
  if (name.empty()) return 0;
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

void Netlist::invalidate_analysis() {
  // Flags only — the cached vectors keep their capacity for the refill.
  const std::lock_guard<std::mutex> lock(cache_.mutex);
  cache_.topo_valid = false;
  cache_.fanout_valid = false;
}

std::uint32_t Netlist::append_fanins(std::span<const NodeId> fanins) {
  const auto at = static_cast<std::uint32_t>(fanin_pool_.size());
  const NodeId* pool = fanin_pool_.data();
  if (!fanins.empty() && std::less_equal<>()(pool, fanins.data()) &&
      std::less<>()(fanins.data(), pool + fanin_pool_.size())) {
    // `fanins` views this pool, and growing it may reallocate: remember the
    // source by index, grow, then copy within the grown pool.
    const auto from = static_cast<std::size_t>(fanins.data() - pool);
    fanin_pool_.resize(at + fanins.size());
    std::copy_n(fanin_pool_.begin() + static_cast<std::ptrdiff_t>(from), fanins.size(),
                fanin_pool_.begin() + at);
  } else {
    fanin_pool_.insert(fanin_pool_.end(), fanins.begin(), fanins.end());
  }
  return at;
}

NodeId Netlist::push(Node n, std::span<const NodeId> fanins, std::string_view name) {
  VPGA_ASSERT_MSG(fanins.size() <= 0xFF, "fanin count exceeds the CSR slice width");
  n.fanin_offset = append_fanins(fanins);
  n.fanin_count = static_cast<std::uint8_t>(fanins.size());
  n.name_id = intern_name(name);
  nodes_.push_back(std::move(n));
  invalidate_analysis();
  return NodeId(nodes_.size() - 1);
}

NodeId Netlist::add_input(std::string_view name) {
  Node n;
  n.type = NodeType::kInput;
  const NodeId id = push(std::move(n), {}, name);
  inputs_.push_back(id);
  return id;
}

NodeId Netlist::add_output(NodeId driver, std::string_view name) {
  VPGA_ASSERT(driver.valid());
  Node n;
  n.type = NodeType::kOutput;
  const NodeId id = push(std::move(n), {{driver}}, name);
  outputs_.push_back(id);
  return id;
}

NodeId Netlist::add_constant(bool value) {
  Node n;
  n.type = NodeType::kConst;
  n.func = TruthTable(0, value ? 1 : 0);
  return push(std::move(n), {}, {});
}

NodeId Netlist::add_comb(const TruthTable& f, std::span<const NodeId> fanins,
                         std::string_view name) {
  VPGA_ASSERT_MSG(static_cast<std::size_t>(f.num_vars()) == fanins.size(),
                  "truth table arity must equal fanin count");
  for (NodeId fi : fanins) VPGA_ASSERT(fi.valid() && fi.index() < nodes_.size());
  Node n;
  n.type = NodeType::kComb;
  n.func = f;
  return push(std::move(n), fanins, name);
}

NodeId Netlist::add_dff(NodeId d, std::string_view name) {
  Node n;
  n.type = NodeType::kDff;
  const NodeId id = push(std::move(n), {{d}}, name);
  dffs_.push_back(id);
  return id;
}

void Netlist::set_dff_input(NodeId dff, NodeId d) {
  VPGA_ASSERT(node(dff).type == NodeType::kDff);
  VPGA_ASSERT(d.valid());
  fanin_pool_[nodes_[dff.index()].fanin_offset] = d;
  invalidate_analysis();
}

void Netlist::set_fanin(NodeId id, std::size_t k, NodeId fi) {
  const Node& n = nodes_[id.index()];
  VPGA_ASSERT(k < n.fanin_count);
  fanin_pool_[n.fanin_offset + k] = fi;
  invalidate_analysis();
}

void Netlist::replace_fanins(NodeId id, std::span<const NodeId> fanins) {
  VPGA_ASSERT_MSG(fanins.size() <= 0xFF, "fanin count exceeds the CSR slice width");
  Node& n = nodes_[id.index()];
  if (fanins.size() <= n.fanin_count) {
    // In place. Slices of different nodes never overlap, so a source that
    // overlaps the destination lies in this node's own slice, at or after its
    // start: copying forward reads every element before overwriting it.
    for (std::size_t k = 0; k < fanins.size(); ++k) fanin_pool_[n.fanin_offset + k] = fanins[k];
  } else {
    n.fanin_offset = append_fanins(fanins);
  }
  n.fanin_count = static_cast<std::uint8_t>(fanins.size());
  invalidate_analysis();
}

void Netlist::set_name(NodeId id, std::string_view name) {
  nodes_[id.index()].name_id = intern_name(name);
}

NodeId Netlist::add_not(NodeId a) { return add_comb(TruthTable(1, 0b01), {a}); }
NodeId Netlist::add_buf(NodeId a) { return add_comb(TruthTable(1, 0b10), {a}); }
NodeId Netlist::add_and(NodeId a, NodeId b) { return add_comb(TruthTable(2, 0b1000), {a, b}); }
NodeId Netlist::add_or(NodeId a, NodeId b) { return add_comb(TruthTable(2, 0b1110), {a, b}); }
NodeId Netlist::add_xor(NodeId a, NodeId b) { return add_comb(TruthTable(2, 0b0110), {a, b}); }
NodeId Netlist::add_nand(NodeId a, NodeId b) { return add_comb(TruthTable(2, 0b0111), {a, b}); }
NodeId Netlist::add_nor(NodeId a, NodeId b) { return add_comb(TruthTable(2, 0b0001), {a, b}); }
NodeId Netlist::add_xnor(NodeId a, NodeId b) { return add_comb(TruthTable(2, 0b1001), {a, b}); }

NodeId Netlist::add_mux(NodeId s, NodeId d0, NodeId d1) {
  // Variable order (x0=s, x1=d0, x2=d1): f = s' d0 + s d1.
  const auto s_t = TruthTable::var(3, 0);
  const auto d0_t = TruthTable::var(3, 1);
  const auto d1_t = TruthTable::var(3, 2);
  return add_comb((~s_t & d0_t) | (s_t & d1_t), {s, d0, d1});
}

NodeId Netlist::add_xor3(NodeId a, NodeId b, NodeId c) {
  return add_comb(logic::tt3::xor3(), {a, b, c});
}

NodeId Netlist::add_maj(NodeId a, NodeId b, NodeId c) {
  return add_comb(logic::tt3::maj3(), {a, b, c});
}

void Netlist::compute_topo(std::vector<NodeId>& out) const {
  // Kahn's algorithm over the combinational dependency graph. DFF outputs,
  // inputs and constants are sources; a DFF's D pin is a sink, so DFF fanin
  // edges do not propagate ordering constraints.
  // Callers hold cache_.mutex, so the cache's scratch vectors are ours.
  auto& pending = cache_.pending;
  pending.assign(nodes_.size(), 0);
  std::size_t expected = 0;
  std::size_t comb_edges = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.type != NodeType::kComb && n.type != NodeType::kOutput) continue;
    ++expected;
    for (NodeId fi : fanins(NodeId(i)))
      if (nodes_[fi.index()].type == NodeType::kComb) {
        ++pending[i];
        ++comb_edges;
      }
  }
  // Fanout adjacency restricted to comb/output sinks, in CSR form.
  auto& fanout_offset = cache_.fanout_offset;
  fanout_offset.assign(nodes_.size() + 1, 0);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.type != NodeType::kComb && n.type != NodeType::kOutput) continue;
    for (NodeId fi : fanins(NodeId(i)))
      if (nodes_[fi.index()].type == NodeType::kComb) ++fanout_offset[fi.index() + 1];
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) fanout_offset[i + 1] += fanout_offset[i];
  auto& fanout_pool = cache_.fanout_pool;
  fanout_pool.assign(comb_edges, 0);
  auto& cursor = cache_.cursor;
  cursor.assign(fanout_offset.begin(), fanout_offset.end() - 1);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.type != NodeType::kComb && n.type != NodeType::kOutput) continue;
    for (NodeId fi : fanins(NodeId(i)))
      if (nodes_[fi.index()].type == NodeType::kComb)
        fanout_pool[cursor[fi.index()]++] = static_cast<std::uint32_t>(i);
  }
  out.clear();
  out.reserve(expected);
  auto& ready = cache_.ready;
  ready.clear();
  ready.reserve(expected);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const NodeType t = nodes_[i].type;
    if ((t == NodeType::kComb || t == NodeType::kOutput) && pending[i] == 0)
      ready.push_back(static_cast<std::uint32_t>(i));
  }
  while (!ready.empty()) {
    const std::uint32_t i = ready.back();
    ready.pop_back();
    out.emplace_back(i);
    for (std::uint32_t e = fanout_offset[i]; e < fanout_offset[i + 1]; ++e) {
      const std::uint32_t o = fanout_pool[e];
      if (--pending[o] == 0) ready.push_back(o);
    }
  }
  VPGA_ASSERT_MSG(out.size() == expected, "combinational cycle in netlist");
}

const std::vector<NodeId>& Netlist::topo_order() const {
  const std::lock_guard<std::mutex> lock(cache_.mutex);
  if (!cache_.topo_valid) {
    compute_topo(cache_.topo);
    cache_.topo_valid = true;
  }
  return cache_.topo;
}

const std::vector<int>& Netlist::fanout_counts() const {
  const std::lock_guard<std::mutex> lock(cache_.mutex);
  if (!cache_.fanout_valid) {
    cache_.fanouts.assign(nodes_.size(), 0);
    for (NodeId fi : fanin_pool_)
      if (fi.valid() && fi.index() < nodes_.size()) ++cache_.fanouts[fi.index()];
    cache_.fanout_valid = true;
  }
  return cache_.fanouts;
}

NetlistStats Netlist::stats() const {
  NetlistStats s;
  for (const Node& n : nodes_) {
    switch (n.type) {
      case NodeType::kInput: ++s.inputs; break;
      case NodeType::kOutput: ++s.outputs; break;
      case NodeType::kDff:
        ++s.dffs;
        s.nand2_equiv += 4.0;
        break;
      case NodeType::kConst: ++s.constants; break;
      case NodeType::kComb: {
        ++s.comb;
        if (n.is_mapped()) {
          s.nand2_equiv += library::CellLibrary::standard().nand2_equivalents(*n.cell);
        } else {
          // Technology-independent weights by support size.
          switch (n.func.support_size()) {
            case 0: break;
            case 1: s.nand2_equiv += 0.5; break;
            case 2: s.nand2_equiv += 1.0; break;
            case 3: s.nand2_equiv += 2.0; break;
            default: s.nand2_equiv += 3.0; break;
          }
        }
        break;
      }
    }
  }
  return s;
}

Netlist::CheckResult Netlist::check() const {
  auto fail = [](std::string msg) { return CheckResult{false, std::move(msg)}; };
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    for (NodeId fi : fanins(NodeId(i))) {
      if (!fi.valid() || fi.index() >= nodes_.size())
        return fail("node " + std::to_string(i) + " has an invalid fanin");
      const NodeType ft = nodes_[fi.index()].type;
      if (ft == NodeType::kOutput)
        return fail("node " + std::to_string(i) + " reads a primary output");
    }
    switch (n.type) {
      case NodeType::kComb:
        if (n.func.num_vars() != n.num_fanins())
          return fail("node " + std::to_string(i) + " arity mismatch");
        break;
      case NodeType::kOutput:
      case NodeType::kDff:
        if (n.num_fanins() != 1)
          return fail("node " + std::to_string(i) + " must have exactly one fanin");
        break;
      case NodeType::kInput:
      case NodeType::kConst:
        if (n.num_fanins() != 0)
          return fail("node " + std::to_string(i) + " must have no fanins");
        break;
    }
  }
  // Cycle check mirrors compute_topo without aborting.
  std::vector<int> pending(nodes_.size(), 0);
  std::size_t expected = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.type != NodeType::kComb && n.type != NodeType::kOutput) continue;
    ++expected;
    for (NodeId fi : fanins(NodeId(i)))
      if (nodes_[fi.index()].type == NodeType::kComb) ++pending[i];
  }
  std::vector<std::vector<std::uint32_t>> fanouts(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.type != NodeType::kComb && n.type != NodeType::kOutput) continue;
    for (NodeId fi : fanins(NodeId(i)))
      if (nodes_[fi.index()].type == NodeType::kComb)
        fanouts[fi.index()].push_back(static_cast<std::uint32_t>(i));
  }
  std::vector<std::uint32_t> ready;
  ready.reserve(expected);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const NodeType t = nodes_[i].type;
    if ((t == NodeType::kComb || t == NodeType::kOutput) && pending[i] == 0)
      ready.push_back(static_cast<std::uint32_t>(i));
  }
  std::size_t visited = 0;
  while (!ready.empty()) {
    const std::uint32_t i = ready.back();
    ready.pop_back();
    ++visited;
    for (std::uint32_t o : fanouts[i])
      if (--pending[o] == 0) ready.push_back(o);
  }
  if (visited != expected) return fail("combinational cycle detected");
  return {};
}

}  // namespace vpga::netlist

#include "place/placement.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "compact/compact.hpp"
#include "obs/obs.hpp"

namespace vpga::place {
namespace {

using netlist::Netlist;
using netlist::NodeId;
using netlist::NodeType;

bool is_placeable(const Netlist& nl, NodeId id) {
  const auto t = nl.node(id).type;
  return t == NodeType::kComb || t == NodeType::kDff;
}

/// A sort item of the spreading pass: the coordinate a sweep orders by, next
/// to its node, so comparisons read no positions.
struct Keyed {
  double key;
  std::uint32_t id;
};

bool key_less(const Keyed& a, const Keyed& b) { return a.key < b.key; }

}  // namespace

double asic_die_area(const Netlist& nl, double utilization, const library::CellLibrary& lib) {
  return compact::gate_area(nl, lib) / utilization;
}

Placer::Placer(const Netlist& nl, const PlacerOptions& opts, const library::CellLibrary& lib)
    : seed_(opts.seed), sa_moves_per_node_(opts.sa_moves_per_node) {
  const obs::Span span("place.median_sweeps");
  Placement& p = spread_;
  p.pos.resize(nl.num_nodes());
  const double die_area = asic_die_area(nl, opts.utilization, lib);
  const double side = std::max(1.0, std::sqrt(die_area));
  p.width_um = side;
  p.height_um = side;

  // Collect placeable nodes in creation order (generators construct buses in
  // spatial order, so this seeds good locality).
  cells_.reserve(nl.num_nodes());
  for (NodeId id : nl.all_nodes())
    if (is_placeable(nl, id)) cells_.push_back(id.value());

  // Initial placement: boustrophedon row fill.
  const std::size_t ncells = std::max<std::size_t>(1, cells_.size());
  cols_ = std::max(1, static_cast<int>(std::ceil(std::sqrt(static_cast<double>(ncells)))));
  pitch_x_ = side / cols_;
  rows_ = static_cast<int>(std::ceil(static_cast<double>(ncells) / cols_));
  pitch_y_ = side / std::max(1, rows_);
  const int rows = rows_, cols = cols_;
  const double pitch_x = pitch_x_, pitch_y = pitch_y_;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const int r = static_cast<int>(i) / cols;
    int c = static_cast<int>(i) % cols;
    if (r % 2) c = cols - 1 - c;  // serpentine
    p.pos[cells_[i]] = {(c + 0.5) * pitch_x, (r + 0.5) * pitch_y};
  }

  // Pin I/O on the periphery (inputs left edge, outputs right edge).
  const auto place_boundary = [&](const std::vector<NodeId>& ids, double x) {
    for (std::size_t i = 0; i < ids.size(); ++i)
      p.pos[ids[i].index()] = {x, side * (i + 0.5) / std::max<std::size_t>(1, ids.size())};
  };
  place_boundary(nl.inputs(), 0.0);
  place_boundary(nl.outputs(), side);

  // Adjacency: every node's partners (fanins + fanouts). Counting, then
  // filling in the same pass order keeps each node's partner order.
  const std::size_t n = nl.num_nodes();
  adj_begin_.assign(n + 1, 0);
  for (NodeId id : nl.all_nodes()) {
    for (NodeId fi : nl.fanins(id)) {
      if (!fi.valid()) continue;
      ++adj_begin_[id.index() + 1];
      ++adj_begin_[fi.index() + 1];
    }
  }
  for (std::size_t v = 0; v < n; ++v) adj_begin_[v + 1] += adj_begin_[v];
  adj_.resize(adj_begin_[n]);
  std::vector<std::uint32_t> fill(adj_begin_.begin(), adj_begin_.end() - 1);
  for (NodeId id : nl.all_nodes()) {
    for (NodeId fi : nl.fanins(id)) {
      if (!fi.valid()) continue;
      adj_[fill[id.index()]++] = fi.value();
      adj_[fill[fi.index()]++] = id.value();
    }
  }

  // Force-directed median sweeps: each cell moves to the mean of its
  // neighbors, then a per-row spreading pass removes pile-ups. The sorts
  // order (coordinate, node) pairs by the coordinate alone, which is the
  // comparison sequence of sorting the nodes by their positions.
  std::vector<Keyed> order(cells_.size());  // per-sweep sort scratch, hoisted
  for (int sweep = 0; sweep < opts.median_sweeps; ++sweep) {
    obs::count("place.median_sweeps");
    for (const std::uint32_t v : cells_) {
      const std::uint32_t lo = adj_begin_[v], hi = adj_begin_[v + 1];
      if (lo == hi) continue;
      double sx = 0.0, sy = 0.0;
      for (std::uint32_t k = lo; k < hi; ++k) {
        sx += p.pos[adj_[k]].x;
        sy += p.pos[adj_[k]].y;
      }
      p.pos[v] = {sx / static_cast<double>(hi - lo), sy / static_cast<double>(hi - lo)};
    }
    // Spreading: sort by y into rows, then by x within a row, and re-grid.
    for (std::size_t i = 0; i < cells_.size(); ++i) order[i] = {p.pos[cells_[i]].y, cells_[i]};
    std::sort(order.begin(), order.end(), key_less);
    for (int r = 0; r < rows; ++r) {
      const auto lo = static_cast<std::size_t>(r) * static_cast<std::size_t>(cols);
      const auto hi = std::min(order.size(), lo + static_cast<std::size_t>(cols));
      if (lo >= hi) break;
      for (std::size_t i = lo; i < hi; ++i) order[i].key = p.pos[order[i].id].x;
      std::sort(order.begin() + static_cast<long>(lo), order.begin() + static_cast<long>(hi),
                key_less);
      for (std::size_t i = lo; i < hi; ++i)
        p.pos[order[i].id] = {(static_cast<double>(i - lo) + 0.5) * pitch_x, (r + 0.5) * pitch_y};
    }
  }

  // The slot grid the annealer moves cells on: the cells in (y, x) order of
  // their positions. The last spreading pass left order[i] on slot i's
  // center (row by row, each row by x), distinct grid points in exactly that
  // order, so after a sweep the order is taken as it is. Without one, the
  // cells sit on the serpentine and are sorted.
  node_of_slot_.assign(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols), -1);
  slot_of_node_.assign(n, -1);
  std::vector<std::uint32_t> by_slot = cells_;
  if (opts.median_sweeps > 0) {
    for (std::size_t i = 0; i < order.size(); ++i) by_slot[i] = order[i].id;
  } else {
    std::sort(by_slot.begin(), by_slot.end(), [&](std::uint32_t a, std::uint32_t b) {
      const auto& pa = p.pos[a];
      const auto& pb = p.pos[b];
      return pa.y != pb.y ? pa.y < pb.y : pa.x < pb.x;
    });
  }
  for (std::size_t i = 0; i < by_slot.size(); ++i) {
    node_of_slot_[i] = static_cast<std::int32_t>(by_slot[i]);
    slot_of_node_[by_slot[i]] = static_cast<int>(i);
    const int r = static_cast<int>(i) / cols, c = static_cast<int>(i) % cols;
    p.pos[by_slot[i]] = {(c + 0.5) * pitch_x, (r + 0.5) * pitch_y};
  }
}

Placement Placer::anneal(const std::vector<double>& criticality) const {
  const obs::Span anneal_span("place.anneal");
  if (criticality.empty()) return anneal_loop<false>({});
  // Edge weights max(w(v), w(u)), w = 1 + 3 * criticality, one per
  // adjacency entry.
  std::vector<double> weight(adj_.size());
  auto node_weight = [&](std::uint32_t v) { return 1.0 + 3.0 * criticality[v]; };
  for (std::uint32_t v = 0; v + 1 < adj_begin_.size(); ++v)
    for (std::uint32_t k = adj_begin_[v]; k < adj_begin_[v + 1]; ++k)
      weight[k] = std::max(node_weight(v), node_weight(adj_[k]));
  return anneal_loop<true>(weight);
}

template <bool kWeighted>
Placement Placer::anneal_loop(const std::vector<double>& weight) const {
  // Simulated-annealing refinement on a slot grid with a shrinking move
  // window (VPR-style). Cells sit on grid slots; a move swaps a random cell
  // with the occupant of a slot within the window (or moves it to an empty
  // slot). Incremental cost uses the star model (sum of edge lengths), so a
  // move is O(degree of the two cells).
  Placement p = spread_;
  std::vector<std::int32_t> node_of_slot = node_of_slot_;
  std::vector<int> slot_of_node = slot_of_node_;
  const int rows = rows_, cols = cols_;
  const double pitch_x = pitch_x_, pitch_y = pitch_y_;
  const int total_slots = rows * cols;
  auto slot_center = [&](int slot) {
    return Point{(slot % cols + 0.5) * pitch_x, (slot / cols + 0.5) * pitch_y};
  };

  // A move sends cell a to `a_to` and the target slot's occupant b (if any)
  // to a's slot. star_costs(v) walks v's partners once and sums v's star cost
  // before and after the move in two accumulators, each adding its terms in
  // partner order, as two whole-star sums would.
  struct Move {
    std::uint32_t a;
    Point a_to;
    std::int32_t b;
    Point b_to;
  };
  struct StarCosts {
    double before = 0.0;
    double after = 0.0;
  };
  auto star_costs = [&](std::uint32_t v, const Move& m) {
    StarCosts c;
    const Point from = p.pos[v];
    const Point to = v == m.a ? m.a_to : m.b_to;
    for (std::uint32_t k = adj_begin_[v]; k < adj_begin_[v + 1]; ++k) {
      const std::uint32_t u = adj_[k];
      const Point u_from = p.pos[u];
      const Point u_to = u == m.a                              ? m.a_to
                         : static_cast<std::int32_t>(u) == m.b ? m.b_to
                                                               : u_from;
      double before = std::abs(from.x - u_from.x) + std::abs(from.y - u_from.y);
      double after = std::abs(to.x - u_to.x) + std::abs(to.y - u_to.y);
      if constexpr (kWeighted) {
        before *= weight[k];
        after *= weight[k];
      }
      c.before += before;
      c.after += after;
    }
    return c;
  };

  common::Rng rng(seed_);
  const std::size_t moves = cells_.size() * static_cast<std::size_t>(sa_moves_per_node_);
  double temperature = pitch_x * 1.5;
  const double cooling = moves > 0 ? std::pow(0.02, 1.0 / static_cast<double>(moves)) : 1.0;
  double window = std::max(rows, cols) / 2.0;
  const double window_cooling =
      moves > 0 ? std::pow(1.5 / std::max(1.5, window), 1.0 / static_cast<double>(moves)) : 1.0;
  long long sa_attempted = 0, sa_accepted = 0;  // counted once after the loop
  for (std::size_t mv = 0; mv < moves; ++mv, temperature *= cooling, window *= window_cooling) {
    ++sa_attempted;
    const std::uint32_t a = cells_[rng.next_below(cells_.size())];
    const int sa_slot = slot_of_node[a];
    const int w = std::max(1, static_cast<int>(window));
    const int r0 = sa_slot / cols, c0 = sa_slot % cols;
    const int r1 = std::clamp(r0 + static_cast<int>(rng.next_in(-w, w)), 0, rows - 1);
    const int c1 = std::clamp(c0 + static_cast<int>(rng.next_in(-w, w)), 0, cols - 1);
    const int target = r1 * cols + c1;
    if (target == sa_slot || target >= total_slots) continue;
    const std::int32_t b = node_of_slot[static_cast<std::size_t>(target)];
    const Move m{a, slot_center(target), b, p.pos[a]};
    const StarCosts ca = star_costs(a, m);
    const StarCosts cb = b >= 0 ? star_costs(static_cast<std::uint32_t>(b), m) : StarCosts{};
    const double delta = (ca.after + cb.after) - (ca.before + cb.before);
    const auto accept_uphill = [&] {
      const double u = rng.next_double();
      const double x = delta / std::max(1e-9, temperature);
      return !metropolis_rejects_early(u, x) && u < std::exp(-x);
    };
    if (delta <= 0.0 || accept_uphill()) {
      // accept: commit positions and slot bookkeeping
      ++sa_accepted;
      p.pos[a] = m.a_to;
      if (b >= 0) p.pos[static_cast<std::uint32_t>(b)] = m.b_to;
      node_of_slot[static_cast<std::size_t>(sa_slot)] = b;
      node_of_slot[static_cast<std::size_t>(target)] = static_cast<std::int32_t>(a);
      slot_of_node[a] = target;
      if (b >= 0) slot_of_node[static_cast<std::size_t>(b)] = sa_slot;
    }
  }
  obs::count("place.sa_moves", sa_attempted);
  obs::count("place.sa_accepted", sa_accepted);
  return p;
}

Placement place(const Netlist& nl, const PlacerOptions& opts, const library::CellLibrary& lib) {
  return Placer(nl, opts, lib).anneal(opts.criticality);
}

double total_hpwl(const Netlist& nl, const Placement& p) {
  double total = 0.0;
  // Nets: one per driver with at least one sink.
  std::vector<double> minx(nl.num_nodes(), 1e30), maxx(nl.num_nodes(), -1e30);
  std::vector<double> miny(nl.num_nodes(), 1e30), maxy(nl.num_nodes(), -1e30);
  std::vector<char> has_sink(nl.num_nodes(), 0);
  auto absorb = [&](std::size_t net, const Point& pt) {
    minx[net] = std::min(minx[net], pt.x);
    maxx[net] = std::max(maxx[net], pt.x);
    miny[net] = std::min(miny[net], pt.y);
    maxy[net] = std::max(maxy[net], pt.y);
  };
  for (netlist::NodeId id : nl.all_nodes()) {
    for (netlist::NodeId fi : nl.fanins(id)) {
      if (!fi.valid()) continue;
      has_sink[fi.index()] = 1;
      absorb(fi.index(), p.pos[id.index()]);
    }
  }
  for (netlist::NodeId id : nl.all_nodes()) {
    if (!has_sink[id.index()]) continue;
    absorb(id.index(), p.pos[id.index()]);
    total += (maxx[id.index()] - minx[id.index()]) + (maxy[id.index()] - miny[id.index()]);
  }
  return total;
}

}  // namespace vpga::place

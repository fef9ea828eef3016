#include "route/maze.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <limits>

#include "common/assert.hpp"

namespace vpga::route {
namespace {

/// Cost of one more connection on an edge that carries `usage`. It never
/// decreases with usage, so a cut's least-used edge is also its cheapest.
std::int64_t edge_cost(int usage, int capacity) {
  const std::int64_t over = static_cast<std::int64_t>(usage) + 1 - capacity;
  return over > 0 ? 1 + 4 * over * over : 1;
}

constexpr std::uint64_t kNoKey = std::numeric_limits<std::uint64_t>::max();

/// dist[i] = summed cost of the cuts between position i and `target`, for
/// the positions lo..hi only, where cut k, of cost cut_cost(k), separates
/// positions k and k + 1.
template <typename CutCost>
void cut_distances(int lo, int hi, int target, const CutCost& cut_cost,
                   std::vector<std::int64_t>& dist) {
  dist[static_cast<std::size_t>(target)] = 0;
  for (int i = target - 1; i >= lo; --i)
    dist[static_cast<std::size_t>(i)] = dist[static_cast<std::size_t>(i) + 1] + cut_cost(i);
  for (int i = target + 1; i <= hi; ++i)
    dist[static_cast<std::size_t>(i)] = dist[static_cast<std::size_t>(i) - 1] + cut_cost(i - 1);
}

}  // namespace

UsageGrid::UsageGrid(int w, int h)
    : w_(w), h_(h), horiz_(static_cast<std::size_t>(std::max(0, w - 1)) * h, 0),
      vert_(static_cast<std::size_t>(w) * std::max(0, h - 1), 0),
      col_cuts_(static_cast<std::size_t>(std::max(0, w - 1)), Cut{0, h}),
      row_cuts_(static_cast<std::size_t>(std::max(0, h - 1)), Cut{0, w}) {}

UsageGrid::Cut UsageGrid::scan(const std::vector<int>& usage, std::size_t first, int n,
                               std::size_t stride) {
  Cut cut{std::numeric_limits<int>::max(), 0};
  for (int i = 0; i < n; ++i) {
    const int u = usage[first + static_cast<std::size_t>(i) * stride];
    if (u < cut.min) cut = Cut{u, 1};
    else if (u == cut.min) ++cut.at_min;
  }
  return cut;
}

bool UsageGrid::update(Cut& cut, int before, int after) {
  if (after < cut.min) {
    cut.min = after;
    cut.at_min = 1;
  } else if (after == cut.min) {
    if (before != after) ++cut.at_min;
  } else if (before == cut.min) {
    return --cut.at_min > 0;
  }
  return true;
}

int UsageGrid::add_h_edge(int x, int y, int delta) {
  int& u = horiz_[h_index(x, y)];
  const int before = u;
  u += delta;
  usage_bound_ = std::max(usage_bound_, u);
  Cut& cut = col_cuts_[static_cast<std::size_t>(x)];
  if (!update(cut, before, u))
    cut = scan(horiz_, h_index(x, 0), h_, static_cast<std::size_t>(w_ - 1));
  return u;
}

int UsageGrid::add_v_edge(int x, int y, int delta) {
  int& u = vert_[v_index(x, y)];
  const int before = u;
  u += delta;
  usage_bound_ = std::max(usage_bound_, u);
  Cut& cut = row_cuts_[static_cast<std::size_t>(y)];
  if (!update(cut, before, u)) cut = scan(vert_, v_index(0, y), w_, 1);
  return u;
}

void MazeSearch::push(std::uint64_t f, int node) {
  const std::size_t b = f & (ring_.size() - 1);
  std::uint64_t& word = occupied_[b >> 6];
  const std::uint64_t bit = std::uint64_t{1} << (b & 63);
  Node& n = nodes_[static_cast<std::size_t>(node)];
  n.prev = -1;
  if (word & bit) {
    n.next = ring_[b];
    nodes_[static_cast<std::size_t>(n.next)].prev = node;
  } else {
    n.next = -1;
    word |= bit;
  }
  ring_[b] = node;
  ++queued_;
}

void MazeSearch::unlink(std::uint64_t f, int node) {
  const Node& n = nodes_[static_cast<std::size_t>(node)];
  if (n.prev >= 0) {
    nodes_[static_cast<std::size_t>(n.prev)].next = n.next;
  } else {
    const std::size_t b = f & (ring_.size() - 1);
    ring_[b] = n.next;
    if (n.next < 0) occupied_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
  }
  if (n.next >= 0) nodes_[static_cast<std::size_t>(n.next)].prev = n.prev;
  --queued_;
}

int MazeSearch::pop() {
  // The first occupied bucket at or after the cursor, cyclically: every
  // queued key lies within one turn of the ring from the cursor.
  const std::size_t mask = ring_.size() - 1;
  const std::size_t from = cursor_ & mask;
  std::size_t word = from >> 6;
  std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (from & 63));
  while (bits == 0) {
    word = (word + 1) & (occupied_.size() - 1);
    bits = occupied_[word];
  }
  const std::size_t b = word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
  cursor_ += (b - from) & mask;
  const int node = ring_[b];
  unlink(cursor_, node);
  return node;
}

int MazeSearch::route(UsageGrid& g, int src, int dst, int capacity, const Box& box) {
  const int w = g.w(), h = g.h();
  VPGA_ASSERT(0 <= box.x0 && box.x0 <= box.x1 && box.x1 < w && 0 <= box.y0 &&
              box.y0 <= box.y1 && box.y1 < h);
  const std::size_t n = static_cast<std::size_t>(w) * static_cast<std::size_t>(h);
  if (nodes_.size() < n) nodes_.resize(n);
  if (coords_w_ != w || coords_.size() < n) {
    coords_.resize(n);
    for (int y = 0, v = 0; y < h; ++y)
      for (int x = 0; x < w; ++x) coords_[static_cast<std::size_t>(v++)] = Coord{x, y};
    coords_w_ = w;
  }
  if (h_col_.size() < static_cast<std::size_t>(w)) h_col_.resize(static_cast<std::size_t>(w));
  if (h_row_.size() < static_cast<std::size_t>(h)) h_row_.resize(static_cast<std::size_t>(h));
  if (++epoch_ == 0) {  // stamps wrapped: forget them all
    for (Node& s : nodes_) s.seen = 0;
    epoch_ = 1;
  }

  // No edge costs more than c_max. The sink's cost f* is at most that of an
  // L path, (|dx| + |dy|)·c_max, and no key ever queued exceeds f* + 2·c_max,
  // so every g fits in 32 bits.
  const std::int64_t c_max = edge_cost(g.usage_bound(), capacity);
  const Coord from = coords_[static_cast<std::size_t>(src)];
  const Coord to = coords_[static_cast<std::size_t>(dst)];
  const auto inside = [&box](Coord c) {
    return box.x0 <= c.x && c.x <= box.x1 && box.y0 <= c.y && c.y <= box.y1;
  };
  VPGA_ASSERT(inside(from) && inside(to));
  VPGA_ASSERT((std::abs(from.x - to.x) + std::abs(from.y - to.y) + 2) * c_max <=
              std::numeric_limits<std::uint32_t>::max());
  // More than 2·c_max + 1 buckets, and at least one bitmap word of them.
  const std::size_t buckets =
      std::max<std::size_t>(64, std::bit_ceil(static_cast<std::size_t>(2 * c_max + 2)));
  if (ring_.size() < buckets) {  // grows only between searches, while empty
    ring_.assign(buckets, -1);
    occupied_.assign(buckets / 64, 0);
  }

  // Heuristic: any path to the sink crosses every column cut and every row
  // cut between a node and the sink, each at no less than the cost of the
  // cut's least-used edge. An edge changes h by at most its own cost, so h
  // is consistent and the popped f = g + h never decreases. A path that
  // stays in the box crosses the same cuts, so h bounds it too, and only
  // the box's columns and rows need a value.
  cut_distances(box.x0, box.x1, to.x,
                [&](int x) { return edge_cost(g.col_cut_min(x), capacity); }, h_col_);
  cut_distances(box.y0, box.y1, to.y,
                [&](int y) { return edge_cost(g.row_cut_min(y), capacity); }, h_row_);

  nodes_[static_cast<std::size_t>(src)].g = 0;
  nodes_[static_cast<std::size_t>(src)].seen = epoch_;
  cursor_ = static_cast<std::uint64_t>(h_col_[static_cast<std::size_t>(from.x)] +
                                        h_row_[static_cast<std::size_t>(from.y)]);
  push(cursor_, src);
  // Settle every node with f <= f*, not just up to the sink's pop: the
  // walk-back needs the exact g of every tight neighbour of the path, and
  // each of those lies on a shortest path to the sink, so its f <= f*.
  std::uint64_t f_star = kNoKey;
  while (queued_ > 0) {
    const int v = pop();
    if (cursor_ > f_star) break;
    ++expansions_;
    if (v == dst) f_star = cursor_;
    const std::uint32_t gv = nodes_[static_cast<std::size_t>(v)].g;
    // A settled neighbour needs no test: its g is exact, so by the triangle
    // inequality it never exceeds gv + c and the relax leaves it alone.
    const auto relax = [&](int u, int usage, std::int64_t hu) {
      Node& nu = nodes_[static_cast<std::size_t>(u)];
      const auto ng = gv + static_cast<std::uint32_t>(edge_cost(usage, capacity));
      if (nu.seen == epoch_) {
        if (ng >= nu.g) return;
        // Decrease-key: the node leaves its old key's bucket for the new one.
        unlink(static_cast<std::uint64_t>(nu.g + hu), u);
      } else {
        nu.seen = epoch_;
      }
      nu.g = ng;
      push(static_cast<std::uint64_t>(ng + hu), u);
    };
    const auto [x, y] = coords_[static_cast<std::size_t>(v)];
    const std::int64_t hx = h_col_[static_cast<std::size_t>(x)];
    const std::int64_t hy = h_row_[static_cast<std::size_t>(y)];
    if (x < box.x1) relax(v + 1, g.h_edge(x, y), h_col_[static_cast<std::size_t>(x) + 1] + hy);
    if (x > box.x0) relax(v - 1, g.h_edge(x - 1, y), h_col_[static_cast<std::size_t>(x) - 1] + hy);
    if (y < box.y1) relax(v + w, g.v_edge(x, y), hx + h_row_[static_cast<std::size_t>(y) + 1]);
    if (y > box.y0) relax(v - w, g.v_edge(x, y - 1), hx + h_row_[static_cast<std::size_t>(y) - 1]);
  }
  // Empty the ring for the next search: the keys still queued lie in
  // [cursor_, cursor_ + 2·c_max], less than one turn of the ring.
  if (queued_ > 0) {
    const std::uint64_t last = cursor_ + 2 * static_cast<std::uint64_t>(c_max);
    for (std::uint64_t k = cursor_ & ~std::uint64_t{63}; k <= last; k += 64)
      occupied_[(k & (ring_.size() - 1)) >> 6] = 0;
    queued_ = 0;
  }

  // Walk back through the tight neighbour (g[v] + c(v,u) == g[u]) of least
  // (g, index): the one a (distance, index)-ordered Dijkstra pops first and
  // so records as the predecessor.
  path_.clear();
  path_.push_back(dst);
  for (int u = dst; u != src;) {
    const std::int64_t gu = nodes_[static_cast<std::size_t>(u)].g;
    int best = -1;
    const auto consider = [&](int nx, int ny, int usage) {
      const int v = g.node(nx, ny);
      const Node& nv = nodes_[static_cast<std::size_t>(v)];
      if (nv.seen != epoch_ || nv.g + edge_cost(usage, capacity) != gu) return;
      if (best < 0 || nv.g < nodes_[static_cast<std::size_t>(best)].g ||
          (nv.g == nodes_[static_cast<std::size_t>(best)].g && v < best))
        best = v;
    };
    const auto [x, y] = coords_[static_cast<std::size_t>(u)];
    if (x < box.x1) consider(x + 1, y, g.h_edge(x, y));
    if (x > box.x0) consider(x - 1, y, g.h_edge(x - 1, y));
    if (y < box.y1) consider(x, y + 1, g.v_edge(x, y));
    if (y > box.y0) consider(x, y - 1, g.v_edge(x, y - 1));
    VPGA_ASSERT(best >= 0);
    u = best;
    path_.push_back(u);
  }
  for (std::size_t i = 1; i < path_.size(); ++i) {
    const int a = path_[i - 1], b = path_[i];
    const int x0 = a % w, y0 = a / w, x1 = b % w, y1 = b / w;
    if (y0 == y1) g.add_h_edge(std::min(x0, x1), y0, 1);
    else g.add_v_edge(x0, std::min(y0, y1), 1);
  }
  return static_cast<int>(path_.size()) - 1;
}

}  // namespace vpga::route

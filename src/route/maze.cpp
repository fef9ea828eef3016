#include "route/maze.hpp"

#include <algorithm>
#include <bit>
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

/// Radix-heap bucket of `key` relative to the last popped key.
std::size_t bucket_of(std::uint64_t key, std::uint64_t last) {
  return key == last ? 0 : static_cast<std::size_t>(64 - std::countl_zero(key ^ last));
}

/// dist[i] = summed cost of the cuts between position i and `target` of
/// positions 0..n−1, where cut k, of cost cut_cost(k), separates positions k
/// and k + 1.
template <typename CutCost>
void cut_distances(int n, int target, const CutCost& cut_cost, std::vector<std::int64_t>& dist) {
  dist.resize(static_cast<std::size_t>(n));
  dist[static_cast<std::size_t>(target)] = 0;
  for (int i = target - 1; i >= 0; --i)
    dist[static_cast<std::size_t>(i)] = dist[static_cast<std::size_t>(i) + 1] + cut_cost(i);
  for (int i = target + 1; i < n; ++i)
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
  Cut& cut = col_cuts_[static_cast<std::size_t>(x)];
  if (!update(cut, before, u))
    cut = scan(horiz_, h_index(x, 0), h_, static_cast<std::size_t>(w_ - 1));
  return u;
}

int UsageGrid::add_v_edge(int x, int y, int delta) {
  int& u = vert_[v_index(x, y)];
  const int before = u;
  u += delta;
  Cut& cut = row_cuts_[static_cast<std::size_t>(y)];
  if (!update(cut, before, u)) cut = scan(vert_, v_index(0, y), w_, 1);
  return u;
}

void MazeSearch::push(std::uint64_t f, int node) {
  const std::size_t b = bucket_of(f, last_);
  buckets_[b].emplace_back(f, node);
  bucket_min_[b] = std::min(bucket_min_[b], f);
  ++queued_;
}

MazeSearch::Entry MazeSearch::pop() {
  if (buckets_[0].empty()) {
    // The least key of the lowest non-empty bucket becomes the reference;
    // every entry of that bucket then falls into a strictly lower one.
    std::size_t b = 1;
    while (buckets_[b].empty()) ++b;
    last_ = bucket_min_[b];
    for (const Entry& e : buckets_[b]) {
      const std::size_t to = bucket_of(e.first, last_);
      buckets_[to].push_back(e);
      bucket_min_[to] = std::min(bucket_min_[to], e.first);
    }
    buckets_[b].clear();
    bucket_min_[b] = kNoKey;
  }
  const Entry e = buckets_[0].back();
  buckets_[0].pop_back();
  --queued_;
  return e;
}

int MazeSearch::route(UsageGrid& g, int src, int dst, int capacity) {
  const int w = g.w(), h = g.h();
  const std::size_t n = static_cast<std::size_t>(w) * static_cast<std::size_t>(h);
  if (nodes_.size() < n) nodes_.resize(n);
  if (++epoch_ == 0) {  // stamps wrapped: forget them all
    for (Node& s : nodes_) s.seen = s.settled = 0;
    epoch_ = 1;
  }

  // Heuristic: any path to the sink crosses every column cut and every row
  // cut between a node and the sink, each at no less than the cost of the
  // cut's least-used edge. An edge changes h by at most its own cost, so h
  // is consistent and the popped f = g + h never decreases.
  cut_distances(w, dst % w, [&](int x) { return edge_cost(g.col_cut_min(x), capacity); }, h_col_);
  cut_distances(h, dst / w, [&](int y) { return edge_cost(g.row_cut_min(y), capacity); }, h_row_);

  for (auto& b : buckets_) b.clear();
  bucket_min_.fill(kNoKey);
  last_ = 0;
  queued_ = 0;
  nodes_[static_cast<std::size_t>(src)].g = 0;
  nodes_[static_cast<std::size_t>(src)].seen = epoch_;
  push(static_cast<std::uint64_t>(h_col_[static_cast<std::size_t>(src % w)] +
                                  h_row_[static_cast<std::size_t>(src / w)]),
       src);
  // Settle every node with f <= f*, not just up to the sink's pop: the
  // walk-back needs the exact g of every tight neighbour of the path, and
  // each of those lies on a shortest path to the sink, so its f <= f*.
  std::uint64_t f_star = kNoKey;
  while (queued_ > 0) {
    const auto [f, v] = pop();
    if (f > f_star) break;
    Node& nv = nodes_[static_cast<std::size_t>(v)];
    if (nv.settled == epoch_) continue;  // superseded entry
    nv.settled = epoch_;
    ++expansions_;
    if (v == dst) f_star = f;
    const std::int64_t gv = nv.g;
    const auto relax = [&](int nx, int ny, int usage) {
      const int u = g.node(nx, ny);
      Node& nu = nodes_[static_cast<std::size_t>(u)];
      if (nu.settled == epoch_) return;
      const std::int64_t ng = gv + edge_cost(usage, capacity);
      if (nu.seen == epoch_ && ng >= nu.g) return;
      nu.g = ng;
      nu.seen = epoch_;
      push(static_cast<std::uint64_t>(ng + h_col_[static_cast<std::size_t>(nx)] +
                                      h_row_[static_cast<std::size_t>(ny)]),
           u);
    };
    const int x = v % w, y = v / w;
    if (x + 1 < w) relax(x + 1, y, g.h_edge(x, y));
    if (x > 0) relax(x - 1, y, g.h_edge(x - 1, y));
    if (y + 1 < h) relax(x, y + 1, g.v_edge(x, y));
    if (y > 0) relax(x, y - 1, g.v_edge(x, y - 1));
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
    const int x = u % w, y = u / w;
    if (x + 1 < w) consider(x + 1, y, g.h_edge(x, y));
    if (x > 0) consider(x - 1, y, g.h_edge(x - 1, y));
    if (y + 1 < h) consider(x, y + 1, g.v_edge(x, y));
    if (y > 0) consider(x, y - 1, g.v_edge(x, y - 1));
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

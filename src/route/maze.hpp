#pragma once
/// \file maze.hpp
/// The router's edge-usage grid and its congestion-priced maze search.
///
/// `route()` (router.hpp) hands every connection whose L-shape still
/// overflows after orientation negotiation to `MazeSearch::route`: a
/// least-cost path under the edge cost 1 + 4·over², where
/// over = usage + 1 − capacity when positive, among the paths that stay
/// inside a search box (router.cpp passes the connection's bounding box,
/// widened). The search is A* over integer costs on Dial's bucket ring keyed
/// by f = g + h, where a cheaper g moves a queued node to its new bucket
/// (decrease-key) instead of queueing it again. Its heuristic sums, over the
/// column and row cuts between a node and the sink, the cost of each cut's
/// least-used edge. It settles exactly the box's nodes with f ≤ f*,
/// whatever the order within a bucket, and walks back through the tight
/// neighbour of least (g, index), so it returns exactly the path that a
/// Dijkstra confined to the box, popping in (distance, node index) order and
/// relaxing on a strict `<`, records (docs/ALGORITHMS.md, "Routing &
/// extraction").

#include <cstddef>
#include <cstdint>
#include <vector>

namespace vpga::route {

/// Edge usage of a w×h tile grid that keeps the least usage of every cut
/// current. Node (x, y) has index y·w + x. Horizontal edge (x, y) joins
/// (x, y) and (x+1, y) and belongs to column cut x; vertical edge (x, y)
/// joins (x, y) and (x, y+1) and belongs to row cut y.
class UsageGrid {
 public:
  UsageGrid(int w, int h);

  [[nodiscard]] int w() const { return w_; }
  [[nodiscard]] int h() const { return h_; }
  [[nodiscard]] int node(int x, int y) const { return y * w_ + x; }

  [[nodiscard]] int h_edge(int x, int y) const { return horiz_[h_index(x, y)]; }
  [[nodiscard]] int v_edge(int x, int y) const { return vert_[v_index(x, y)]; }
  /// Add `delta` to an edge's usage and return the new usage.
  int add_h_edge(int x, int y, int delta);
  int add_v_edge(int x, int y, int delta);

  /// An upper bound on every edge's usage: the most any edge has carried.
  [[nodiscard]] int usage_bound() const { return usage_bound_; }

  /// Least usage over column cut x and over row cut y.
  [[nodiscard]] int col_cut_min(int x) const { return col_cuts_[static_cast<std::size_t>(x)].min; }
  [[nodiscard]] int row_cut_min(int y) const { return row_cuts_[static_cast<std::size_t>(y)].min; }

  /// Every horizontal edge's usage, index y·(w−1) + x.
  [[nodiscard]] const std::vector<int>& horiz() const { return horiz_; }
  /// Every vertical edge's usage, index y·w + x.
  [[nodiscard]] const std::vector<int>& vert() const { return vert_; }

 private:
  struct Cut {
    int min = 0;     // least usage over the cut's edges
    int at_min = 0;  // how many of them carry it
  };
  [[nodiscard]] std::size_t h_index(int x, int y) const {
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(w_ - 1) +
           static_cast<std::size_t>(x);
  }
  [[nodiscard]] std::size_t v_index(int x, int y) const {
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(w_) + static_cast<std::size_t>(x);
  }
  /// The cut of the `n` edges at indices first, first + stride, ... of `usage`.
  static Cut scan(const std::vector<int>& usage, std::size_t first, int n, std::size_t stride);
  /// Moves one edge of `cut` from usage `before` to `after`; returns false
  /// when the cut's last least-used edge rose and the cut must be rescanned.
  static bool update(Cut& cut, int before, int after);

  int w_, h_;
  int usage_bound_ = 0;
  std::vector<int> horiz_;  // (w-1) * h
  std::vector<int> vert_;   // w * (h-1)
  std::vector<Cut> col_cuts_;  // w-1
  std::vector<Cut> row_cuts_;  // h-1
};

/// The tiles (x, y) with x0 ≤ x ≤ x1 and y0 ≤ y ≤ y1.
struct Box {
  int x0, y0, x1, y1;
};

/// Maze search whose scratch (an epoch-stamped node array, a coordinate
/// table and the bucket ring) is reused by every call and allocated by the
/// first. One instance serves the connections of one route() call and is
/// never shared between threads.
class MazeSearch {
 public:
  /// Routes node `src` to node `dst` of `g` at the least total cost over
  /// the paths that stay inside `box`, which lies in the grid and holds
  /// both nodes, adds one unit of usage to every edge of the path and
  /// returns its length in edges. The search's work and its heuristic's
  /// set-up follow the box, not the grid.
  int route(UsageGrid& g, int src, int dst, int capacity, const Box& box);

  /// Nodes of the last path, sink first and source last.
  [[nodiscard]] const std::vector<int>& path() const { return path_; }
  /// Nodes settled, summed over every route() call on this instance.
  [[nodiscard]] long long expansions() const { return expansions_; }

 private:
  /// A node seen in this epoch is queued, in the list of the bucket of its
  /// key g + h, until it is popped and settled. g fits 32 bits: route()
  /// asserts a bound on every key it can queue.
  struct Node {
    std::uint32_t g = 0;     // cost from the source, valid when seen
    std::uint32_t seen = 0;  // epoch in which g was last set
    std::int32_t next = -1;  // bucket list links while queued
    std::int32_t prev = -1;  // -1 at the head of its bucket
  };
  static_assert(sizeof(Node) == 16);
  struct Coord {
    std::int32_t x, y;
  };

  void push(std::uint64_t f, int node);
  /// Takes `node`, queued under key `f`, out of its bucket.
  void unlink(std::uint64_t f, int node);
  /// Pops a node of the least queued key and moves cursor_ to that key.
  int pop();

  std::vector<Node> nodes_;
  std::vector<Coord> coords_;  // (x, y) of every node of a coords_w_-wide grid
  int coords_w_ = 0;
  std::uint32_t epoch_ = 0;
  /// Dial's bucket ring: ring_[f & (size − 1)] heads the list of the nodes
  /// queued under key f, valid when its bit of occupied_ is set. With c_max
  /// the cost of an edge at the grid's usage bound, every queued key lies in
  /// [cursor_, cursor_ + 2·c_max] and the ring has more than 2·c_max + 1
  /// buckets, so two different queued keys never share one.
  std::vector<std::int32_t> ring_;
  std::vector<std::uint64_t> occupied_;
  std::uint64_t cursor_ = 0;  // key of the last pop, the least queued key
  std::size_t queued_ = 0;
  std::vector<std::int64_t> h_col_;  // heuristic share of each column, valid in the box
  std::vector<std::int64_t> h_row_;  // heuristic share of each row, valid in the box
  std::vector<int> path_;
  long long expansions_ = 0;
};

}  // namespace vpga::route

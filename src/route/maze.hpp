#pragma once
/// \file maze.hpp
/// The router's edge-usage grid and its congestion-priced maze search.
///
/// `route()` (router.hpp) hands every connection whose L-shape still
/// overflows after orientation negotiation to `MazeSearch::route`: a
/// least-cost path under the edge cost 1 + 4·over², where
/// over = usage + 1 − capacity when positive. The search is A* over integer
/// costs on a monotone radix heap. Its heuristic sums, over the column and
/// row cuts between a node and the sink, the cost of each cut's least-used
/// edge. It settles every node with f ≤ f* and walks back through the tight
/// neighbour of least (g, index), so it returns exactly the path that a
/// Dijkstra popping in (distance, node index) order and relaxing on a
/// strict `<` records (docs/ALGORITHMS.md, "Routing & extraction").

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
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
  std::vector<int> horiz_;  // (w-1) * h
  std::vector<int> vert_;   // w * (h-1)
  std::vector<Cut> col_cuts_;  // w-1
  std::vector<Cut> row_cuts_;  // h-1
};

/// Maze search whose scratch (an epoch-stamped node array and the radix
/// heap's buckets) is reused by every call. One instance serves the
/// connections of one route() call and is never shared between threads.
class MazeSearch {
 public:
  /// Routes node `src` to node `dst` of `g` at the least total cost, adds
  /// one unit of usage to every edge of the path and returns its length in
  /// edges.
  int route(UsageGrid& g, int src, int dst, int capacity);

  /// Nodes of the last path, sink first and source last.
  [[nodiscard]] const std::vector<int>& path() const { return path_; }
  /// Nodes settled, summed over every route() call on this instance.
  [[nodiscard]] long long expansions() const { return expansions_; }

 private:
  struct Node {
    std::int64_t g = 0;         // cost from the source, valid when seen
    std::uint32_t seen = 0;     // epoch in which g was last set
    std::uint32_t settled = 0;  // epoch in which g became final
  };
  using Entry = std::pair<std::uint64_t, int>;  // (f = g + h, node)

  void push(std::uint64_t f, int node);
  Entry pop();

  std::vector<Node> nodes_;
  std::uint32_t epoch_ = 0;
  /// Radix heap: bucket b holds the keys whose highest bit differing from
  /// last_ (the last key popped) is bit b − 1; bucket 0 holds keys == last_.
  std::array<std::vector<Entry>, 65> buckets_;
  std::array<std::uint64_t, 65> bucket_min_{};  // least key of each bucket
  std::uint64_t last_ = 0;
  std::size_t queued_ = 0;
  std::vector<std::int64_t> h_col_;  // heuristic share of each column
  std::vector<std::int64_t> h_row_;  // heuristic share of each row
  std::vector<int> path_;
  long long expansions_ = 0;
};

}  // namespace vpga::route

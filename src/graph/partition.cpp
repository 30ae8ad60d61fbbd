#include "graph/partition.hpp"

#include <algorithm>
#include <deque>
#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace fsaic {

namespace {

/// State for one bisection of the vertex subset `verts` (side 0 / side 1).
/// `side` is indexed by global vertex id; vertices outside the subset hold -1.
struct Bisection {
  std::vector<index_t> side;
  index_t size0 = 0;
  index_t size1 = 0;
};

/// Grow side 0 from a pseudo-peripheral seed by BFS until it reaches
/// `target0` vertices; everything else in the subset becomes side 1.
Bisection grow_bisection(const Graph& g, std::span<const index_t> verts,
                         index_t target0, Rng& rng) {
  Bisection b;
  b.side.assign(static_cast<std::size_t>(g.num_vertices()), -1);
  for (index_t v : verts) {
    b.side[static_cast<std::size_t>(v)] = 1;
  }
  b.size1 = static_cast<index_t>(verts.size());

  std::vector<bool> visited(static_cast<std::size_t>(g.num_vertices()), false);
  auto in_subset = [&](index_t v) { return b.side[static_cast<std::size_t>(v)] >= 0; };

  while (b.size0 < target0) {
    // Pick an unvisited vertex in the subset as a component seed; improve it
    // with the pseudo-peripheral sweep so the level sets cut cleanly.
    index_t seed = -1;
    // Randomized probe first (cheap, avoids always starting at low ids),
    // then deterministic scan.
    for (int t = 0; t < 4 && seed < 0; ++t) {
      const index_t cand = verts[static_cast<std::size_t>(
          rng.next_index(static_cast<index_t>(verts.size())))];
      if (!visited[static_cast<std::size_t>(cand)] &&
          b.side[static_cast<std::size_t>(cand)] == 1) {
        seed = cand;
      }
    }
    if (seed < 0) {
      for (index_t v : verts) {
        if (!visited[static_cast<std::size_t>(v)] &&
            b.side[static_cast<std::size_t>(v)] == 1) {
          seed = v;
          break;
        }
      }
    }
    FSAIC_CHECK(seed >= 0, "ran out of seeds before reaching target size");
    seed = g.pseudo_peripheral(seed, b.side, 1);

    std::deque<index_t> queue{seed};
    visited[static_cast<std::size_t>(seed)] = true;
    while (!queue.empty() && b.size0 < target0) {
      const index_t v = queue.front();
      queue.pop_front();
      if (b.side[static_cast<std::size_t>(v)] == 1) {
        b.side[static_cast<std::size_t>(v)] = 0;
        ++b.size0;
        --b.size1;
      }
      for (index_t u : g.neighbors(v)) {
        if (in_subset(u) && !visited[static_cast<std::size_t>(u)] &&
            b.side[static_cast<std::size_t>(u)] == 1) {
          visited[static_cast<std::size_t>(u)] = true;
          queue.push_back(u);
        }
      }
    }
    // If the BFS exhausted a connected component, the outer loop reseeds.
  }
  return b;
}

/// Gain of moving v to the other side: (cut edges removed) - (cut edges added).
index_t move_gain(const Graph& g, const Bisection& b, index_t v) {
  const index_t mine = b.side[static_cast<std::size_t>(v)];
  index_t external = 0;
  index_t internal = 0;
  for (index_t u : g.neighbors(v)) {
    const index_t s = b.side[static_cast<std::size_t>(u)];
    if (s < 0) continue;  // outside the current subset
    if (s == mine) {
      ++internal;
    } else {
      ++external;
    }
  }
  return external - internal;
}

/// Per-vertex state of refine_pass, sized to the whole graph once per
/// partition_graph call. A pass resets only the entries of its own
/// candidates, so it costs no O(|V|) clearing.
struct RefineScratch {
  explicit RefineScratch(index_t n)
      : position(static_cast<std::size_t>(n), -1),
        gain(static_cast<std::size_t>(n), 0),
        moved(static_cast<std::size_t>(n), 0) {}

  /// Candidate-list position of a queued vertex, -1 if not queued.
  std::vector<index_t> position;
  /// Current move gain of a queued vertex.
  std::vector<index_t> gain;
  std::vector<char> moved;
  /// Queued vertices in list order.
  std::vector<index_t> list;
  /// One max-heap of packed (gain, -position) keys per side.
  std::vector<std::uint64_t> heap[2];
};

/// Heap key ordering candidates by larger gain, then earlier list position.
std::uint64_t candidate_key(index_t gain, index_t position) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(gain) ^ 0x80000000U)
          << 32) |
         (0xFFFFFFFFU - static_cast<std::uint32_t>(position));
}
index_t key_gain(std::uint64_t key) {
  return static_cast<index_t>(static_cast<std::uint32_t>(key >> 32) ^ 0x80000000U);
}
index_t key_position(std::uint64_t key) {
  return static_cast<index_t>(0xFFFFFFFFU - static_cast<std::uint32_t>(key));
}

/// One FM-style sweep: repeatedly move the best candidate while the move
/// keeps both sides within tolerance; each vertex moves at most once per
/// sweep. Returns true if the cut improved.
///
/// Each move takes the first candidate in list order with the largest
/// positive gain, among those whose move keeps both sides in balance. The
/// list starts as the boundary in `verts` order and grows with the
/// in-subset neighbours of each moved vertex not yet queued. Feasibility
/// depends only on a candidate's side and the two side sizes, so one
/// max-heap per side keyed by (gain, -list position) yields the same choice
/// as scanning the list. A move changes only its neighbours' gains (by ±2);
/// each gets a fresh heap entry and outdated entries are skipped on pop.
bool refine_pass(const Graph& g, std::span<const index_t> verts, Bisection& b,
                 index_t target0, double tol, RefineScratch& s) {
  const auto n_sub = static_cast<index_t>(verts.size());
  const index_t target1 = n_sub - target0;
  const auto lo0 = static_cast<index_t>(target0 * (1.0 - tol));
  const auto hi0 = static_cast<index_t>(target0 * (1.0 + tol)) + 1;
  const auto lo1 = static_cast<index_t>(target1 * (1.0 - tol));
  const auto hi1 = static_cast<index_t>(target1 * (1.0 + tol)) + 1;

  const auto enqueue = [&](index_t v, index_t gain) {
    const auto pos = static_cast<index_t>(s.list.size());
    s.list.push_back(v);
    s.position[static_cast<std::size_t>(v)] = pos;
    s.gain[static_cast<std::size_t>(v)] = gain;
    auto& heap = s.heap[b.side[static_cast<std::size_t>(v)]];
    heap.push_back(candidate_key(gain, pos));
    std::push_heap(heap.begin(), heap.end());
  };

  // Only boundary vertices (those with a neighbor on the other side) can
  // have positive gain, so the list starts as the boundary.
  for (index_t v : verts) {
    const index_t mine = b.side[static_cast<std::size_t>(v)];
    index_t external = 0;
    index_t internal = 0;
    for (index_t u : g.neighbors(v)) {
      const index_t su = b.side[static_cast<std::size_t>(u)];
      if (su < 0) continue;
      (su == mine ? internal : external) += 1;
    }
    if (external > 0) enqueue(v, external - internal);
  }

  // Best current entry of one side's heap, or 0 (no entry) once stale
  // entries are dropped.
  const auto top = [&](int side) -> std::uint64_t {
    auto& heap = s.heap[side];
    while (!heap.empty()) {
      const std::uint64_t key = heap.front();
      const index_t v = s.list[static_cast<std::size_t>(key_position(key))];
      if (s.moved[static_cast<std::size_t>(v)] == 0 &&
          s.gain[static_cast<std::size_t>(v)] == key_gain(key)) {
        return key;
      }
      std::pop_heap(heap.begin(), heap.end());
      heap.pop_back();
    }
    return 0;
  };

  bool improved = false;
  while (true) {
    // Balance feasibility of moving a side-0 / side-1 vertex away.
    const bool feasible0 = !(b.size0 - 1 < lo0 || b.size1 + 1 > hi1);
    const bool feasible1 = !(b.size1 - 1 < lo1 || b.size0 + 1 > hi0);
    const std::uint64_t key0 = feasible0 ? top(0) : 0;
    const std::uint64_t key1 = feasible1 ? top(1) : 0;
    const int side = key1 > key0 ? 1 : 0;
    const std::uint64_t key = side == 1 ? key1 : key0;
    if (key == 0 || key_gain(key) <= 0) break;

    auto& heap = s.heap[side];
    std::pop_heap(heap.begin(), heap.end());
    heap.pop_back();
    const index_t best = s.list[static_cast<std::size_t>(key_position(key))];
    b.side[static_cast<std::size_t>(best)] = 1 - side;
    if (side == 0) {
      --b.size0;
      ++b.size1;
    } else {
      ++b.size0;
      --b.size1;
    }
    s.moved[static_cast<std::size_t>(best)] = 1;
    improved = true;
    for (index_t u : g.neighbors(best)) {
      const auto ui = static_cast<std::size_t>(u);
      const index_t su = b.side[ui];
      if (su < 0) continue;
      if (s.position[ui] < 0) {
        enqueue(u, move_gain(g, b, u));
      } else if (s.moved[ui] == 0) {
        // best left side `side`: an edge to it turned from internal to
        // external for u on that side, and the reverse for u on the other.
        s.gain[ui] += su == side ? 2 : -2;
        auto& uheap = s.heap[su];
        uheap.push_back(candidate_key(s.gain[ui], s.position[ui]));
        std::push_heap(uheap.begin(), uheap.end());
      }
    }
  }

  for (index_t v : s.list) {
    s.position[static_cast<std::size_t>(v)] = -1;
    s.moved[static_cast<std::size_t>(v)] = 0;
  }
  s.list.clear();
  s.heap[0].clear();
  s.heap[1].clear();
  return improved;
}

void bisect_recursive(const Graph& g, std::vector<index_t>& verts,
                      index_t first_part, index_t nparts,
                      const PartitionOptions& opts, Rng& rng,
                      RefineScratch& scratch, std::vector<index_t>& part_out) {
  if (nparts == 1) {
    for (index_t v : verts) {
      part_out[static_cast<std::size_t>(v)] = first_part;
    }
    return;
  }
  const index_t nparts0 = nparts / 2;
  const index_t nparts1 = nparts - nparts0;
  const auto n_sub = static_cast<index_t>(verts.size());
  const auto target0 = static_cast<index_t>(
      static_cast<std::int64_t>(n_sub) * nparts0 / nparts);

  Bisection b = grow_bisection(g, verts, target0, rng);
  for (int pass = 0; pass < opts.refinement_passes; ++pass) {
    if (!refine_pass(g, verts, b, target0, opts.balance_tolerance, scratch)) {
      break;
    }
  }

  std::vector<index_t> verts0;
  std::vector<index_t> verts1;
  verts0.reserve(static_cast<std::size_t>(b.size0));
  verts1.reserve(static_cast<std::size_t>(b.size1));
  for (index_t v : verts) {
    (b.side[static_cast<std::size_t>(v)] == 0 ? verts0 : verts1).push_back(v);
  }
  verts.clear();
  verts.shrink_to_fit();
  bisect_recursive(g, verts0, first_part, nparts0, opts, rng, scratch, part_out);
  bisect_recursive(g, verts1, first_part + nparts0, nparts1, opts, rng, scratch,
                   part_out);
}

}  // namespace

std::vector<index_t> partition_graph(const Graph& g, index_t nparts,
                                     const PartitionOptions& opts) {
  FSAIC_REQUIRE(nparts >= 1, "nparts must be positive");
  FSAIC_REQUIRE(nparts <= g.num_vertices() || g.num_vertices() == 0,
                "more parts than vertices");
  std::vector<index_t> part(static_cast<std::size_t>(g.num_vertices()), 0);
  if (nparts == 1 || g.num_vertices() == 0) return part;
  std::vector<index_t> verts(static_cast<std::size_t>(g.num_vertices()));
  for (index_t v = 0; v < g.num_vertices(); ++v) {
    verts[static_cast<std::size_t>(v)] = v;
  }
  Rng rng(opts.seed);
  RefineScratch scratch(g.num_vertices());
  bisect_recursive(g, verts, 0, nparts, opts, rng, scratch, part);
  return part;
}

PartitionMetrics evaluate_partition(const Graph& g, std::span<const index_t> part,
                                    index_t nparts) {
  FSAIC_REQUIRE(part.size() == static_cast<std::size_t>(g.num_vertices()),
                "partition size mismatch");
  PartitionMetrics m;
  m.part_sizes = partition_sizes(part, nparts);
  for (index_t v = 0; v < g.num_vertices(); ++v) {
    for (index_t u : g.neighbors(v)) {
      if (u > v && part[static_cast<std::size_t>(u)] != part[static_cast<std::size_t>(v)]) {
        ++m.edge_cut;
      }
    }
  }
  const double avg =
      static_cast<double>(g.num_vertices()) / static_cast<double>(nparts);
  index_t maxsize = 0;
  for (index_t s : m.part_sizes) {
    maxsize = std::max(maxsize, s);
  }
  m.imbalance = avg > 0 ? static_cast<double>(maxsize) / avg : 1.0;
  return m;
}

std::vector<index_t> partition_permutation(std::span<const index_t> part,
                                           index_t nparts) {
  const auto sizes = partition_sizes(part, nparts);
  std::vector<index_t> start(static_cast<std::size_t>(nparts) + 1, 0);
  for (index_t p = 0; p < nparts; ++p) {
    start[static_cast<std::size_t>(p) + 1] =
        start[static_cast<std::size_t>(p)] + sizes[static_cast<std::size_t>(p)];
  }
  std::vector<index_t> perm(part.size());
  std::vector<index_t> cursor(start.begin(), start.end() - 1);
  for (std::size_t v = 0; v < part.size(); ++v) {
    perm[v] = cursor[static_cast<std::size_t>(part[v])]++;
  }
  return perm;
}

std::vector<index_t> partition_sizes(std::span<const index_t> part, index_t nparts) {
  std::vector<index_t> sizes(static_cast<std::size_t>(nparts), 0);
  for (index_t p : part) {
    FSAIC_REQUIRE(p >= 0 && p < nparts, "part id out of range");
    ++sizes[static_cast<std::size_t>(p)];
  }
  return sizes;
}

}  // namespace fsaic

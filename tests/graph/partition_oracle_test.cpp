// partition_graph against the partitioner it replaced: the same recursive
// bisection and BFS growing, but an FM refinement that rescans every
// candidate and recomputes its gain for every move. The heap-driven
// refinement must pick the same vertex at every move, so every part vector
// must be identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <string>

#include "common/rng.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "matgen/suite.hpp"

namespace fsaic {
namespace {

namespace reference {

struct Bisection {
  std::vector<index_t> side;
  index_t size0 = 0;
  index_t size1 = 0;
};

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
    index_t seed = -1;
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
  }
  return b;
}

index_t move_gain(const Graph& g, const Bisection& b, index_t v) {
  const index_t mine = b.side[static_cast<std::size_t>(v)];
  index_t external = 0;
  index_t internal = 0;
  for (index_t u : g.neighbors(v)) {
    const index_t s = b.side[static_cast<std::size_t>(u)];
    if (s < 0) continue;
    if (s == mine) {
      ++internal;
    } else {
      ++external;
    }
  }
  return external - internal;
}

/// The scanning refinement: every move rescans the whole candidate list.
bool refine_pass(const Graph& g, std::span<const index_t> verts, Bisection& b,
                 index_t target0, double tol) {
  const auto n_sub = static_cast<index_t>(verts.size());
  const index_t target1 = n_sub - target0;
  const auto lo0 = static_cast<index_t>(target0 * (1.0 - tol));
  const auto hi0 = static_cast<index_t>(target0 * (1.0 + tol)) + 1;
  const auto lo1 = static_cast<index_t>(target1 * (1.0 - tol));
  const auto hi1 = static_cast<index_t>(target1 * (1.0 + tol)) + 1;

  std::vector<bool> moved(static_cast<std::size_t>(g.num_vertices()), false);
  std::vector<bool> queued(static_cast<std::size_t>(g.num_vertices()), false);

  std::vector<index_t> candidates;
  for (index_t v : verts) {
    const index_t mine = b.side[static_cast<std::size_t>(v)];
    for (index_t u : g.neighbors(v)) {
      const index_t s = b.side[static_cast<std::size_t>(u)];
      if (s >= 0 && s != mine) {
        candidates.push_back(v);
        queued[static_cast<std::size_t>(v)] = true;
        break;
      }
    }
  }

  bool improved = false;
  while (true) {
    index_t best = -1;
    index_t best_gain = 0;
    for (index_t v : candidates) {
      if (moved[static_cast<std::size_t>(v)]) continue;
      const index_t mine = b.side[static_cast<std::size_t>(v)];
      if (mine == 0) {
        if (b.size0 - 1 < lo0 || b.size1 + 1 > hi1) continue;
      } else {
        if (b.size1 - 1 < lo1 || b.size0 + 1 > hi0) continue;
      }
      const index_t gain = move_gain(g, b, v);
      if (gain > best_gain || (gain == best_gain && gain > 0 && best < 0)) {
        best_gain = gain;
        best = v;
      }
    }
    if (best < 0 || best_gain <= 0) break;
    const index_t mine = b.side[static_cast<std::size_t>(best)];
    b.side[static_cast<std::size_t>(best)] = 1 - mine;
    if (mine == 0) {
      --b.size0;
      ++b.size1;
    } else {
      ++b.size0;
      --b.size1;
    }
    moved[static_cast<std::size_t>(best)] = true;
    improved = true;
    for (index_t u : g.neighbors(best)) {
      if (b.side[static_cast<std::size_t>(u)] >= 0 &&
          !queued[static_cast<std::size_t>(u)]) {
        candidates.push_back(u);
        queued[static_cast<std::size_t>(u)] = true;
      }
    }
  }
  return improved;
}

void bisect_recursive(const Graph& g, std::vector<index_t>& verts,
                      index_t first_part, index_t nparts,
                      const PartitionOptions& opts, Rng& rng,
                      std::vector<index_t>& part_out) {
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
    if (!refine_pass(g, verts, b, target0, opts.balance_tolerance)) break;
  }

  std::vector<index_t> verts0;
  std::vector<index_t> verts1;
  for (index_t v : verts) {
    (b.side[static_cast<std::size_t>(v)] == 0 ? verts0 : verts1).push_back(v);
  }
  verts.clear();
  bisect_recursive(g, verts0, first_part, nparts0, opts, rng, part_out);
  bisect_recursive(g, verts1, first_part + nparts0, nparts1, opts, rng, part_out);
}

std::vector<index_t> partition_graph(const Graph& g, index_t nparts,
                                     const PartitionOptions& opts = {}) {
  std::vector<index_t> part(static_cast<std::size_t>(g.num_vertices()), 0);
  if (nparts == 1 || g.num_vertices() == 0) return part;
  std::vector<index_t> verts(static_cast<std::size_t>(g.num_vertices()));
  for (index_t v = 0; v < g.num_vertices(); ++v) {
    verts[static_cast<std::size_t>(v)] = v;
  }
  Rng rng(opts.seed);
  bisect_recursive(g, verts, 0, nparts, opts, rng, part);
  return part;
}

}  // namespace reference

/// The heap refinement and the oracle must give the same part vector.
void expect_same_parts(const Graph& g, index_t nparts, const std::string& what,
                       const PartitionOptions& opts = {}) {
  const auto part = partition_graph(g, nparts, opts);
  const auto expected = reference::partition_graph(g, nparts, opts);
  EXPECT_EQ(part, expected) << what << " at " << nparts << " parts";
}

TEST(PartitionOracleTest, EverySuiteMatrixAtEightParts) {
  std::vector<const SuiteEntry*> entries;
  for (const auto& e : small_suite()) entries.push_back(&e);
  for (const auto& e : large_suite()) entries.push_back(&e);
  ASSERT_EQ(entries.size(), 47U);
  for (const SuiteEntry* e : entries) {
    const Graph g = Graph::from_pattern(e->generate().pattern());
    expect_same_parts(g, 8, e->paper_name);
  }
}

TEST(PartitionOracleTest, LargeOperatorsAtManyPartCounts) {
  for (const char* name :
       {"G3_circuit", "Queen_4147", "Bump_2911", "audikw_1", "thermal2"}) {
    const Graph g = Graph::from_pattern(suite_entry(name).generate().pattern());
    for (index_t nparts : {2, 3, 5, 16, 64}) {
      expect_same_parts(g, nparts, name);
    }
  }
}

/// Random graph: `n` vertices, each with up to `degree` random neighbours
/// within `window` of its own index (0: anywhere), plus isolated vertices
/// when `isolated` so that BFS growing has to reseed.
Graph random_graph(index_t n, index_t degree, index_t window, bool isolated,
                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<index_t>> rows(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    if (isolated && rng.next_index(10) == 0) continue;
    const index_t k = 1 + rng.next_index(degree);
    for (index_t e = 0; e < k; ++e) {
      index_t j;
      if (window > 0) {
        const index_t lo = std::max<index_t>(0, i - window);
        const index_t hi = std::min<index_t>(n - 1, i + window);
        j = lo + rng.next_index(hi - lo + 1);
      } else {
        j = rng.next_index(n);
      }
      rows[static_cast<std::size_t>(i)].push_back(j);
    }
  }
  return Graph::from_pattern(SparsityPattern::from_rows(n, n, std::move(rows)));
}

TEST(PartitionOracleTest, SeededRandomGraphs) {
  std::uint64_t seed = 1;
  for (const index_t nparts : {2, 3, 4, 5, 7, 8, 11, 16, 31, 32, 64}) {
    for (const index_t window : {0, 20, 200}) {
      for (const bool isolated : {false, true}) {
        const index_t n = 600 + static_cast<index_t>(seed % 7) * 170;
        const Graph g = random_graph(n, 6, window, isolated, seed);
        PartitionOptions opts;
        opts.seed = seed;
        expect_same_parts(g, nparts,
                          "random graph seed " + std::to_string(seed), opts);
        ++seed;
      }
    }
  }
}

TEST(PartitionOracleTest, NonDefaultRefinementSettings) {
  const Graph g = random_graph(2000, 5, 40, false, 99);
  for (const double tol : {0.0, 0.02, 0.1, 0.3}) {
    for (const int passes : {1, 3, 8}) {
      PartitionOptions opts;
      opts.balance_tolerance = tol;
      opts.refinement_passes = passes;
      expect_same_parts(g, 6,
                        "tol " + std::to_string(tol) + " passes " +
                            std::to_string(passes),
                        opts);
    }
  }
}

}  // namespace
}  // namespace fsaic

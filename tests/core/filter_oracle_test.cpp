// static_filter and dynamic_filter against the filter they replaced, which
// tested every entry with a binary search of the base pattern and recounted
// a rank's whole rows at every doubling and bisection step. Patterns,
// per-rank filters and entry counts, bisection counts and allreduces must
// all be identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>

#include "common/rng.hpp"
#include "core/filtering.hpp"
#include "core/fsai.hpp"
#include "core/fsai_driver.hpp"
#include "core/pattern_extend.hpp"
#include "matgen/generators.hpp"
#include "matgen/suite.hpp"

namespace fsaic {
namespace {

namespace reference {

bool survives(index_t i, index_t j, value_t v, value_t f,
              const SparsityPattern& base, std::span<const value_t> diag,
              const FilterOptions& options) {
  if (i == j) return true;
  if (options.only_added_entries && base.contains(i, j)) return true;
  if (f <= 0.0) return true;
  const value_t scale = std::sqrt(std::abs(diag[static_cast<std::size_t>(i)] *
                                           diag[static_cast<std::size_t>(j)]));
  return std::abs(v) >= f * scale;
}

offset_t count_surviving(const CsrMatrix& g_ext, const SparsityPattern& base,
                         const Layout& layout, rank_t p, value_t f,
                         std::span<const value_t> diag,
                         const FilterOptions& options) {
  offset_t count = 0;
  for (index_t i = layout.begin(p); i < layout.end(p); ++i) {
    const auto cols = g_ext.row_cols(i);
    const auto vals = g_ext.row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (survives(i, cols[k], vals[k], f, base, diag, options)) ++count;
    }
  }
  return count;
}

FilterOutcome assemble(const CsrMatrix& g_ext, const SparsityPattern& base,
                       const Layout& layout, std::vector<value_t> rank_filter,
                       std::span<const value_t> diag,
                       const FilterOptions& options) {
  const index_t n = g_ext.rows();
  std::vector<offset_t> row_ptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<index_t> col_idx;
  FilterOutcome out;
  out.rank_entries.assign(static_cast<std::size_t>(layout.nranks()), 0);
  for (rank_t p = 0; p < layout.nranks(); ++p) {
    const value_t f = rank_filter[static_cast<std::size_t>(p)];
    for (index_t i = layout.begin(p); i < layout.end(p); ++i) {
      const auto cols = g_ext.row_cols(i);
      const auto vals = g_ext.row_vals(i);
      for (std::size_t k = 0; k < cols.size(); ++k) {
        if (survives(i, cols[k], vals[k], f, base, diag, options)) {
          col_idx.push_back(cols[k]);
          ++out.rank_entries[static_cast<std::size_t>(p)];
        }
      }
      row_ptr[static_cast<std::size_t>(i) + 1] = static_cast<offset_t>(col_idx.size());
    }
  }
  out.pattern = SparsityPattern(n, n, std::move(row_ptr), std::move(col_idx));
  out.rank_filter = std::move(rank_filter);
  return out;
}

FilterOutcome static_filter(const CsrMatrix& g_ext, const SparsityPattern& base,
                            const Layout& layout, const FilterOptions& options) {
  const auto diag = g_ext.diagonal();
  std::vector<value_t> filters(static_cast<std::size_t>(layout.nranks()),
                               options.filter);
  return assemble(g_ext, base, layout, std::move(filters), diag, options);
}

/// The scanning dynamic filter; `visited` (when non-null) receives every
/// filter value a doubling or bisection step counts at.
FilterOutcome dynamic_filter(const CsrMatrix& g_ext, const SparsityPattern& base,
                             const Layout& layout, const FilterOptions& options,
                             CommStats* stats,
                             std::vector<value_t>* visited = nullptr) {
  const auto diag = g_ext.diagonal();
  const rank_t nranks = layout.nranks();
  std::vector<value_t> filters(static_cast<std::size_t>(nranks), options.filter);
  std::vector<offset_t> counts(static_cast<std::size_t>(nranks), 0);
  int bisections = 0;
  const auto count_at = [&](rank_t p, value_t f) {
    if (visited != nullptr) visited->push_back(f);
    return count_surviving(g_ext, base, layout, p, f, diag, options);
  };

  for (int round = 0; round < options.rebalance_rounds; ++round) {
    offset_t total = 0;
    for (rank_t p = 0; p < nranks; ++p) {
      counts[static_cast<std::size_t>(p)] = count_surviving(
          g_ext, base, layout, p, filters[static_cast<std::size_t>(p)], diag,
          options);
      total += counts[static_cast<std::size_t>(p)];
    }
    if (stats != nullptr) stats->record_allreduce(sizeof(offset_t));

    const double avg = static_cast<double>(total) / static_cast<double>(nranks);
    const double target_hi = avg * (1.0 + options.imbalance_tolerance);
    bool any_overloaded = false;

    for (rank_t p = 0; p < nranks; ++p) {
      if (static_cast<double>(counts[static_cast<std::size_t>(p)]) <= target_hi) {
        continue;
      }
      any_overloaded = true;
      value_t lo = filters[static_cast<std::size_t>(p)];
      value_t hi = lo > 0.0 ? lo : 1e-8;
      int steps = 0;
      offset_t hi_count = counts[static_cast<std::size_t>(p)];
      while (steps < options.max_bisection_steps) {
        hi *= 2.0;
        ++steps;
        ++bisections;
        hi_count = count_at(p, hi);
        if (static_cast<double>(hi_count) <= target_hi) break;
      }
      while (steps < options.max_bisection_steps && hi - lo > 1e-12 * hi) {
        const value_t mid = 0.5 * (lo + hi);
        ++steps;
        ++bisections;
        const offset_t mid_count = count_at(p, mid);
        if (static_cast<double>(mid_count) <= target_hi) {
          hi = mid;
          hi_count = mid_count;
        } else {
          lo = mid;
        }
      }
      filters[static_cast<std::size_t>(p)] = hi;
      counts[static_cast<std::size_t>(p)] = hi_count;
    }
    if (!any_overloaded) break;
  }

  FilterOutcome out =
      assemble(g_ext, base, layout, std::move(filters), diag, options);
  out.bisection_iterations = bisections;
  return out;
}

}  // namespace reference

/// Same bits, counts and collectives; rank filters compared as bit patterns
/// so that -0, NaN and ulp differences all show.
void expect_same_outcome(const FilterOutcome& got, const FilterOutcome& want,
                         const std::string& what) {
  EXPECT_EQ(got.pattern, want.pattern) << what;
  EXPECT_EQ(got.rank_entries, want.rank_entries) << what;
  EXPECT_EQ(got.bisection_iterations, want.bisection_iterations) << what;
  ASSERT_EQ(got.rank_filter.size(), want.rank_filter.size()) << what;
  for (std::size_t p = 0; p < got.rank_filter.size(); ++p) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.rank_filter[p]),
              std::bit_cast<std::uint64_t>(want.rank_filter[p]))
        << what << " rank " << p << ": " << got.rank_filter[p] << " vs "
        << want.rank_filter[p];
  }
}

void expect_same_filters(const CsrMatrix& g_ext, const SparsityPattern& base,
                         const Layout& layout, const FilterOptions& options,
                         const std::string& what) {
  expect_same_outcome(static_filter(g_ext, base, layout, options),
                      reference::static_filter(g_ext, base, layout, options),
                      what + " static");
  CommStats stats;
  CommStats ref_stats;
  expect_same_outcome(
      dynamic_filter(g_ext, base, layout, options, &stats),
      reference::dynamic_filter(g_ext, base, layout, options, &ref_stats),
      what + " dynamic");
  EXPECT_EQ(stats.allreduce_count, ref_stats.allreduce_count) << what;
  EXPECT_EQ(stats.allreduce_bytes, ref_stats.allreduce_bytes) << what;
}

/// FSAIE-Comm's unfiltered factor of a suite operator partitioned over 8
/// ranks, as build_fsai_preconditioner computes it before filtering.
struct Extended {
  Layout layout;
  SparsityPattern base;
  CsrMatrix g_ext;
};

Extended extended_factor(const CsrMatrix& a, const Layout& layout) {
  Extended e;
  e.layout = layout;
  e.base = fsai_base_pattern(a, 1, 0.0);
  const auto ext =
      extend_pattern(e.base, layout, 64, ExtensionMode::CommAware);
  e.g_ext = compute_fsai_factor(a, ext.extended);
  return e;
}

void expect_same_filters_everywhere(const Extended& e, const std::string& what) {
  for (const bool only_added : {true, false}) {
    for (const value_t filter : {0.01, 0.05, 0.1, 0.2}) {
      FilterOptions opts;
      opts.filter = filter;
      opts.only_added_entries = only_added;
      expect_same_filters(e.g_ext, e.base, e.layout, opts,
                          what + (only_added ? " added-only" : " all-entries") +
                              " F=" + std::to_string(filter));
    }
  }
}

class SuiteFilterOracle : public ::testing::TestWithParam<const char*> {};

TEST_P(SuiteFilterOracle, SameOutcomesAtEveryFilterAndScope) {
  const PartitionedSystem sys = partition_system(
      suite_entry(GetParam()).generate(), 8);
  expect_same_filters_everywhere(extended_factor(sys.matrix, sys.layout),
                                 GetParam());
}

INSTANTIATE_TEST_SUITE_P(Operators, SuiteFilterOracle,
                         ::testing::Values("G3_circuit", "Queen_4147",
                                           "parabolic_fem"));

TEST(FilterOracleTest, SkewedLayout) {
  // Rank 0 owns 3/4 of the rows, so it is overloaded at every filter.
  const auto a = poisson2d(40, 40);
  const index_t n = a.rows();
  const Extended e =
      extended_factor(a, Layout({0, 3 * n / 4, 7 * n / 8, n}));
  expect_same_filters_everywhere(e, "skewed");
}

SparsityPattern diagonal_pattern(index_t n) {
  std::vector<std::vector<index_t>> rows(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) rows[static_cast<std::size_t>(i)] = {i};
  return SparsityPattern::from_rows(n, n, std::move(rows));
}

/// Rank 0 of a crafted factor holds, for every filter value in `at`,
/// entries exactly at f * scale, one ulp above and one ulp below it, plus
/// zero and subnormal values; rank 1 holds only diagonals, so rank 0 is
/// overloaded and bisects. Diagonals vary so that the scales are inexact.
CsrMatrix crafted_factor(index_t rows0, index_t rows1,
                         std::span<const value_t> at, value_t diag_scale,
                         std::uint64_t seed) {
  Rng rng(seed);
  const index_t n = rows0 + rows1;
  std::vector<value_t> diag(static_cast<std::size_t>(n));
  for (auto& d : diag) d = diag_scale * (1.0 + 9.0 * rng.next_uniform());
  std::vector<offset_t> row_ptr{0};
  std::vector<index_t> col_idx;
  std::vector<value_t> values;
  std::size_t next = 0;
  for (index_t i = 0; i < n; ++i) {
    if (i < rows0) {
      for (index_t j = 0; j < i; ++j) {
        const value_t scale = std::sqrt(std::abs(
            diag[static_cast<std::size_t>(i)] * diag[static_cast<std::size_t>(j)]));
        value_t v = 0.0;
        const auto kind = rng.next_index(8);
        if (kind == 0) {
          v = 0.0;
        } else if (kind == 1) {
          v = std::numeric_limits<value_t>::denorm_min() *
              static_cast<value_t>(1 + rng.next_index(1000));
        } else if (kind == 2 || at.empty()) {
          v = scale * std::exp(-12.0 * rng.next_uniform());
        } else {
          const value_t exact = at[next++ % at.size()] * scale;
          v = kind == 4   ? std::nextafter(exact, 0.0)
              : kind == 5 ? std::nextafter(exact, 1e300)
                          : exact;
        }
        col_idx.push_back(j);
        values.push_back(rng.next_index(2) == 0 ? v : -v);
      }
    }
    col_idx.push_back(i);
    values.push_back(diag[static_cast<std::size_t>(i)]);
    row_ptr.push_back(static_cast<offset_t>(col_idx.size()));
  }
  return CsrMatrix(n, n, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

TEST(FilterOracleTest, EntriesAtTheFilterValuesTheBisectionVisits) {
  struct Case {
    value_t filter;
    value_t diag_scale;  ///< diagonals in [1, 10) * diag_scale
  };
  // Normal scales; scales so small that f * scale is subnormal or
  // underflows to zero; and a zero filter, which starts doubling at 1e-8.
  for (const Case c : {Case{0.01, 1.0}, Case{1e-170, 1e-150},
                       Case{1e-3, 1e-160}, Case{0.0, 3.0}}) {
    const index_t rows0 = 60;
    const index_t rows1 = 40;
    const Layout layout({0, rows0, rows0 + rows1});
    FilterOptions opts;
    opts.filter = c.filter;
    const SparsityPattern diag_only = diagonal_pattern(rows0 + rows1);
    // A first factor decides which filters the bisection visits; the
    // second puts entries at exactly those filters.
    std::vector<value_t> visited;
    (void)reference::dynamic_filter(
        crafted_factor(rows0, rows1, {}, c.diag_scale, 7), diag_only, layout,
        opts, nullptr, &visited);
    ASSERT_FALSE(visited.empty());
    const CsrMatrix g = crafted_factor(rows0, rows1, visited, c.diag_scale, 7);

    std::vector<value_t> revisited;
    (void)reference::dynamic_filter(g, diag_only, layout, opts, nullptr,
                                    &revisited);
    offset_t exact_hits = 0;
    const auto diag = g.diagonal();
    for (index_t i = 0; i < rows0; ++i) {
      const auto cols = g.row_cols(i);
      const auto vals = g.row_vals(i);
      for (std::size_t k = 0; k + 1 < cols.size(); ++k) {
        const value_t scale = std::sqrt(std::abs(
            diag[static_cast<std::size_t>(i)] *
            diag[static_cast<std::size_t>(cols[k])]));
        for (const value_t f : revisited) {
          if (std::abs(vals[k]) == f * scale) ++exact_hits;
        }
      }
    }
    EXPECT_GT(exact_hits, 0) << "filter " << c.filter;

    // Only the diagonal is protected here, so every off-diagonal entry is a
    // candidate in both scopes.
    for (const bool only_added : {true, false}) {
      opts.only_added_entries = only_added;
      expect_same_filters(g, diag_only, layout, opts,
                          "crafted F=" + std::to_string(c.filter));
      for (const value_t f : revisited) {
        FilterOptions at_f = opts;
        at_f.filter = f;
        expect_same_outcome(static_filter(g, diag_only, layout, at_f),
                            reference::static_filter(g, diag_only, layout, at_f),
                            "crafted static at a visited filter");
      }
    }
  }
}

TEST(FilterOracleTest, NonFiniteValuesAndScales) {
  // Infinite, NaN and zero diagonals and values: survival stays monotone in
  // the filter, so counting by sorted thresholds must still be exact.
  const value_t inf = std::numeric_limits<value_t>::infinity();
  const value_t nan = std::numeric_limits<value_t>::quiet_NaN();
  const std::vector<value_t> specials{0.0, -0.0, inf, -inf, nan, 1e-320,
                                      1e308, 1.0};
  const index_t rows0 = 40;
  const index_t n = rows0 + 10;
  Rng rng(3);
  std::vector<offset_t> row_ptr{0};
  std::vector<index_t> col_idx;
  std::vector<value_t> values;
  for (index_t i = 0; i < n; ++i) {
    if (i < rows0) {
      for (index_t j = 0; j < i; ++j) {
        col_idx.push_back(j);
        values.push_back(rng.next_index(3) == 0
                             ? specials[static_cast<std::size_t>(
                                   rng.next_index(8))]
                             : rng.next_uniform());
      }
    }
    col_idx.push_back(i);
    values.push_back(i % 7 == 0 ? specials[static_cast<std::size_t>(i / 7 % 8)]
                                : 1.0 + rng.next_uniform());
    row_ptr.push_back(static_cast<offset_t>(col_idx.size()));
  }
  const CsrMatrix g(n, n, std::move(row_ptr), std::move(col_idx),
                    std::move(values));
  const SparsityPattern diag_only = diagonal_pattern(n);
  for (const value_t filter : {0.0, 1e-300, 0.01, 0.3, 1e300}) {
    FilterOptions opts;
    opts.filter = filter;
    expect_same_filters(g, diag_only, Layout({0, rows0, n}), opts,
                        "non-finite F=" + std::to_string(filter));
  }
}

}  // namespace
}  // namespace fsaic

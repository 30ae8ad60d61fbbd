// The row- and rank-parallel set-up stages against the whole-matrix code
// they replace: the base pattern against lower_triangle().with_full_diagonal()
// of A's pattern, and the extension against the CommScheme-based
// extend_pattern kept below, under the sequential executor and 2- and
// 3-thread teams. Every pattern and counter must be identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "core/fsai.hpp"
#include "core/fsai_driver.hpp"
#include "core/pattern_extend.hpp"
#include "dist/comm_scheme.hpp"
#include "exec/executor.hpp"
#include "exec/threaded_executor.hpp"
#include "matgen/generators.hpp"
#include "matgen/suite.hpp"
#include "sparse/coo.hpp"
#include "sparse/ops.hpp"

namespace fsaic {
namespace {

namespace reference {

/// extend_pattern before the rank-local rule: the G x and G^T x schemes
/// built as hash sets over the whole pattern and its transpose, one row
/// vector per row, sorted at the end.
ExtensionResult extend_pattern(const SparsityPattern& s, const Layout& layout,
                               int cache_line_bytes, ExtensionMode mode) {
  if (mode == ExtensionMode::None) {
    return {s, 0, 0};
  }
  const auto entries_per_line =
      static_cast<index_t>(cache_line_bytes / sizeof(value_t));
  const index_t n = s.rows();
  CommScheme scheme_g;
  CommScheme scheme_gt;
  if (mode == ExtensionMode::CommAware) {
    scheme_g = CommScheme::from_pattern(s, layout);
    scheme_gt = CommScheme::from_pattern(s.transposed(), layout);
  }
  ExtensionResult result;
  std::vector<std::vector<index_t>> rows_out(static_cast<std::size_t>(n));
  std::vector<index_t> last_row_touch(static_cast<std::size_t>(n), -1);
  for (index_t i = 0; i < n; ++i) {
    const rank_t p = layout.owner(i);
    const auto base = s.row(i);
    auto& out = rows_out[static_cast<std::size_t>(i)];
    out.assign(base.begin(), base.end());
    for (index_t j : base) last_row_touch[static_cast<std::size_t>(j)] = i;
    index_t prev_block = -1;
    for (index_t j : base) {
      const index_t block = j / entries_per_line;
      if (block == prev_block) continue;
      prev_block = block;
      const index_t k_begin = block * entries_per_line;
      const index_t k_end = std::min<index_t>(k_begin + entries_per_line, n);
      for (index_t k = k_begin; k < k_end; ++k) {
        if (k > i) break;
        if (last_row_touch[static_cast<std::size_t>(k)] == i) continue;
        bool admit = false;
        if (layout.owns(p, k)) {
          admit = true;
          ++result.local_added;
        } else {
          admit = mode == ExtensionMode::FullHalo ||
                  (mode == ExtensionMode::CommAware &&
                   scheme_g.receives(p, k) &&
                   scheme_gt.receives(layout.owner(k), i));
          if (admit) ++result.halo_added;
        }
        if (admit) {
          out.push_back(k);
          last_row_touch[static_cast<std::size_t>(k)] = i;
        }
      }
    }
  }
  result.extended = SparsityPattern::from_rows(n, n, std::move(rows_out));
  return result;
}

}  // namespace reference

/// The executors every stage is checked on: sequential, and teams of 2 and
/// 3 threads (3 splits most rank counts unevenly).
struct Executors {
  SeqExecutor seq;
  ThreadedExecutor two{2};
  ThreadedExecutor three{3};

  [[nodiscard]] std::vector<std::pair<std::string, Executor*>> all() {
    return {{"seq", &seq}, {"2 threads", &two}, {"3 threads", &three}};
  }
};

Executors& executors() {
  static Executors e;
  return e;
}

/// A square nonsymmetric matrix with `density` entries per row on average;
/// every third row misses its diagonal and every fifth row has entries
/// above the diagonal only. Some values are explicit zeros.
CsrMatrix irregular_matrix(index_t n, index_t density, std::uint64_t seed) {
  Rng rng(seed);
  CooBuilder coo(n, n);
  for (index_t i = 0; i < n; ++i) {
    const bool upper_only = i % 5 == 4;
    if (i % 3 != 0 && !upper_only) coo.add(i, i, 4.0 + rng.next_uniform());
    for (index_t k = 0; k < density; ++k) {
      const index_t j = rng.next_index(n);
      if (upper_only && j <= i) continue;
      coo.add(i, j, rng.next_index(7) == 0 ? 0.0 : rng.next_uniform(-1.0, 1.0));
    }
  }
  return coo.to_csr();
}

TEST(BasePatternTest, MatchesLowerTriangleWithFullDiagonal) {
  std::vector<std::pair<std::string, CsrMatrix>> cases;
  cases.emplace_back("poisson3d", poisson3d(6, 5, 4));
  cases.emplace_back("irregular", irregular_matrix(300, 6, 3));
  cases.emplace_back("irregular dense", irregular_matrix(97, 30, 5));
  cases.emplace_back("empty", CsrMatrix(SparsityPattern(0, 0)));
  cases.emplace_back("no entries", CsrMatrix(SparsityPattern(17, 17)));
  for (const auto& [name, a] : cases) {
    const SparsityPattern want = a.pattern().lower_triangle().with_full_diagonal();
    const SparsityPattern want2 =
        a.pattern().symbolic_power(2).lower_triangle().with_full_diagonal();
    const SparsityPattern want_tau =
        threshold(a, 0.3).pattern().lower_triangle().with_full_diagonal();
    for (const auto& [ename, exec] : executors().all()) {
      SCOPED_TRACE(name + " on " + ename);
      EXPECT_EQ(fsai_base_pattern(a, 1, 0.0, exec), want);
      EXPECT_EQ(fsai_base_pattern(a, 2, 0.0, exec), want2);
      EXPECT_EQ(fsai_base_pattern(a, 1, 0.3, exec), want_tau);
    }
  }
}

void expect_same_extension(const SparsityPattern& s, const Layout& layout,
                           const std::string& what) {
  for (const ExtensionMode mode :
       {ExtensionMode::None, ExtensionMode::LocalOnly, ExtensionMode::CommAware,
        ExtensionMode::FullHalo}) {
    for (const int line : {16, 64, 256}) {
      const ExtensionResult want =
          reference::extend_pattern(s, layout, line, mode);
      for (const auto& [ename, exec] : executors().all()) {
        SCOPED_TRACE(what + " " + to_string(mode) + " " +
                     std::to_string(line) + " B on " + ename);
        const ExtensionResult got = extend_pattern(s, layout, line, mode, exec);
        EXPECT_EQ(got.extended, want.extended);
        EXPECT_EQ(got.local_added, want.local_added);
        EXPECT_EQ(got.halo_added, want.halo_added);
      }
    }
  }
}

TEST(ExtensionOracleTest, BlockedLayouts) {
  const CsrMatrix a = poisson3d(7, 6, 5);
  const SparsityPattern s = fsai_base_pattern(a, 1, 0.0);
  expect_same_extension(s, Layout::blocked(a.rows(), 4), "poisson3d blocked");
  expect_same_extension(s, Layout::blocked(a.rows(), 1), "poisson3d single rank");
  const CsrMatrix r = irregular_matrix(240, 5, 11);
  const SparsityPattern rs = fsai_base_pattern(r, 1, 0.0);
  expect_same_extension(rs, Layout::blocked(r.rows(), 7), "irregular blocked");
}

TEST(ExtensionOracleTest, PartitionedLayout) {
  const PartitionedSystem sys =
      partition_system(suite_entry("parabolic_fem").generate(), 8);
  expect_same_extension(fsai_base_pattern(sys.matrix, 1, 0.0), sys.layout,
                        "parabolic_fem partitioned");
}

TEST(ExtensionOracleTest, EmptyRanks) {
  // Empty ranks first, in the middle and last.
  const CsrMatrix a = poisson2d(15, 14);
  const index_t n = a.rows();
  const Layout layout({0, 0, n / 3, n / 3, n / 2, n, n});
  expect_same_extension(fsai_base_pattern(a, 1, 0.0), layout,
                        "poisson2d empty ranks");
  const CsrMatrix r = irregular_matrix(200, 4, 17);
  expect_same_extension(fsai_base_pattern(r, 1, 0.0),
                        Layout({0, 50, 50, 120, 200, 200}),
                        "irregular empty ranks");
}

TEST(ExtensionOracleTest, DriverBuildIsExecutorInvariant) {
  // The whole build on every executor: same factor bits and counters.
  const PartitionedSystem sys =
      partition_system(suite_entry("thermal2").generate(), 8);
  FsaiOptions opts;
  opts.extension = ExtensionMode::CommAware;
  opts.filter = 0.05;
  opts.filter_strategy = FilterStrategy::Dynamic;
  SeqExecutor seq;
  opts.exec = &seq;
  const FsaiBuildResult want = build_fsai_preconditioner(sys.matrix, sys.layout, opts);
  for (const auto& [ename, exec] : executors().all()) {
    SCOPED_TRACE(ename);
    opts.exec = exec;
    const FsaiBuildResult got =
        build_fsai_preconditioner(sys.matrix, sys.layout, opts);
    EXPECT_EQ(got.g.pattern(), want.g.pattern());
    EXPECT_TRUE(std::equal(got.g.values().begin(), got.g.values().end(),
                           want.g.values().begin(), want.g.values().end()));
    EXPECT_EQ(got.final_pattern, want.final_pattern);
    EXPECT_EQ(got.rank_filter, want.rank_filter);
    EXPECT_EQ(got.dynamic_bisection_iterations, want.dynamic_bisection_iterations);
    EXPECT_EQ(got.factor_stats, want.factor_stats);
    EXPECT_EQ(got.provisional_factor_stats, want.provisional_factor_stats);
    EXPECT_EQ(got.setup_comm.allreduce_count, want.setup_comm.allreduce_count);
  }
}

}  // namespace
}  // namespace fsaic

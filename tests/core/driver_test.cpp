#include "core/fsai_driver.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "dist/comm_scheme.hpp"
#include "exec/exec_policy.hpp"
#include "exec/executor.hpp"
#include "matgen/generators.hpp"
#include "solver/pcg.hpp"
#include "sparse/ops.hpp"
#include "sparse/vector_ops.hpp"

namespace fsaic {
namespace {

DistVector random_rhs(const Layout& l, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<value_t> bg(static_cast<std::size_t>(l.global_size()));
  for (auto& v : bg) v = rng.next_uniform(-1.0, 1.0);
  return DistVector(l, bg);
}

SolveResult solve_with(const CsrMatrix& a, const Layout& layout,
                       const FsaiOptions& opts, int max_iters = 5000) {
  const auto build = build_fsai_preconditioner(a, layout, opts);
  const auto precond = make_factorized_preconditioner(build, "test");
  const auto a_dist = DistCsr::distribute(a, layout);
  const auto b = random_rhs(layout, 99);
  DistVector x(layout);
  return pcg_solve(a_dist, b, x, *precond,
                   {.rel_tol = 1e-8, .max_iterations = max_iters});
}

TEST(DriverTest, FsaiBeatsUnpreconditionedCg) {
  const auto a = poisson2d(24, 24);
  const Layout l = Layout::blocked(a.rows(), 4);
  const auto a_dist = DistCsr::distribute(a, l);
  const auto b = random_rhs(l, 99);

  DistVector x(l);
  const auto plain = cg_solve(a_dist, b, x, {.rel_tol = 1e-8, .max_iterations = 5000});
  const auto fsai = solve_with(a, l, FsaiOptions{});
  ASSERT_TRUE(plain.converged);
  ASSERT_TRUE(fsai.converged);
  EXPECT_LT(fsai.iterations, plain.iterations);
}

TEST(DriverTest, ExtensionReducesIterations) {
  const auto a = poisson2d(24, 24);
  const Layout l = Layout::blocked(a.rows(), 4);

  FsaiOptions fsai_opts;
  const auto base = solve_with(a, l, fsai_opts);

  FsaiOptions comm_opts;
  comm_opts.extension = ExtensionMode::CommAware;
  comm_opts.cache_line_bytes = 256;
  const auto comm = solve_with(a, l, comm_opts);

  ASSERT_TRUE(base.converged);
  ASSERT_TRUE(comm.converged);
  EXPECT_LT(comm.iterations, base.iterations);
}

TEST(DriverTest, CommAwareAtLeastAsRichAsLocalOnly) {
  const auto a = poisson2d(20, 20);
  const Layout l = Layout::blocked(a.rows(), 8);
  FsaiOptions opts;
  opts.cache_line_bytes = 256;

  opts.extension = ExtensionMode::LocalOnly;
  const auto fsaie = build_fsai_preconditioner(a, l, opts);
  opts.extension = ExtensionMode::CommAware;
  const auto comm = build_fsai_preconditioner(a, l, opts);

  EXPECT_GE(comm.final_pattern.nnz(), fsaie.final_pattern.nnz());
  EXPECT_GE(comm.nnz_increase_pct, fsaie.nnz_increase_pct);
}

TEST(DriverTest, CommSchemeOfBuiltFactorsIsInvariant) {
  const auto a = poisson2d(18, 18);
  const Layout l = Layout::blocked(a.rows(), 6);
  FsaiOptions opts;
  opts.extension = ExtensionMode::CommAware;
  opts.cache_line_bytes = 256;
  const auto fsai = build_fsai_preconditioner(
      a, l, FsaiOptions{});  // plain baseline
  const auto comm = build_fsai_preconditioner(a, l, opts);

  // The distributed G of FSAIE-Comm must move exactly the coefficients the
  // plain FSAI scheme moves — byte-identical halo updates.
  EXPECT_EQ(comm.g_dist.halo_update_bytes(), fsai.g_dist.halo_update_bytes());
  EXPECT_EQ(comm.g_dist.halo_update_messages(), fsai.g_dist.halo_update_messages());
  EXPECT_EQ(comm.gt_dist.halo_update_bytes(), fsai.gt_dist.halo_update_bytes());
  EXPECT_EQ(comm.gt_dist.halo_update_messages(),
            fsai.gt_dist.halo_update_messages());
}

TEST(DriverTest, PreconditionedSolutionIsCorrect) {
  const auto a = poisson2d(16, 16);
  const Layout l = Layout::blocked(a.rows(), 4);
  FsaiOptions opts;
  opts.extension = ExtensionMode::CommAware;
  const auto build = build_fsai_preconditioner(a, l, opts);
  const auto precond = make_factorized_preconditioner(build, "comm");
  const auto a_dist = DistCsr::distribute(a, l);
  const auto b = random_rhs(l, 42);
  DistVector x(l);
  const auto r = pcg_solve(a_dist, b, x, *precond,
                           {.rel_tol = 1e-10, .max_iterations = 2000});
  ASSERT_TRUE(r.converged);
  // Verify against the true residual, not just the recurrence.
  const auto xg = x.to_global();
  const auto bg = b.to_global();
  std::vector<value_t> res(static_cast<std::size_t>(a.rows()));
  spmv(a, xg, res);
  for (std::size_t i = 0; i < res.size(); ++i) {
    res[i] = bg[i] - res[i];
  }
  EXPECT_LE(norm2(res), 1e-8 * norm2(bg));
}

TEST(DriverTest, FilteringReportsReducedNnzIncrease) {
  const auto a = poisson2d(20, 20);
  const Layout l = Layout::blocked(a.rows(), 4);
  FsaiOptions opts;
  opts.extension = ExtensionMode::CommAware;
  opts.cache_line_bytes = 256;

  const auto unfiltered = build_fsai_preconditioner(a, l, opts);
  opts.filter = 0.05;
  const auto filtered = build_fsai_preconditioner(a, l, opts);
  EXPECT_LT(filtered.nnz_increase_pct, unfiltered.nnz_increase_pct);
  EXPECT_GE(filtered.nnz_increase_pct, 0.0);
}

TEST(DriverTest, GtDistIsTransposeOfGDist) {
  const auto a = poisson2d(10, 10);
  const Layout l = Layout::blocked(a.rows(), 3);
  FsaiOptions opts;
  opts.extension = ExtensionMode::CommAware;
  const auto build = build_fsai_preconditioner(a, l, opts);
  const auto gt = build.gt_dist.to_global();
  const auto g = build.g_dist.to_global();
  ASSERT_EQ(gt.nnz(), g.nnz());
  for (index_t i = 0; i < g.rows(); ++i) {
    for (index_t j : g.row_cols(i)) {
      EXPECT_DOUBLE_EQ(gt.at(j, i), g.at(i, j));
    }
  }
}

TEST(DriverTest, ThreadedFactorDistributionMatchesSerial) {
  // The build's executor also distributes G and G^T rank by rank; the
  // blocks and both imbalance indices must not depend on it.
  const auto a = poisson2d(24, 24);
  const Layout l({0, 100, 300, 301, 576});
  FsaiOptions opts;
  opts.extension = ExtensionMode::CommAware;
  opts.cache_line_bytes = 128;
  opts.filter = 0.05;
  opts.filter_strategy = FilterStrategy::Dynamic;
  SeqExecutor seq;
  opts.exec = &seq;
  const auto serial = build_fsai_preconditioner(a, l, opts);
  const auto team = make_executor({.nthreads = 3});
  opts.exec = team.get();
  const auto threaded = build_fsai_preconditioner(a, l, opts);

  for (rank_t p = 0; p < l.nranks(); ++p) {
    for (const auto& [got, want] :
         {std::pair{&threaded.g_dist, &serial.g_dist},
          std::pair{&threaded.gt_dist, &serial.gt_dist}}) {
      const RankBlock& g = got->block(p);
      const RankBlock& w = want->block(p);
      EXPECT_EQ(g.matrix.pattern(), w.matrix.pattern()) << "rank " << p;
      EXPECT_TRUE(std::ranges::equal(g.matrix.values(), w.matrix.values()))
          << "rank " << p;
      EXPECT_EQ(g.ghost_gids, w.ghost_gids) << "rank " << p;
      EXPECT_EQ(g.interior_rows, w.interior_rows) << "rank " << p;
      EXPECT_EQ(g.boundary_rows, w.boundary_rows) << "rank " << p;
    }
  }
  // Both indices count each rank's rows of G and of G^T.
  EXPECT_EQ(serial.imbalance_g,
            imbalance_index(rank_entry_counts(serial.final_pattern, l)));
  EXPECT_EQ(serial.imbalance_gt,
            imbalance_index(
                rank_entry_counts(serial.final_pattern.transposed(), l)));
  EXPECT_LT(serial.imbalance_gt, 1.0);
  EXPECT_EQ(threaded.imbalance_g, serial.imbalance_g);
  EXPECT_EQ(threaded.imbalance_gt, serial.imbalance_gt);
}

TEST(DriverTest, PartitionSystemProducesContiguousBalancedLayout) {
  const auto a = poisson2d(20, 20);
  const auto sys = partition_system(a, 5);
  EXPECT_EQ(sys.layout.nranks(), 5);
  EXPECT_EQ(sys.layout.global_size(), a.rows());
  EXPECT_LE(sys.partition_imbalance, 1.25);
  EXPECT_GT(sys.edge_cut, 0);
  // Permuted matrix keeps symmetry and nnz.
  EXPECT_EQ(sys.matrix.nnz(), a.nnz());
  EXPECT_TRUE(sys.matrix.is_symmetric(1e-12));
  // A partitioned solve reaches the same answer as the unpermuted one.
  const auto a_dist = DistCsr::distribute(sys.matrix, sys.layout);
  const auto b = random_rhs(sys.layout, 7);
  DistVector x(sys.layout);
  const auto r = cg_solve(a_dist, b, x, {.rel_tol = 1e-8, .max_iterations = 2000});
  EXPECT_TRUE(r.converged);
}

TEST(DriverTest, PartitionReducesHaloVersusNaiveBlocking) {
  // Graph-aware partitioning should produce less halo traffic than blocked
  // row ranges on a 2D grid numbered row-major… actually blocked ranges on a
  // row-major grid are already near-optimal strips, so compare against a
  // *shuffled* numbering instead, where blocked ranges are terrible.
  const auto a = poisson2d(16, 16);
  Rng rng(4);
  std::vector<index_t> shuffle(static_cast<std::size_t>(a.rows()));
  for (index_t i = 0; i < a.rows(); ++i) shuffle[static_cast<std::size_t>(i)] = i;
  for (index_t i = a.rows() - 1; i > 0; --i) {
    std::swap(shuffle[static_cast<std::size_t>(i)],
              shuffle[static_cast<std::size_t>(rng.next_index(i + 1))]);
  }
  const auto shuffled = permute_symmetric(a, shuffle);

  const Layout naive = Layout::blocked(a.rows(), 4);
  const auto naive_dist = DistCsr::distribute(shuffled, naive);

  const auto sys = partition_system(shuffled, 4);
  const auto smart_dist = DistCsr::distribute(sys.matrix, sys.layout);
  EXPECT_LT(smart_dist.halo_update_bytes(), naive_dist.halo_update_bytes());
}

void expect_same_factor(const CsrMatrix& x, const CsrMatrix& y) {
  ASSERT_EQ(x.nnz(), y.nnz());
  for (index_t i = 0; i < x.rows(); ++i) {
    const auto xc = x.row_cols(i);
    const auto yc = y.row_cols(i);
    ASSERT_TRUE(std::equal(xc.begin(), xc.end(), yc.begin(), yc.end()))
        << "pattern row " << i;
    const auto xv = x.row_vals(i);
    const auto yv = y.row_vals(i);
    for (std::size_t k = 0; k < xv.size(); ++k) {
      EXPECT_EQ(xv[k], yv[k]) << "row " << i << " entry " << k;
    }
  }
}

class DriverIncrementalProperty
    : public ::testing::TestWithParam<FilterStrategy> {};

TEST_P(DriverIncrementalProperty, IncrementalRefactorIsBitIdentical) {
  const auto a = poisson2d(20, 20);
  const Layout l = Layout::blocked(a.rows(), 4);
  FsaiOptions opts;
  opts.extension = ExtensionMode::CommAware;
  opts.cache_line_bytes = 256;
  opts.filter = 0.05;
  opts.filter_strategy = GetParam();

  const auto incr = build_fsai_preconditioner(a, l, opts);
  FsaiFactorStats full_stats;
  const auto full = compute_fsai_factor(a, incr.final_pattern, &full_stats);

  expect_same_factor(full, incr.g);
  // Filtering removed entries, so some rows shrank (re-solved) and some
  // survived untouched (reused) — and every row is accounted for.
  ASSERT_LT(incr.final_pattern.nnz(), incr.extended_pattern.nnz());
  EXPECT_GT(incr.factor_stats.rows_reused, 0);
  EXPECT_EQ(incr.factor_stats.rows_solved + incr.factor_stats.rows_reused,
            a.rows());
  // The full recompute solves everything and reuses nothing.
  EXPECT_EQ(full_stats.rows_reused, 0);
  EXPECT_EQ(full_stats.rows_solved, a.rows());
}

INSTANTIATE_TEST_SUITE_P(Strategies, DriverIncrementalProperty,
                         ::testing::Values(FilterStrategy::Static,
                                           FilterStrategy::Dynamic));

TEST(DriverTest, ProvisionalStatsAreKeptSeparateFromFinalStats) {
  const auto a = poisson2d(16, 16);
  const Layout l = Layout::blocked(a.rows(), 4);
  FsaiOptions opts;
  opts.extension = ExtensionMode::CommAware;
  opts.cache_line_bytes = 256;
  opts.filter = 0.05;
  const auto build = build_fsai_preconditioner(a, l, opts);

  // Step 4 solved every row of the extended pattern; step 5's stats no
  // longer overwrite that record.
  EXPECT_EQ(build.provisional_factor_stats.rows_solved, a.rows());
  EXPECT_EQ(build.provisional_factor_stats.rows_reused, 0);
  EXPECT_EQ(build.factor_stats.rows_solved + build.factor_stats.rows_reused,
            a.rows());

  // Without filtering there is no provisional factorization at all.
  FsaiOptions plain;
  const auto base = build_fsai_preconditioner(a, l, plain);
  EXPECT_EQ(base.provisional_factor_stats.rows_solved, 0);
  EXPECT_EQ(base.factor_stats.rows_solved, a.rows());
}

TEST(DriverTest, ReferenceAssemblyBuildMatchesGatherBuild) {
  const auto a = poisson2d(14, 14);
  const Layout l = Layout::blocked(a.rows(), 4);
  FsaiOptions opts;
  opts.extension = ExtensionMode::CommAware;
  opts.cache_line_bytes = 256;
  opts.filter = 0.05;

  const auto gather = build_fsai_preconditioner(a, l, opts);
  const auto ref = compute_fsai_factor_reference(a, gather.final_pattern);
  expect_same_factor(ref, gather.g);
}

class DriverModeProperty : public ::testing::TestWithParam<ExtensionMode> {};

TEST_P(DriverModeProperty, BuildInvariantsHold) {
  const auto mode = GetParam();
  const auto a = poisson2d(14, 14);
  const Layout l = Layout::blocked(a.rows(), 4);
  FsaiOptions opts;
  opts.extension = mode;
  opts.cache_line_bytes = 128;
  opts.filter = 0.01;
  const auto build = build_fsai_preconditioner(a, l, opts);

  EXPECT_TRUE(build.final_pattern.is_lower_triangular());
  EXPECT_TRUE(build.final_pattern.has_full_diagonal());
  EXPECT_GE(build.nnz_increase_pct, 0.0);
  EXPECT_GT(build.imbalance_g, 0.0);
  EXPECT_LE(build.imbalance_g, 1.0);
  EXPECT_EQ(build.g.nnz(), build.final_pattern.nnz());
  // G values: positive diagonal everywhere.
  for (index_t i = 0; i < build.g.rows(); ++i) {
    EXPECT_GT(build.g.at(i, i), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, DriverModeProperty,
                         ::testing::Values(ExtensionMode::None,
                                           ExtensionMode::LocalOnly,
                                           ExtensionMode::CommAware,
                                           ExtensionMode::FullHalo));

}  // namespace
}  // namespace fsaic

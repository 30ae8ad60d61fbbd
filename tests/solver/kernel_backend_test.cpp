// Differential tests of the kernel backends behind the distributed solve:
// scalar CSR (the bit-exact reference) vs SELL-C-sigma, and the
// mixed-precision factor guardrail. The headline contract: switching format
// changes WALL-CLOCK only — residual histories are compared with EXPECT_EQ
// on doubles, across executors and thread counts (the fused vector sweeps
// are checked element by element in tests/sparse/vector_ops_test.cpp). Mixed precision is the one knob that is
// allowed to perturb rounding, and its drift is pinned here.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/fsai_driver.hpp"
#include "exec/threaded_executor.hpp"
#include "matgen/generators.hpp"
#include "solver/pcg.hpp"
#include "solver/pipelined_cg.hpp"
#include "sparse/coo.hpp"
#include "sparse/local_operator.hpp"

namespace fsaic {
namespace {

DistVector random_rhs(const Layout& l, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<value_t> bg(static_cast<std::size_t>(l.global_size()));
  for (auto& v : bg) v = rng.next_uniform(-1.0, 1.0);
  return DistVector(l, bg);
}

struct SolveSetup {
  CsrMatrix a;
  Layout layout;
  DistCsr a_dist;
  std::unique_ptr<FactorizedPreconditioner> precond;

  SolveSetup(CsrMatrix matrix, rank_t nranks, const KernelConfig& kernel,
             const KernelConfig& factor_kernel)
      : a(std::move(matrix)),
        layout(Layout::blocked(a.rows(), nranks)),
        a_dist(DistCsr::distribute(a, layout)) {
    a_dist.use_kernel(kernel);
    const auto build = build_fsai_preconditioner(a, layout, FsaiOptions{});
    precond = make_factorized_preconditioner(build, "fsai");
    precond->use_kernel(factor_kernel);
  }
};

SolveResult run_pcg(SolveSetup& s, const SolveOptions& base_opts,
                    std::uint64_t rhs_seed, bool pipelined = false) {
  const auto b = random_rhs(s.layout, rhs_seed);
  DistVector x(s.layout);
  SolveOptions opts = base_opts;
  opts.track_residual_history = true;
  return pipelined ? pcg_solve_pipelined(s.a_dist, b, x, *s.precond, opts)
                   : pcg_solve(s.a_dist, b, x, *s.precond, opts);
}

void expect_identical_histories(const SolveResult& ref, const SolveResult& alt,
                                const char* what) {
  ASSERT_EQ(alt.iterations, ref.iterations) << what;
  ASSERT_EQ(alt.residual_history.size(), ref.residual_history.size()) << what;
  for (std::size_t k = 0; k < ref.residual_history.size(); ++k) {
    ASSERT_EQ(alt.residual_history[k], ref.residual_history[k])
        << what << ": iteration " << k;
  }
}

constexpr KernelConfig kCsr{.format = OperatorFormat::Csr};
constexpr KernelConfig kSell{.format = OperatorFormat::Sell};

TEST(KernelBackendTest, SellResidualHistoryIsBitIdenticalToCsr) {
  const auto a = poisson2d(24, 24);
  SolveSetup csr(a, 4, kCsr, kCsr);
  SolveSetup sell(a, 4, kSell, kSell);
  const SolveOptions opts{.rel_tol = 1e-10, .max_iterations = 500};
  const auto r_csr = run_pcg(csr, opts, 11);
  const auto r_sell = run_pcg(sell, opts, 11);
  EXPECT_TRUE(r_csr.converged);
  expect_identical_histories(r_csr, r_sell, "sell vs csr");
}

TEST(KernelBackendTest, SellMatchesCsrUnderPipelinedCg) {
  const auto a = anisotropic2d(20, 20, 0.1);
  SolveSetup csr(a, 3, kCsr, kCsr);
  SolveSetup sell(a, 3, kSell, kSell);
  const SolveOptions opts{.rel_tol = 1e-8, .max_iterations = 800};
  const auto r_csr = run_pcg(csr, opts, 12, /*pipelined=*/true);
  const auto r_sell = run_pcg(sell, opts, 12, /*pipelined=*/true);
  EXPECT_TRUE(r_csr.converged);
  expect_identical_histories(r_csr, r_sell, "pipelined sell vs csr");
}

TEST(KernelBackendTest, HistoriesInvariantAcrossExecutorsAndFormats) {
  // The full matrix of {csr, sell} x {seq, 2 threads, 4 threads} must
  // produce ONE residual history.
  const auto a = poisson2d(16, 16);
  SolveSetup ref_setup(a, 4, kCsr, kCsr);
  const SolveOptions opts{.rel_tol = 1e-9, .max_iterations = 400};
  const auto ref = run_pcg(ref_setup, opts, 14);
  EXPECT_TRUE(ref.converged);
  for (const auto& kernel : {kCsr, kSell}) {
    for (const int nthreads : {0, 2, 4}) {
      SolveSetup s(a, 4, kernel, kernel);
      SolveOptions run_opts = opts;
      SeqExecutor seq;
      std::unique_ptr<ThreadedExecutor> threaded;
      if (nthreads == 0) {
        run_opts.exec = &seq;
      } else {
        threaded = std::make_unique<ThreadedExecutor>(nthreads);
        run_opts.exec = threaded.get();
      }
      const auto r = run_pcg(s, run_opts, 14);
      expect_identical_histories(ref, r, to_string(kernel.format).c_str());
    }
  }
}

TEST(KernelBackendTest, MixedPrecisionFactorsPassAccuracyGuardrail) {
  // float32 factor storage inside the double CG loop. The guardrail that
  // gates this fast path: the solve still reaches the requested relative
  // residual, in at most 10% more iterations than the double reference.
  const auto a = anisotropic2d(24, 24, 0.05);
  constexpr value_t kRelTol = 1e-8;
  const SolveOptions opts{.rel_tol = kRelTol, .max_iterations = 1000};

  SolveSetup dbl(a, 4, kCsr, kCsr);
  const auto r_dbl = run_pcg(dbl, opts, 15);
  ASSERT_TRUE(r_dbl.converged);

  for (const auto format : {OperatorFormat::Csr, OperatorFormat::Sell}) {
    const KernelConfig mixed{.format = format,
                             .precision = FactorPrecision::Single};
    SolveSetup s(a, 4, KernelConfig{.format = format}, mixed);
    const auto r = run_pcg(s, opts, 15);
    EXPECT_TRUE(r.converged) << to_string(format);
    EXPECT_LE(r.final_residual, kRelTol * r.initial_residual)
        << to_string(format);
    EXPECT_LE(r.iterations,
              r_dbl.iterations + (r_dbl.iterations + 9) / 10)
        << to_string(format) << ": mixed precision degraded convergence past "
        << "the +10% guardrail";
  }
}

TEST(KernelBackendTest, MixedPrecisionPerturbsRoundingOnly) {
  // Sanity check that Single genuinely exercises a different code path:
  // histories should differ in late iterations (else the guardrail test
  // would be vacuous), while early residuals agree to float accuracy.
  const auto a = poisson2d(20, 20);
  const SolveOptions opts{.rel_tol = 1e-10, .max_iterations = 600};
  SolveSetup dbl(a, 2, kCsr, kCsr);
  SolveSetup mixed(a, 2, kCsr,
                   KernelConfig{.format = OperatorFormat::Csr,
                                .precision = FactorPrecision::Single});
  const auto r_dbl = run_pcg(dbl, opts, 16);
  const auto r_mixed = run_pcg(mixed, opts, 16);
  ASSERT_TRUE(r_dbl.converged);
  ASSERT_TRUE(r_mixed.converged);
  ASSERT_GE(r_dbl.residual_history.size(), 2u);
  // First iteration: identical r0 (no preconditioner applied yet for the
  // residual norm), next residual within float rounding.
  EXPECT_EQ(r_mixed.residual_history[0], r_dbl.residual_history[0]);
  EXPECT_NEAR(r_mixed.residual_history[1], r_dbl.residual_history[1],
              1e-4 * r_dbl.residual_history[0]);
  bool diverged_somewhere = false;
  const std::size_t shared =
      std::min(r_dbl.residual_history.size(), r_mixed.residual_history.size());
  for (std::size_t k = 0; k < shared; ++k) {
    if (r_mixed.residual_history[k] != r_dbl.residual_history[k]) {
      diverged_somewhere = true;
      break;
    }
  }
  EXPECT_TRUE(diverged_somewhere)
      << "mixed precision produced a bitwise-identical history — the Single "
         "path is not being exercised";
}

// --format auto: DistCsr scores SELL chunks {4, 8, 16, 32} by padded size
// and keeps the least-padded one, falling back to CSR past 1.25x padding.

TEST(KernelBackendTest, AutotunePinsWidestChunkOnUniformRows) {
  // A diagonal matrix pads identically (not at all) under every chunk; the
  // tie-break must keep the widest candidate.
  CooBuilder bld(64, 64);
  for (index_t i = 0; i < 64; ++i) bld.add(i, i, 2.0);
  const auto a = bld.to_csr();
  auto d = DistCsr::distribute(a, Layout::blocked(a.rows(), 2));
  d.use_kernel(KernelConfig{.autotune = true});
  const KernelConfig& resolved = d.kernel_config();
  EXPECT_FALSE(resolved.autotune);
  EXPECT_EQ(resolved.format, OperatorFormat::Sell);
  EXPECT_EQ(resolved.sell_chunk, 32);
  EXPECT_EQ(d.padding_ratio(), 1.0);
}

TEST(KernelBackendTest, AutotuneFallsBackToCsrWhenEveryChunkOverpads) {
  // Symmetric arrow matrix: one row of length n among rows of length 2.
  // Every chunk containing the dense row pads its whole chunk to n entries,
  // so all candidates blow the 1.25x budget.
  constexpr index_t n = 64;
  CooBuilder bld(n, n);
  for (index_t i = 0; i < n; ++i) bld.add(i, i, 4.0 * n);
  for (index_t i = 1; i < n; ++i) {
    bld.add(0, i, -1.0);
    bld.add(i, 0, -1.0);
  }
  const auto a = bld.to_csr();
  auto d = DistCsr::distribute(a, Layout::blocked(a.rows(), 1));
  d.use_kernel(KernelConfig{.autotune = true});
  const KernelConfig& resolved = d.kernel_config();
  EXPECT_FALSE(resolved.autotune);
  EXPECT_EQ(resolved.format, OperatorFormat::Csr);
  EXPECT_EQ(d.padding_ratio(), 1.0) << "CSR stores no padding";
}

TEST(KernelBackendTest, AutotunePicksLeastPaddedChunkAndSolvesBitwiseLikeCsr) {
  const auto a = poisson2d(24, 24);
  SolveSetup tuned(a, 4, KernelConfig{.autotune = true},
                   KernelConfig{.autotune = true});
  const KernelConfig& resolved = tuned.a_dist.kernel_config();
  EXPECT_FALSE(resolved.autotune);
  ASSERT_EQ(resolved.format, OperatorFormat::Sell);
  EXPECT_LE(tuned.a_dist.padding_ratio(), 1.25);
  // The pick must be the widest chunk among the least-padded explicit builds.
  index_t expected_chunk = 0;
  offset_t best_padded = 0;
  for (const index_t chunk : {4, 8, 16, 32}) {
    auto d = DistCsr::distribute(a, tuned.layout);
    d.use_kernel(KernelConfig{.format = OperatorFormat::Sell,
                              .sell_chunk = chunk,
                              .sell_sigma = 64});
    const offset_t padded = d.padded_entries();
    if (expected_chunk == 0 || padded <= best_padded) {
      expected_chunk = chunk;
      best_padded = padded;
    }
  }
  EXPECT_EQ(resolved.sell_chunk, expected_chunk);
  // And the resolved kernel is still just a storage change: residual
  // histories match scalar CSR bit for bit.
  SolveSetup csr(a, 4, kCsr, kCsr);
  const SolveOptions opts{.rel_tol = 1e-10, .max_iterations = 500};
  const auto r_csr = run_pcg(csr, opts, 29);
  const auto r_auto = run_pcg(tuned, opts, 29);
  EXPECT_TRUE(r_csr.converged);
  expect_identical_histories(r_csr, r_auto, "autotuned vs csr");
}

}  // namespace
}  // namespace fsaic

#include "solver/chebyshev.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "matgen/generators.hpp"
#include "solver/pcg.hpp"
#include "sparse/coo.hpp"

namespace fsaic {
namespace {

DistVector random_rhs(const Layout& l, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<value_t> bg(static_cast<std::size_t>(l.global_size()));
  for (auto& v : bg) v = rng.next_uniform(-1.0, 1.0);
  return DistVector(l, bg);
}

TEST(ChebyshevTest, ExactBoundsOnDiagonalMatrixInvertWell) {
  // diag(1, 2, 4): exact spectrum bounds, high degree → near-exact inverse.
  CooBuilder b(3, 3);
  b.add(0, 0, 1.0);
  b.add(1, 1, 2.0);
  b.add(2, 2, 4.0);
  const auto a = b.to_csr();
  const Layout l = Layout::blocked(3, 1);
  const auto d = DistCsr::distribute(a, l);
  const ChebyshevPreconditioner cheb(d, 1.0, 4.0, 24);
  std::vector<value_t> rg{1.0, 2.0, 4.0};
  const DistVector r(l, rg);
  DistVector z(l);
  cheb.apply(r, z);
  const auto zg = z.to_global();
  // A^{-1} r = (1, 1, 1).
  for (value_t v : zg) {
    EXPECT_NEAR(v, 1.0, 1e-3);
  }
}

TEST(ChebyshevTest, HigherDegreeReducesCgIterations) {
  const auto a = poisson2d(16, 16);
  const Layout l = Layout::blocked(a.rows(), 4);
  const auto d = DistCsr::distribute(a, l);
  const auto b = random_rhs(l, 1);

  int prev = 100000;
  for (const int degree : {1, 3, 6}) {
    const auto cheb =
        ChebyshevPreconditioner::with_estimated_spectrum(a, d, degree);
    DistVector x(l);
    const auto r = pcg_solve(d, b, x, cheb, {.rel_tol = 1e-8, .max_iterations = 2000});
    ASSERT_TRUE(r.converged) << "degree " << degree;
    EXPECT_LT(r.iterations, prev) << "degree " << degree;
    prev = r.iterations;
  }
}

TEST(ChebyshevTest, ApplicationCommunicatesLikeDegreeSpmvs) {
  const auto a = poisson2d(12, 12);
  const Layout l = Layout::blocked(a.rows(), 4);
  const auto d = DistCsr::distribute(a, l);
  const int degree = 5;
  const ChebyshevPreconditioner cheb(d, 0.1, 8.0, degree);
  const auto r = random_rhs(l, 2);
  DistVector z(l);
  CommStats stats;
  cheb.apply(r, z, &stats);
  // degree-1 SpMVs of A, nothing else: bytes = (degree-1) * one halo update.
  EXPECT_EQ(stats.halo_bytes, (degree - 1) * d.halo_update_bytes());
  EXPECT_EQ(stats.allreduce_count, 0);
}

TEST(ChebyshevTest, RejectsBadSpectrumBounds) {
  const auto a = poisson2d(4, 4);
  const auto d = DistCsr::distribute(a, Layout::blocked(a.rows(), 1));
  EXPECT_THROW((ChebyshevPreconditioner{d, 0.0, 1.0, 3}), Error);
  EXPECT_THROW((ChebyshevPreconditioner{d, 2.0, 1.0, 3}), Error);
  EXPECT_THROW((ChebyshevPreconditioner{d, 0.1, 1.0, 0}), Error);
}

}  // namespace
}  // namespace fsaic

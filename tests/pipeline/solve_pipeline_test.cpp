#include "pipeline/solve_pipeline.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/format.hpp"
#include "matgen/suite.hpp"
#include "service/solve_service.hpp"
#include "solver/pcg.hpp"
#include "sparse/mm_io.hpp"
#include "sparse/ops.hpp"
#include "wgen/wgen.hpp"

namespace fsaic {
namespace {

namespace fs = std::filesystem;

void expect_same_matrix(const CsrMatrix& a, const CsrMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(a.nnz(), b.nnz());
  const auto same = [](auto x, auto y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end());
  };
  EXPECT_TRUE(same(a.row_ptr(), b.row_ptr()));
  EXPECT_TRUE(same(a.col_idx(), b.col_idx()));
  EXPECT_TRUE(same(a.values(), b.values()));
}

std::vector<value_t> ramp(std::size_t n) {
  std::vector<value_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = 0.5 + static_cast<double>(i);
  return v;
}

TEST(SolvePipelineTest, SuiteNameAndExportedFileGiveTheSameSystem) {
  const CsrMatrix a = suite_entry("Dubcova2").generate();
  const fs::path path = fs::temp_directory_path() /
                        strformat("fsaic_pipeline_%d.mtx", ::getpid());
  write_matrix_market_file(path.string(), a);
  const CommConfig comm;
  const SolveSystem from_suite = distribute_system(a, 4, comm);
  const SolveSystem from_file =
      distribute_system(read_matrix_market_file(path.string()), 4, comm);
  fs::remove(path);

  EXPECT_EQ(from_suite.fingerprint(), from_file.fingerprint());
  EXPECT_EQ(from_suite.perm, from_file.perm);
  EXPECT_EQ(from_suite.edge_cut, from_file.edge_cut);
  EXPECT_EQ(from_suite.layout(), from_file.layout());
  expect_same_matrix(from_suite.assembled(), from_file.assembled());
  EXPECT_EQ(from_suite.fingerprint(),
            fingerprint_of(from_suite.a_dist.to_global()));
}

TEST(SolvePipelineTest, DistributeRejectsNonSymmetricMatrices) {
  const CsrMatrix a(2, 2, {0, 2, 3}, {0, 1, 1}, {4.0, -1.0, 4.0});
  EXPECT_THROW((void)distribute_system(a, 2, CommConfig{}), Error);
}

TEST(SolvePipelineTest, LayoutRoundTripIsTheIdentity) {
  const CommConfig comm;
  const SolveSystem assembled =
      distribute_system(suite_entry("Dubcova2").generate(), 4, comm);
  const SolveSystem generated =
      generate_system("stencil3d:nx=6,ny=5,nz=8", 3, comm);
  for (const SolveSystem* sys : {&assembled, &generated}) {
    const std::vector<value_t> v = ramp(sys->perm.size());
    EXPECT_EQ(sys->from_layout(sys->to_layout(v)), v);
  }
  // The partition really permutes, so the round trip is not trivially
  // the identity on the assembled system.
  const std::vector<value_t> v = ramp(assembled.perm.size());
  EXPECT_NE(assembled.to_layout(v).to_global(), v);
}

TEST(SolvePipelineTest, RenumberedInputComposesWithThePartition) {
  const CsrMatrix a = suite_entry("Dubcova2").generate();
  const auto n = static_cast<std::size_t>(a.rows());
  // Reverse the rows, distribute, and record the reversal: the system must
  // then place an input-numbered vector exactly as the unreversed one.
  std::vector<index_t> reverse(n);
  for (std::size_t i = 0; i < n; ++i) {
    reverse[i] = static_cast<index_t>(n - 1 - i);
  }
  SolveSystem sys = distribute_system(permute_symmetric(a, reverse), 4, {});
  sys.renumber_input(reverse);
  // Entry (i, j) of the input matrix is entry (perm[i], perm[j]) of the
  // distributed one.
  const CsrMatrix& pa = sys.assembled();
  for (index_t i = 0; i < a.rows(); ++i) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    const auto pcols = pa.row_cols(sys.perm[static_cast<std::size_t>(i)]);
    const auto pvals = pa.row_vals(sys.perm[static_cast<std::size_t>(i)]);
    ASSERT_EQ(cols.size(), pcols.size()) << "row " << i;
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const index_t pj = sys.perm[static_cast<std::size_t>(cols[k])];
      const auto at = std::find(pcols.begin(), pcols.end(), pj);
      ASSERT_NE(at, pcols.end()) << "row " << i;
      EXPECT_EQ(pvals[static_cast<std::size_t>(at - pcols.begin())], vals[k]);
    }
  }
}

TEST(SolvePipelineTest, GeneratedSystemAssemblesLazilyToTheGlobalOperator) {
  const std::string spec = "stencil3d:nx=6,ny=5,nz=8";
  const SolveSystem sys = generate_system(spec, 3, CommConfig{});
  const MatrixFingerprint before = sys.fingerprint();
  const CsrMatrix reference = wgen::generate_global(
      wgen::resolve_workload(wgen::parse_workload_spec(spec), 3));
  expect_same_matrix(sys.assembled(), reference);
  EXPECT_EQ(sys.fingerprint(), before);
  EXPECT_EQ(before, fingerprint_of(reference));
  EXPECT_EQ(sys.edge_cut, 0);
  for (std::size_t i = 0; i < sys.perm.size(); ++i) {
    ASSERT_EQ(sys.perm[i], static_cast<index_t>(i));
  }
}

TEST(SolvePipelineTest, MethodTableMapsNamesToExtensions) {
  const std::pair<const char*, ExtensionMode> table[] = {
      {"fsai", ExtensionMode::None},
      {"fsaie", ExtensionMode::LocalOnly},
      {"fsaie-comm", ExtensionMode::CommAware},
      {"fsaie-full", ExtensionMode::FullHalo},
  };
  for (const auto& [name, extension] : table) {
    const FsaiOptions opts =
        fsai_method_options(name, 0.05, FilterStrategy::Dynamic);
    EXPECT_EQ(opts.extension, extension) << name;
    EXPECT_EQ(opts.filter_strategy, FilterStrategy::Dynamic) << name;
    EXPECT_EQ(opts.filter, extension == ExtensionMode::None ? 0.0 : 0.05)
        << name << ": plain FSAI is never filtered";
  }
  EXPECT_THROW((void)fsai_method_options("fsaix"), Error);
  EXPECT_THROW((void)fsai_method_options("jacobi"), Error);
  try {
    (void)fsai_method_options("bogus");
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported method"),
              std::string::npos);
  }
}

TEST(SolvePipelineTest, SynthesizedRhsIsSeededAndReadRhsChecksLength) {
  EXPECT_EQ(synthesize_rhs(7, 50), synthesize_rhs(7, 50));
  EXPECT_NE(synthesize_rhs(7, 50), synthesize_rhs(8, 50));
  for (const value_t v : synthesize_rhs(2022, 200)) {
    EXPECT_GE(v, -1.0);
    EXPECT_LT(v, 1.0);
  }
  const fs::path path = fs::temp_directory_path() /
                        strformat("fsaic_pipeline_rhs_%d.mtx", ::getpid());
  write_matrix_market_vector_file(path.string(), ramp(5));
  EXPECT_EQ(read_rhs(path.string(), 5), ramp(5));
  EXPECT_THROW((void)read_rhs(path.string(), 6), Error);
  fs::remove(path);
}

// The tier-1 twin of CI's `fsaic solve` vs `fsaic serve` check: a solve
// wired from the stages, the same solve on a stored factor, and the
// service's response to the same request give one residual history.
TEST(SolvePipelineTest, StagesAndServiceGiveOneResidualHistory) {
  for (const char* op : {"Dubcova2", "stencil2d:nx=40,ny=30"}) {
    SolveRequest req;
    req.id = "twin";
    req.generate = op;
    req.ranks = 4;
    req.rhs_seed = 7;
    req.want_history = true;

    const CommConfig comm;
    const SolveSystem sys =
        wgen::is_workload_spec(op)
            ? generate_system(op, req.ranks, comm)
            : distribute_system(suite_entry(op).generate(), req.ranks, comm);
    const FsaiBuildResult build = build_fsai_preconditioner(
        sys.assembled(), sys.layout(),
        fsai_method_options(req.method, req.filter, FilterStrategy::Dynamic));
    const DistVector b = sys.to_layout(
        synthesize_rhs(req.rhs_seed, sys.layout().global_size()));
    const SolveOptions opts{.rel_tol = req.tol,
                            .max_iterations = req.max_iterations,
                            .track_residual_history = true};
    const auto solve = [&](const Preconditioner& m) {
      DistVector x(sys.layout());
      return pcg_solve(sys.a_dist, b, x, m, opts).residual_history;
    };
    const auto fresh = solve(*make_factorized_preconditioner(build, "fresh"));
    const auto stored = solve(
        *stored_factor_preconditioner(build.g, sys.layout(), comm, "stored"));

    SolveResponse served;
    {
      SolveService service({.workers = 1},
                           [&](const SolveResponse& r) { served = r; });
      ASSERT_TRUE(service.submit(req));
      service.drain();
    }
    ASSERT_EQ(served.status, "ok") << op << ": " << served.reason;
    ASSERT_GT(fresh.size(), 2u) << op;
    ASSERT_EQ(stored.size(), fresh.size()) << op;
    ASSERT_EQ(served.residuals.size(), fresh.size()) << op;
    for (std::size_t k = 0; k < fresh.size(); ++k) {
      EXPECT_EQ(stored[k], fresh[k]) << op << " iteration " << k;
      EXPECT_EQ(served.residuals[k], fresh[k]) << op << " iteration " << k;
    }
  }
}

}  // namespace
}  // namespace fsaic

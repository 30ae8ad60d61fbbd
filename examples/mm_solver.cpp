// Solve a user-supplied SuiteSparse / MatrixMarket SPD system with the
// FSAIE-Comm preconditioned CG — the real-world entry point of the library.
//
//   build/examples/mm_solver <matrix.mtx> [ranks = 8] [filter = 0.01]
//                            [machine = skylake]
//
// The right-hand side is random, normalized to the matrix max norm, and the
// convergence criterion reduces the initial residual by eight orders of
// magnitude, matching the paper's Section 5.1 setup.
#include <cstdlib>
#include <iostream>

#include "core/fsai_driver.hpp"
#include "matgen/generators.hpp"
#include "perf/cost_model.hpp"
#include "pipeline/solve_pipeline.hpp"
#include "solver/pcg.hpp"
#include "sparse/mm_io.hpp"
#include "sparse/vector_ops.hpp"

int main(int argc, char** argv) {
  using namespace fsaic;
  if (argc < 2) {
    std::cerr << "usage: mm_solver <matrix.mtx> [ranks] [filter] [machine]\n";
    return 1;
  }
  const rank_t ranks = argc > 2 ? std::atoi(argv[2]) : 8;
  const value_t filter = argc > 3 ? std::atof(argv[3]) : 0.01;
  const Machine machine = machine_by_name(argc > 4 ? argv[4] : "skylake");

  const CsrMatrix a = read_matrix_market_file(argv[1]);
  const SolveSystem sys = distribute_system(a, ranks, CommConfig{});
  std::cout << argv[1] << ": " << a.rows() << " rows, " << a.nnz() << " nnz\n";

  std::vector<value_t> bg = synthesize_rhs(2022, a.rows());
  const value_t bmax = norm_inf(bg);
  if (bmax > 0) scale(a.max_abs() / bmax, bg);
  const DistVector b = sys.to_layout(bg);

  const CostModel cost(machine, {.threads_per_rank = 8});
  for (const ExtensionMode mode : {ExtensionMode::None, ExtensionMode::CommAware}) {
    FsaiOptions opts;
    opts.extension = mode;
    opts.cache_line_bytes = machine.l1.line_bytes;
    opts.filter = filter;
    opts.filter_strategy = FilterStrategy::Dynamic;
    const FsaiBuildResult build =
        build_fsai_preconditioner(sys.assembled(), sys.layout(), opts);
    const auto precond = make_factorized_preconditioner(build, to_string(mode));
    DistVector x(sys.layout());
    const SolveResult r = pcg_solve(sys.a_dist, b, x, *precond,
                                    {.rel_tol = 1e-8, .max_iterations = 50000});
    std::cout << to_string(mode) << ": " << r.iterations << " iterations"
              << (r.converged ? "" : " (NOT converged)") << ", +"
              << build.nnz_increase_pct << "% entries, modeled time "
              << r.iterations *
                     cost.pcg_iteration_cost(sys.a_dist, build.g_dist,
                                             build.gt_dist)
                         .total()
              << " s on " << machine.name << "\n";
  }
  return 0;
}

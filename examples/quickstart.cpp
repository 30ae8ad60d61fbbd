// Quickstart: solve a Poisson system with CG preconditioned by FSAI and by
// the communication-aware extended FSAIE-Comm, and compare.
//
//   build/examples/quickstart [grid = 48] [ranks = 8]
#include <cstdlib>
#include <iostream>

#include "core/fsai_driver.hpp"
#include "matgen/generators.hpp"
#include "perf/cost_model.hpp"
#include "pipeline/solve_pipeline.hpp"
#include "solver/pcg.hpp"

int main(int argc, char** argv) {
  using namespace fsaic;
  const index_t grid = argc > 1 ? std::atoi(argv[1]) : 48;
  const rank_t nranks = argc > 2 ? std::atoi(argv[2]) : 8;

  // 1. A model problem: 2D Poisson on a grid x grid mesh.
  const CsrMatrix a = poisson2d(grid, grid);
  std::cout << "matrix: poisson2d " << grid << "x" << grid << " (" << a.rows()
            << " rows, " << a.nnz() << " nnz)\n";

  // 2. Partition the adjacency graph over the simulated ranks (the METIS
  //    step of a real MPI code) and distribute the system.
  const PartitionedSystem sys = partition_system(a, nranks);
  const DistCsr a_dist = DistCsr::distribute(sys.matrix, sys.layout);
  std::cout << "partition: " << nranks << " ranks, edge cut " << sys.edge_cut
            << ", imbalance " << sys.partition_imbalance << "\n";

  // 3. A reproducible right-hand side.
  const DistVector b(sys.layout, synthesize_rhs(2022, a.rows()));

  // 4. Solve with each preconditioner flavour.
  const CostModel cost(machine_skylake(), {.threads_per_rank = 8});
  for (const ExtensionMode mode :
       {ExtensionMode::None, ExtensionMode::LocalOnly, ExtensionMode::CommAware}) {
    FsaiOptions opts;
    opts.extension = mode;
    opts.cache_line_bytes = 64;
    opts.filter = 0.01;
    opts.filter_strategy = FilterStrategy::Dynamic;
    const FsaiBuildResult build = build_fsai_preconditioner(sys.matrix, sys.layout, opts);
    const auto precond = make_factorized_preconditioner(build, to_string(mode));

    DistVector x(sys.layout);
    const SolveResult r = pcg_solve(a_dist, b, x, *precond,
                                    {.rel_tol = 1e-8, .max_iterations = 10000});
    const double iter_cost =
        cost.pcg_iteration_cost(a_dist, build.g_dist, build.gt_dist).total();
    std::cout << to_string(mode) << ": " << r.iterations << " iterations"
              << (r.converged ? "" : " (NOT converged)") << ", +"
              << build.nnz_increase_pct << "% pattern entries, modeled time "
              << r.iterations * iter_cost << " s, halo bytes/update "
              << build.g_dist.halo_update_bytes() << "\n";
  }
  return 0;
}

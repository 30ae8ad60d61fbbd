// A configurable PDE solve: pick the problem, its size, the preconditioner
// flavour, the filter and the simulated machine from the command line. This
// is the "I have a linear system, which configuration should I use?" tool.
//
//   build/examples/poisson_solver [options]
//     --problem poisson2d|poisson3d|graded2d|anisotropic2d   (default poisson2d)
//     --n <grid>            grid points per dimension         (default 64)
//     --ranks <p>           simulated MPI ranks               (default 8)
//     --threads <t>         threads per rank (cost model)     (default 8)
//     --method fsai|fsaie|fsaie-comm|fsaie-full               (default fsaie-comm)
//     --filter <f>          filter value                      (default 0.01)
//     --static              static instead of dynamic filtering
//     --machine skylake|a64fx|zen2                            (default skylake)
//     --tol <t>             relative residual tolerance       (default 1e-8)
#include <cstring>
#include <iostream>
#include <string>

#include "core/fsai_driver.hpp"
#include "matgen/generators.hpp"
#include "sparse/ops.hpp"
#include "perf/cost_model.hpp"
#include "pipeline/solve_pipeline.hpp"
#include "solver/pcg.hpp"

namespace {

using namespace fsaic;

struct Options {
  std::string problem = "poisson2d";
  index_t n = 64;
  rank_t ranks = 8;
  int threads = 8;
  std::string method = "fsaie-comm";
  value_t filter = 0.01;
  bool dynamic = true;
  std::string machine = "skylake";
  value_t tol = 1e-8;
};

CsrMatrix make_problem(const Options& o) {
  if (o.problem == "poisson2d") {
    return permute_symmetric(poisson2d(o.n, o.n),
                             tile_permutation_2d(o.n, o.n, 4, 2));
  }
  if (o.problem == "poisson3d") {
    return permute_symmetric(poisson3d(o.n, o.n, o.n),
                             tile_permutation_3d(o.n, o.n, o.n, 2, 2, 2));
  }
  if (o.problem == "graded2d") {
    return permute_symmetric(graded2d(o.n, o.n, 1e5),
                             tile_permutation_2d(o.n, o.n, 4, 2));
  }
  if (o.problem == "anisotropic2d") {
    return permute_symmetric(anisotropic2d(o.n, o.n, 0.2),
                             tile_permutation_2d(o.n, o.n, 4, 2));
  }
  throw Error("unknown problem: " + o.problem);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      FSAIC_REQUIRE(i + 1 < argc, "missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--problem") {
      o.problem = next();
    } else if (arg == "--n") {
      o.n = std::stoi(next());
    } else if (arg == "--ranks") {
      o.ranks = std::stoi(next());
    } else if (arg == "--threads") {
      o.threads = std::stoi(next());
    } else if (arg == "--method") {
      o.method = next();
    } else if (arg == "--filter") {
      o.filter = std::stod(next());
    } else if (arg == "--static") {
      o.dynamic = false;
    } else if (arg == "--machine") {
      o.machine = next();
    } else if (arg == "--tol") {
      o.tol = std::stod(next());
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      return 1;
    }
  }

  const Machine machine = machine_by_name(o.machine);
  const CsrMatrix a = make_problem(o);
  std::cout << o.problem << " n=" << o.n << ": " << a.rows() << " unknowns, "
            << a.nnz() << " nonzeros\n";

  const PartitionedSystem sys = partition_system(a, o.ranks);
  const DistCsr a_dist = DistCsr::distribute(sys.matrix, sys.layout);
  std::cout << o.ranks << " ranks, edge cut " << sys.edge_cut << "\n";

  FsaiOptions fopts = fsai_method_options(
      o.method, o.filter,
      o.dynamic ? FilterStrategy::Dynamic : FilterStrategy::Static);
  fopts.cache_line_bytes = machine.l1.line_bytes;
  const FsaiBuildResult build =
      build_fsai_preconditioner(sys.matrix, sys.layout, fopts);
  std::cout << o.method << " factor: " << build.g.nnz() << " entries (+"
            << build.nnz_increase_pct << "% over FSAI), imbalance index "
            << build.imbalance_avg() << "\n";

  const DistVector b(sys.layout, synthesize_rhs(123, a.rows()));
  DistVector x(sys.layout);
  const auto precond = make_factorized_preconditioner(build, o.method);
  const SolveResult r = pcg_solve(a_dist, b, x, *precond,
                                  {.rel_tol = o.tol, .max_iterations = 50000});

  const CostModel cost(machine, {.threads_per_rank = o.threads});
  const auto iter_cost =
      cost.pcg_iteration_cost(a_dist, build.g_dist, build.gt_dist);
  std::cout << (r.converged ? "converged" : "NOT converged") << " in "
            << r.iterations << " iterations; residual "
            << r.final_residual / r.initial_residual << " (relative)\n";
  std::cout << "modeled time on " << machine.name << ": "
            << r.iterations * iter_cost.total() << " s  (per-iteration "
            << iter_cost.total() << " s: spmv " << iter_cost.spmv_a.total()
            << ", precond " << iter_cost.precond_total() << ", blas1 "
            << iter_cost.blas1 << ", allreduce " << iter_cost.allreduce << ")\n";
  std::cout << "halo per update: " << build.g_dist.halo_update_bytes()
            << " B in " << build.g_dist.halo_update_messages()
            << " messages; solve moved " << r.comm.halo_bytes / (1 << 20)
            << " MiB total\n";
  return r.converged ? 0 : 2;
}

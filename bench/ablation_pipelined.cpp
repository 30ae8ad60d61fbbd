// Communication-avoiding CG ablation: classic PCG (3 allreduces/iteration)
// vs Chronopoulos-Gear pipelined PCG (1 fused allreduce/iteration) under the
// FSAIE-Comm preconditioner, across rank counts. The allreduce term grows
// like alpha*log2(P); at the paper's 32,768 cores it is a visible slice of
// the iteration, and this ablation shows how the modeled benefit scales.
#include "bench_common.hpp"

#include "pipeline/solve_pipeline.hpp"
#include "solver/pipelined_cg.hpp"

int main() {
  using namespace fsaic;
  using namespace fsaic::bench;
  print_header("Ablation — classic vs pipelined (Chronopoulos-Gear) PCG",
               "extends HPDC'22: the alpha*log2(P) allreduce term at scale");

  const Machine machine = machine_zen2();
  const auto& entry = suite_entry("Queen_4147");
  const CsrMatrix a = entry.generate();

  TextTable table({"ranks", "iters.classic", "iters.pipelined",
                   "allreduce.share.classic%", "time.classic",
                   "time.pipelined", "pipelined.gain%"});
  for (const rank_t nranks : {8, 16, 32, 64}) {
    const PartitionedSystem sys = partition_system(a, nranks);
    const DistCsr a_dist = DistCsr::distribute(sys.matrix, sys.layout);
    const DistVector b(sys.layout, synthesize_rhs(13, a.rows()));

    FsaiOptions opts;
    opts.extension = ExtensionMode::CommAware;
    opts.cache_line_bytes = machine.l1.line_bytes;
    opts.filter = 0.01;
    opts.filter_strategy = FilterStrategy::Dynamic;
    const auto build = build_fsai_preconditioner(sys.matrix, sys.layout, opts);
    const auto precond = make_factorized_preconditioner(build, "comm");

    DistVector x1(sys.layout);
    const auto classic = pcg_solve(a_dist, b, x1, *precond,
                                   {.rel_tol = 1e-8, .max_iterations = 20000});
    DistVector x2(sys.layout);
    const auto piped = pcg_solve_pipelined(
        a_dist, b, x2, *precond, {.rel_tol = 1e-8, .max_iterations = 20000});

    const CostModel cost(machine, {.threads_per_rank = 8});
    const auto iter = cost.pcg_iteration_cost(a_dist, build.g_dist, build.gt_dist);
    const double t_classic = classic.iterations * iter.total();
    // Pipelined: one allreduce (of 3 fused scalars) instead of three.
    const double pipelined_iter_cost =
        iter.total() - iter.allreduce + cost.allreduce_cost(nranks);
    const double t_piped = piped.iterations * pipelined_iter_cost;

    table.add_row({std::to_string(nranks), std::to_string(classic.iterations),
                   std::to_string(piped.iterations),
                   pct2(100.0 * iter.allreduce / iter.total()), sci2(t_classic),
                   sci2(t_piped), pct2(100.0 * (t_classic - t_piped) / t_classic)});
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: the allreduce share — and with it the "
               "pipelined gain — grows with the rank count, while iteration "
               "counts stay within a couple of steps of classic PCG.\n";
  return 0;
}

// Sparsity-level ablation: the classical way to enrich an FSAI pattern is
// to take a power of Ã (the paper cites A^2/A^3 as standard static
// patterns). This ablation pits level-2 FSAI against the cache-line
// extension route: both add entries, but the power pattern adds them by
// graph distance (numerically strong, communication-heavy) while the
// extension adds them by memory adjacency (numerically weaker per entry,
// free in traffic). It also combines them: FSAIE-Comm applied on top of the
// level-2 pattern.
#include "bench_common.hpp"

#include "dist/comm_scheme.hpp"
#include "solver/pcg.hpp"

int main() {
  using namespace fsaic;
  using namespace fsaic::bench;
  print_header("Ablation — pattern powers (Ã^N) vs cache-line extension",
               "extends HPDC'22 Section 2.2 / related work (a-priori patterns)");

  const Machine machine = machine_a64fx();
  const CostModel cost(machine, {.threads_per_rank = 8});

  for (const char* name : {"thermal2", "Dubcova3"}) {
    const auto& entry = suite_entry(name);
    ExperimentConfig cfg;
    cfg.machine = machine;
    ExperimentRunner runner(cfg);
    const auto& sys = runner.prepare(entry);

    TextTable table({"config", "G.nnz", "iters", "halo.B(G)", "halo.msgs",
                     "modeled.time"});
    const auto run_config = [&](const std::string& label, const FsaiOptions& opts) {
      const auto build =
          build_fsai_preconditioner(sys.assembled(), sys.layout(), opts);
      const auto precond = make_factorized_preconditioner(build, label);
      DistVector x(sys.layout());
      const auto r = pcg_solve(sys.a_dist, sys.b, x, *precond, cfg.solve);
      const double t =
          r.iterations *
          cost.pcg_iteration_cost(sys.a_dist, build.g_dist, build.gt_dist)
              .total();
      table.add_row({label, std::to_string(build.g.nnz()),
                     std::to_string(r.iterations) + (r.converged ? "" : "*"),
                     std::to_string(build.g_dist.halo_update_bytes()),
                     std::to_string(build.g_dist.halo_update_messages()),
                     sci2(t)});
    };

    FsaiOptions opts;
    opts.cache_line_bytes = machine.l1.line_bytes;
    run_config("level-1 (lower(A))", opts);

    opts.extension = ExtensionMode::CommAware;
    opts.filter = 0.01;
    opts.filter_strategy = FilterStrategy::Dynamic;
    run_config("level-1 + fsaie-comm", opts);

    opts.extension = ExtensionMode::None;
    opts.filter = 0.0;
    opts.sparsity_level = 2;
    run_config("level-2 (lower(A^2))", opts);

    opts.extension = ExtensionMode::CommAware;
    opts.filter = 0.05;
    run_config("level-2 + fsaie-comm", opts);

    std::cout << entry.name << " (" << sys.assembled().rows() << " rows, "
              << sys.nranks << " ranks):\n";
    table.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "Reading guide: level-2 buys the most iterations but grows "
               "halo bytes AND messages (new neighbor pairs appear); the "
               "extension's entries are free in traffic; the combination "
               "stacks both effects.\n";
  return 0;
}

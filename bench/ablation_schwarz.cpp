// Overlap-vs-extension ablation: two opposite ways to buy iterations.
// Additive Schwarz grows *domains* — every overlap level adds iteration
// quality AND per-application communication (fetch + return of the overlap
// coefficients). FSAIE-Comm grows the *pattern* — iteration quality at
// byte-for-byte the communication of plain FSAI. This bench sweeps the
// Schwarz overlap next to the FSAI family on one system and prints the
// quality/traffic frontier.
#include "bench_common.hpp"

#include "solver/pcg.hpp"
#include "solver/schwarz.hpp"

int main() {
  using namespace fsaic;
  using namespace fsaic::bench;
  print_header("Ablation — Schwarz overlap vs FSAIE-Comm extension",
               "extends HPDC'22: two opposite quality/communication trades");

  const Machine machine = machine_a64fx();
  const CostModel cost(machine, {.threads_per_rank = 8});

  for (const char* name : {"thermal2", "af_shell7"}) {
    const auto& entry = suite_entry(name);
    ExperimentConfig cfg;
    cfg.machine = machine;
    ExperimentRunner runner(cfg);
    const auto& sys = runner.prepare(entry);

    TextTable table({"preconditioner", "iters", "apply.halo.B", "apply.halo.msgs",
                     "max.block.rows"});
    const auto add_row = [&](const std::string& label, const SolveResult& r,
                             std::int64_t halo_bytes, std::int64_t halo_msgs,
                             index_t block_rows) {
      table.add_row({label,
                     std::to_string(r.iterations) + (r.converged ? "" : "*"),
                     std::to_string(halo_bytes), std::to_string(halo_msgs),
                     std::to_string(block_rows)});
    };

    for (const int overlap : {0, 1, 2, 4}) {
      const SchwarzPreconditioner ras(sys.assembled(), sys.layout(), overlap);
      DistVector x(sys.layout());
      const auto r = pcg_solve(sys.a_dist, sys.b, x, ras, cfg.solve);
      add_row(strformat("schwarz ovl=%d", overlap), r, ras.apply_halo_bytes(),
              ras.apply_halo_messages(), ras.max_extended_rows());
    }
    for (const auto mode : {ExtensionMode::None, ExtensionMode::CommAware}) {
      FsaiOptions opts;
      opts.extension = mode;
      opts.cache_line_bytes = machine.l1.line_bytes;
      opts.filter = mode == ExtensionMode::None ? 0.0 : 0.01;
      opts.filter_strategy = FilterStrategy::Dynamic;
      const auto build =
          build_fsai_preconditioner(sys.assembled(), sys.layout(), opts);
      const auto precond = make_factorized_preconditioner(build, "m");
      DistVector x(sys.layout());
      const auto r = pcg_solve(sys.a_dist, sys.b, x, *precond, cfg.solve);
      index_t max_rows = 0;
      for (rank_t p = 0; p < sys.nranks; ++p) {
        max_rows = std::max(max_rows, sys.layout().local_size(p));
      }
      add_row(to_string(mode), r,
              build.g_dist.halo_update_bytes() + build.gt_dist.halo_update_bytes(),
              build.g_dist.halo_update_messages() +
                  build.gt_dist.halo_update_messages(),
              max_rows);
    }

    std::cout << entry.name << " (" << sys.assembled().rows() << " rows, "
              << sys.nranks << " ranks):\n";
    table.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "Reading guide: every Schwarz overlap level adds bytes AND "
               "messages per application; FSAIE-Comm improves over FSAI at "
               "constant traffic.\n";
  return 0;
}

// Setup amortization analysis: the paper's tables exclude preconditioner
// setup from "solver time", but FSAIE/FSAIE-Comm pay roughly twice the FSAI
// setup (provisional + final factor). This bench answers the practical
// question: after how many right-hand sides does the extension's per-solve
// gain pay back its extra setup? (The paper's evaluation runs 50 repetitions
// per system, comfortably past every break-even point seen here.)
#include "bench_common.hpp"

#include "perf/setup_cost.hpp"
#include "solver/pcg.hpp"

int main() {
  using namespace fsaic;
  using namespace fsaic::bench;
  print_header("Setup amortization — when does the extension pay off?",
               "extends HPDC'22 Section 5.1 (setup excluded from solver time)");

  const Machine machine = machine_a64fx();
  const int threads = 8;
  const CostModel cost(machine, {.threads_per_rank = threads});

  TextTable table({"Matrix", "setup.fsai", "setup.comm", "solve.fsai",
                   "solve.comm", "breakeven.solves"});
  double worst_breakeven = 0.0;
  for (const char* name :
       {"thermal2", "Fault_639", "af_shell7", "nd24k", "gyro_k", "ecology2"}) {
    const auto& entry = suite_entry(name);
    ExperimentConfig cfg;
    cfg.machine = machine;
    cfg.threads_per_rank = threads;
    ExperimentRunner runner(cfg);
    const auto& sys = runner.prepare(entry);

    const auto evaluate = [&](ExtensionMode mode) {
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
      const double solve_time =
          r.iterations *
          cost.pcg_iteration_cost(sys.a_dist, build.g_dist, build.gt_dist)
              .total();
      const double setup_time =
          estimate_build_setup(build, sys.layout(), machine, threads).time;
      return std::pair{setup_time, solve_time};
    };

    const auto [setup_fsai, solve_fsai] = evaluate(ExtensionMode::None);
    const auto [setup_comm, solve_comm] = evaluate(ExtensionMode::CommAware);
    const double breakeven =
        solves_to_amortize(setup_fsai, solve_fsai, setup_comm, solve_comm);
    worst_breakeven = std::max(worst_breakeven, breakeven);
    table.add_row({entry.name, sci2(setup_fsai), sci2(setup_comm),
                   sci2(solve_fsai), sci2(solve_comm),
                   strformat("%.1f", breakeven)});
  }
  table.print(std::cout);
  std::cout << strformat(
      "\nWorst break-even: %.1f solves. The paper times 50 repetitions per "
      "system; typical production workloads (transient simulations) solve "
      "with the same matrix hundreds of times.\n",
      worst_breakeven);
  return 0;
}

#include "harness/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/format.hpp"
#include "exec/executor.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "sparse/vector_ops.hpp"

namespace fsaic {

std::string MethodConfig::label() const {
  std::string s = to_string(extension);
  if (extension != ExtensionMode::None && filter > 0.0) {
    s += strformat("/%s-%.3g", to_string(strategy), static_cast<double>(filter));
  }
  return s;
}

ExperimentRunner::ExperimentRunner(ExperimentConfig config)
    : config_(std::move(config)) {}

const PreparedSystem& ExperimentRunner::prepare(const SuiteEntry& entry) {
  const auto it = systems_.find(entry.name);
  if (it != systems_.end()) return *it->second;

  const CsrMatrix a = entry.generate();
  FSAIC_CHECK(a.is_symmetric(1e-12 * a.max_abs()),
              "suite generator produced a non-symmetric matrix: " + entry.name);

  const auto nranks = static_cast<rank_t>(std::clamp<offset_t>(
      a.nnz() / config_.nnz_per_rank, config_.min_ranks, config_.max_ranks));
  auto sys = std::make_unique<PreparedSystem>(PreparedSystem{
      distribute_system(a, nranks, CommConfig{}, config_.seed),
      entry.name, DistVector{}, nranks});

  // Random right-hand side normalized to the matrix max norm, zero initial
  // guess (Section 5.1). The RHS is seeded per matrix for reproducibility
  // and generated in the *original* ordering, then permuted, so it does not
  // depend on the rank count. FNV-1a rather than std::hash keeps the stream
  // identical across standard libraries.
  std::vector<value_t> b = synthesize_rhs(
      config_.seed ^ fnv1a64(entry.name.data(), entry.name.size()), a.rows());
  const value_t bmax = norm_inf(b);
  if (bmax > 0.0) scale(a.max_abs() / bmax, b);
  sys->b = sys->to_layout(b);

  return *systems_.emplace(entry.name, std::move(sys)).first->second;
}

const RunRecord& ExperimentRunner::run(const SuiteEntry& entry,
                                       const MethodConfig& method) {
  const std::string key = entry.name + "|" + method.label();
  const auto it = runs_.find(key);
  if (it != runs_.end()) return *it->second;

  const PreparedSystem& sys = prepare(entry);

  FsaiOptions fopts;
  fopts.extension = method.extension;
  fopts.cache_line_bytes = config_.machine.l1.line_bytes;
  fopts.filter = method.filter;
  fopts.filter_strategy = method.strategy;
  // The setup row loops run on the same executor as the solve.
  fopts.exec = config_.solve.exec;
  using clock = std::chrono::steady_clock;
  const auto t_setup = clock::now();
  FsaiBuildResult build =
      build_fsai_preconditioner(sys.assembled(), sys.layout(), fopts);

  const auto precond = make_factorized_preconditioner(build, method.label());
  DistVector x(sys.layout());
  const auto t_solve = clock::now();
  const SolveResult solve = pcg_solve(sys.a_dist, sys.b, x, *precond, config_.solve);
  const auto t_done = clock::now();

  const CostModel cost_model(
      config_.machine, CostModelOptions{.threads_per_rank = config_.threads_per_rank});
  const PcgIterationCost iter_cost =
      cost_model.pcg_iteration_cost(sys.a_dist, build.g_dist, build.gt_dist);

  auto rec = std::make_unique<RunRecord>();
  rec->matrix = entry.name;
  rec->method = method.label();
  rec->nranks = sys.nranks;
  rec->rows = sys.assembled().rows();
  rec->matrix_nnz = sys.assembled().nnz();
  rec->converged = solve.converged;
  rec->iterations = solve.iterations;
  rec->iter_cost = iter_cost.total();
  rec->precond_cost = iter_cost.precond_total();
  rec->modeled_time = static_cast<double>(solve.iterations) * rec->iter_cost;
  rec->nnz_increase_pct = build.nnz_increase_pct;
  rec->imbalance_g = build.imbalance_g;
  rec->imbalance_gt = build.imbalance_gt;
  rec->precond_gflops =
      cost_model.precond_gflops_per_process(build.g_dist, build.gt_dist);
  const std::int64_t misses = cost_model.spmv_x_misses(build.g_dist) +
                              cost_model.spmv_x_misses(build.gt_dist);
  rec->x_misses_per_gnnz = build.g.nnz() > 0
                               ? static_cast<double>(misses) /
                                     static_cast<double>(2 * build.g.nnz())
                               : 0.0;
  rec->halo_bytes_g = build.g_dist.halo_update_bytes();
  rec->halo_msgs_g = build.g_dist.halo_update_messages();
  rec->g_nnz = build.g.nnz();

  rec->solve_halo_bytes = solve.comm.halo_bytes;
  rec->solve_halo_messages = solve.comm.halo_messages;
  rec->solve_allreduce_count = solve.comm.allreduce_count;
  rec->solve_allreduce_bytes = solve.comm.allreduce_bytes;
  rec->solve_neighbor_pairs =
      static_cast<std::int64_t>(solve.comm.neighbor_pair_count());
  rec->setup_seconds =
      std::chrono::duration<double>(t_solve - t_setup).count();
  rec->solve_seconds = std::chrono::duration<double>(t_done - t_solve).count();

  const FsaiFactorStats& prov = build.provisional_factor_stats;
  const FsaiFactorStats& fin = build.factor_stats;
  rec->setup_rows_solved = prov.rows_solved + fin.rows_solved;
  rec->setup_rows_reused = fin.rows_reused;
  rec->setup_gram_entries = prov.gram_entries_gathered + fin.gram_entries_gathered;
  rec->provisional_fallback_rows = prov.fallback_rows;
  rec->provisional_degenerate_rows = prov.degenerate_rows;
  rec->factor_fallback_rows = fin.fallback_rows;
  rec->factor_degenerate_rows = fin.degenerate_rows;

  if (metrics_ != nullptr) {
    metrics_->add("runs", 1);
    metrics_->set("exec.threads",
                  resolve_executor(config_.solve.exec).nthreads());
    record_comm_stats(*metrics_, "solve", solve.comm);
    record_comm_stats(*metrics_, "setup", build.setup_comm);
    metrics_->add("setup.rows_solved", rec->setup_rows_solved);
    metrics_->add("setup.rows_reused", rec->setup_rows_reused);
    metrics_->add("setup.gram_entries_gathered", rec->setup_gram_entries);
    metrics_->set("run.precond_gflops", rec->precond_gflops);
    metrics_->set("run.x_misses_per_gnnz", rec->x_misses_per_gnnz);
    metrics_->set("run.imbalance_g", rec->imbalance_g);
    metrics_->set("run.imbalance_gt", rec->imbalance_gt);
  }
  if (report_ != nullptr) report_->write(run_record_to_json(*rec));

  return *runs_.emplace(key, std::move(rec)).first->second;
}

JsonValue run_record_to_json(const RunRecord& rec) {
  JsonValue out = JsonValue::object();
  out["kind"] = "run";
  out["matrix"] = rec.matrix;
  out["method"] = rec.method;
  out["nranks"] = rec.nranks;
  out["rows"] = rec.rows;
  out["matrix_nnz"] = rec.matrix_nnz;
  out["converged"] = rec.converged;
  out["iterations"] = rec.iterations;
  out["modeled_time"] = rec.modeled_time;
  out["iter_cost"] = rec.iter_cost;
  out["precond_cost"] = rec.precond_cost;
  out["nnz_increase_pct"] = rec.nnz_increase_pct;
  out["imbalance_g"] = rec.imbalance_g;
  out["imbalance_gt"] = rec.imbalance_gt;
  out["precond_gflops"] = rec.precond_gflops;
  out["x_misses_per_gnnz"] = rec.x_misses_per_gnnz;
  out["halo_bytes_g"] = rec.halo_bytes_g;
  out["halo_msgs_g"] = rec.halo_msgs_g;
  out["g_nnz"] = rec.g_nnz;
  out["solve_halo_bytes"] = rec.solve_halo_bytes;
  out["solve_halo_messages"] = rec.solve_halo_messages;
  out["solve_allreduce_count"] = rec.solve_allreduce_count;
  out["solve_allreduce_bytes"] = rec.solve_allreduce_bytes;
  out["solve_neighbor_pairs"] = rec.solve_neighbor_pairs;
  out["setup_seconds"] = rec.setup_seconds;
  out["solve_seconds"] = rec.solve_seconds;
  out["setup_rows_solved"] = rec.setup_rows_solved;
  out["setup_rows_reused"] = rec.setup_rows_reused;
  out["setup_gram_entries"] = rec.setup_gram_entries;
  out["provisional_fallback_rows"] = rec.provisional_fallback_rows;
  out["provisional_degenerate_rows"] = rec.provisional_degenerate_rows;
  out["factor_fallback_rows"] = rec.factor_fallback_rows;
  out["factor_degenerate_rows"] = rec.factor_degenerate_rows;
  return out;
}

RunRecord run_record_from_json(const JsonValue& json) {
  RunRecord rec;
  rec.matrix = json.at("matrix").as_string();
  rec.method = json.at("method").as_string();
  rec.nranks = static_cast<rank_t>(json.at("nranks").as_int());
  rec.rows = static_cast<index_t>(json.at("rows").as_int());
  rec.matrix_nnz = static_cast<offset_t>(json.at("matrix_nnz").as_int());
  rec.converged = json.at("converged").as_bool();
  rec.iterations = static_cast<int>(json.at("iterations").as_int());
  rec.modeled_time = json.at("modeled_time").as_double();
  rec.iter_cost = json.at("iter_cost").as_double();
  rec.precond_cost = json.at("precond_cost").as_double();
  rec.nnz_increase_pct = json.at("nnz_increase_pct").as_double();
  rec.imbalance_g = json.at("imbalance_g").as_double();
  rec.imbalance_gt = json.at("imbalance_gt").as_double();
  rec.precond_gflops = json.at("precond_gflops").as_double();
  rec.x_misses_per_gnnz = json.at("x_misses_per_gnnz").as_double();
  rec.halo_bytes_g = json.at("halo_bytes_g").as_int();
  rec.halo_msgs_g = json.at("halo_msgs_g").as_int();
  rec.g_nnz = static_cast<offset_t>(json.at("g_nnz").as_int());
  rec.solve_halo_bytes = json.at("solve_halo_bytes").as_int();
  rec.solve_halo_messages = json.at("solve_halo_messages").as_int();
  rec.solve_allreduce_count = json.at("solve_allreduce_count").as_int();
  rec.solve_allreduce_bytes = json.at("solve_allreduce_bytes").as_int();
  rec.solve_neighbor_pairs = json.at("solve_neighbor_pairs").as_int();
  rec.setup_seconds = json.at("setup_seconds").as_double();
  rec.solve_seconds = json.at("solve_seconds").as_double();
  rec.setup_rows_solved = json.at("setup_rows_solved").as_int();
  rec.setup_rows_reused = json.at("setup_rows_reused").as_int();
  rec.setup_gram_entries = json.at("setup_gram_entries").as_int();
  rec.provisional_fallback_rows = json.at("provisional_fallback_rows").as_int();
  rec.provisional_degenerate_rows = json.at("provisional_degenerate_rows").as_int();
  rec.factor_fallback_rows = json.at("factor_fallback_rows").as_int();
  rec.factor_degenerate_rows = json.at("factor_degenerate_rows").as_int();
  return rec;
}

Improvement improvement_over(const RunRecord& base, const RunRecord& run) {
  Improvement imp;
  if (base.iterations > 0) {
    imp.iterations_pct = 100.0 *
                         (static_cast<double>(base.iterations) -
                          static_cast<double>(run.iterations)) /
                         static_cast<double>(base.iterations);
  }
  if (base.modeled_time > 0.0) {
    imp.time_pct =
        100.0 * (base.modeled_time - run.modeled_time) / base.modeled_time;
  }
  return imp;
}

SummaryRow summarize(const std::vector<Improvement>& improvements) {
  SummaryRow row;
  if (improvements.empty()) return row;
  row.highest_improvement_pct = improvements.front().time_pct;
  row.highest_degradation_pct = improvements.front().time_pct;
  for (const auto& imp : improvements) {
    row.avg_iterations_pct += imp.iterations_pct;
    row.avg_time_pct += imp.time_pct;
    row.highest_improvement_pct =
        std::max(row.highest_improvement_pct, imp.time_pct);
    row.highest_degradation_pct =
        std::min(row.highest_degradation_pct, imp.time_pct);
  }
  const auto n = static_cast<double>(improvements.size());
  row.avg_iterations_pct /= n;
  row.avg_time_pct /= n;
  return row;
}

std::vector<Improvement> best_filter_improvements(
    ExperimentRunner& runner, const std::vector<SuiteEntry>& suite,
    ExtensionMode extension, FilterStrategy strategy,
    const std::vector<value_t>& filters) {
  std::vector<Improvement> out;
  out.reserve(suite.size());
  for (const auto& entry : suite) {
    const RunRecord& base = runner.baseline(entry);
    const RunRecord* best = nullptr;
    for (value_t f : filters) {
      const RunRecord& rec = runner.run(entry, {extension, strategy, f});
      if (best == nullptr || rec.modeled_time < best->modeled_time) {
        best = &rec;
      }
    }
    out.push_back(improvement_over(base, *best));
  }
  return out;
}

std::vector<Improvement> fixed_filter_improvements(
    ExperimentRunner& runner, const std::vector<SuiteEntry>& suite,
    ExtensionMode extension, FilterStrategy strategy, value_t filter) {
  std::vector<Improvement> out;
  out.reserve(suite.size());
  for (const auto& entry : suite) {
    const RunRecord& base = runner.baseline(entry);
    const RunRecord& rec = runner.run(entry, {extension, strategy, filter});
    out.push_back(improvement_over(base, rec));
  }
  return out;
}

}  // namespace fsaic

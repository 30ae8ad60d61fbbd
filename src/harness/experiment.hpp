// Shared experiment harness: prepares suite matrices (generate → partition →
// distribute → right-hand side, through pipeline/solve_pipeline.hpp), runs
// (method, filter) configurations to convergence, attaches modeled time
// from the machine cost model, memoizes everything in-process, and
// aggregates the paper's summary statistics.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/fsai_driver.hpp"
#include "matgen/suite.hpp"
#include "obs/json.hpp"
#include "perf/cost_model.hpp"
#include "pipeline/solve_pipeline.hpp"
#include "solver/pcg.hpp"

namespace fsaic {

class MetricsRegistry;
class RunReportWriter;

struct ExperimentConfig {
  Machine machine = machine_skylake();
  /// Hybrid configuration: cores (OpenMP threads) per simulated MPI rank.
  int threads_per_rank = 8;
  /// Rank-count rule, scaled version of the paper's 256K-nnz-per-thread
  /// start: nranks ≈ nnz / nnz_per_rank, clamped to [min_ranks, max_ranks].
  offset_t nnz_per_rank = 12000;
  rank_t min_ranks = 2;
  rank_t max_ranks = 16;
  SolveOptions solve{.rel_tol = 1e-8, .max_iterations = 20000};
  std::uint64_t seed = 777;
};

/// One preconditioner configuration to evaluate.
struct MethodConfig {
  ExtensionMode extension = ExtensionMode::None;
  FilterStrategy strategy = FilterStrategy::Dynamic;
  value_t filter = 0.0;

  [[nodiscard]] std::string label() const;
};

/// Everything measured for one (matrix, method) run.
struct RunRecord {
  std::string matrix;
  std::string method;
  rank_t nranks = 0;
  index_t rows = 0;
  offset_t matrix_nnz = 0;

  bool converged = false;
  int iterations = 0;
  double modeled_time = 0.0;     ///< iterations * modeled PCG iteration cost
  double iter_cost = 0.0;
  double precond_cost = 0.0;     ///< modeled cost of G^T G x per iteration
  double nnz_increase_pct = 0.0; ///< the paper's "% NNZ"
  double imbalance_g = 1.0;
  double imbalance_gt = 1.0;
  double precond_gflops = 0.0;   ///< GFLOP/s per process in G^T G x
  double x_misses_per_gnnz = 0.0;///< L1 DCM on x per nnz(G) (Fig. 3a metric)
  std::int64_t halo_bytes_g = 0; ///< bytes of one G halo update
  std::int64_t halo_msgs_g = 0;
  offset_t g_nnz = 0;

  /// Solve-phase fabric traffic totals (copied from SolveResult::comm).
  std::int64_t solve_halo_bytes = 0;
  std::int64_t solve_halo_messages = 0;
  std::int64_t solve_allreduce_count = 0;
  std::int64_t solve_allreduce_bytes = 0;
  std::int64_t solve_neighbor_pairs = 0;

  /// Measured wall time of the preconditioner build / the solve, seconds
  /// (host time of the simulation, distinct from modeled_time).
  double setup_seconds = 0.0;
  double solve_seconds = 0.0;

  /// Setup accounting: row systems actually solved (provisional + final),
  /// final rows copied verbatim from the provisional factor, and matrix
  /// entries scattered by the gather assembly.
  std::int64_t setup_rows_solved = 0;
  std::int64_t setup_rows_reused = 0;
  std::int64_t setup_gram_entries = 0;
  std::int64_t provisional_fallback_rows = 0;
  std::int64_t provisional_degenerate_rows = 0;
  std::int64_t factor_fallback_rows = 0;
  std::int64_t factor_degenerate_rows = 0;
};

/// A prepared suite system: the partitioned, distributed operator plus the
/// paper's scaled right-hand side in the distributed numbering.
struct PreparedSystem : SolveSystem {
  std::string name;
  DistVector b;
  rank_t nranks = 0;
};

class ExperimentRunner {
 public:
  explicit ExperimentRunner(ExperimentConfig config);

  [[nodiscard]] const ExperimentConfig& config() const { return config_; }

  /// Prepare (or fetch from cache) the distributed system of a suite entry.
  const PreparedSystem& prepare(const SuiteEntry& entry);

  /// Run (or fetch from cache) one method on one matrix.
  const RunRecord& run(const SuiteEntry& entry, const MethodConfig& method);

  /// Convenience: the FSAI baseline record for a matrix.
  const RunRecord& baseline(const SuiteEntry& entry) {
    return run(entry, MethodConfig{ExtensionMode::None, FilterStrategy::Static, 0.0});
  }

  /// Attach a JSONL report writer (borrowed): every *newly computed* run
  /// appends one record; memoized re-reads do not write again.
  void set_report_writer(RunReportWriter* writer) { report_ = writer; }

  /// Attach a metrics registry (borrowed): runs accumulate solve comm
  /// counters and publish cache/GFLOP gauges into it.
  void set_metrics(MetricsRegistry* metrics) { metrics_ = metrics; }

 private:
  ExperimentConfig config_;
  std::map<std::string, std::unique_ptr<PreparedSystem>> systems_;
  std::map<std::string, std::unique_ptr<RunRecord>> runs_;
  RunReportWriter* report_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
};

/// Serialize a RunRecord to a flat JSON object (one JSONL report line) and
/// back. to_json/from_json round-trip every field bit-exactly for integers.
[[nodiscard]] JsonValue run_record_to_json(const RunRecord& rec);
[[nodiscard]] RunRecord run_record_from_json(const JsonValue& json);

/// Percentage improvements of `run` over `base` (positive = better).
struct Improvement {
  double iterations_pct = 0.0;
  double time_pct = 0.0;
};

[[nodiscard]] Improvement improvement_over(const RunRecord& base,
                                           const RunRecord& run);

/// Paper-style summary over a set of per-matrix improvements: average
/// iteration / time decrease, highest improvement and worst degradation.
struct SummaryRow {
  double avg_iterations_pct = 0.0;
  double avg_time_pct = 0.0;
  double highest_improvement_pct = 0.0;
  double highest_degradation_pct = 0.0;  ///< most negative time improvement
};

[[nodiscard]] SummaryRow summarize(const std::vector<Improvement>& improvements);

/// Element-wise best-filter envelope: for each matrix pick the filter value
/// whose run has the smallest modeled time, then compare with the baseline.
[[nodiscard]] std::vector<Improvement> best_filter_improvements(
    ExperimentRunner& runner, const std::vector<SuiteEntry>& suite,
    ExtensionMode extension, FilterStrategy strategy,
    const std::vector<value_t>& filters);

/// Fixed-filter improvements for every matrix of the suite.
[[nodiscard]] std::vector<Improvement> fixed_filter_improvements(
    ExperimentRunner& runner, const std::vector<SuiteEntry>& suite,
    ExtensionMode extension, FilterStrategy strategy, value_t filter);

}  // namespace fsaic

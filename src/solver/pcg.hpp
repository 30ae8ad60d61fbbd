// Distributed (preconditioned) Conjugate Gradient, Section 2.1 of the paper.
#pragma once

#include <vector>

#include "dist/comm_stats.hpp"
#include "dist/dist_csr.hpp"
#include "dist/dist_vector.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "solver/preconditioner.hpp"

namespace fsaic {

struct SolveOptions {
  /// Converged when ||r_k||_2 <= rel_tol * ||r_0||_2 (the paper reduces the
  /// initial residual by eight orders of magnitude).
  value_t rel_tol = 1e-8;
  int max_iterations = 20000;
  /// When positive, the convergence target is rel_tol * reference_residual
  /// instead of rel_tol * ||r_0||_2 — the warm-start contract: a solve
  /// started from a cached solution x0 keeps chasing the *cold* solve's
  /// absolute target rather than rel_tol times its own (already tiny)
  /// initial residual, and returns immediately (0 iterations) when x0
  /// already meets it. 0 (the default) preserves the classic relative test.
  value_t reference_residual = 0.0;
  /// Append ||r_k|| of every iteration to SolveResult::residual_history
  /// (the initial residual is recorded regardless).
  bool track_residual_history = false;
  /// Optional per-iteration observer: residual, comm deltas, wall time.
  /// Borrowed; must outlive the solve. Called exactly `iterations` times.
  TelemetrySink* sink = nullptr;
  /// Optional phase/counter trace recorder (Chrome trace_event). Borrowed.
  /// Attach the same recorder to the preconditioner (set_trace) to also get
  /// its G / G^T sub-phases.
  TraceRecorder* trace = nullptr;
  /// Executor running the per-rank supersteps of the iteration body (SpMV,
  /// preconditioner application, vector kernels, reductions). Borrowed;
  /// nullptr -> the process-wide default (sequential unless FSAIC_THREADS
  /// is set). Residual histories are bit-identical across executors.
  Executor* exec = nullptr;
};

struct SolveResult {
  bool converged = false;
  int iterations = 0;
  value_t initial_residual = 0.0;
  value_t final_residual = 0.0;
  /// Always holds ||r_0|| as its first entry; the per-iteration tail is
  /// recorded only when SolveOptions::track_residual_history is set.
  std::vector<value_t> residual_history;
  /// Fabric traffic of the whole solve (halo updates + allreduces).
  CommStats comm;
};

/// Preconditioned CG: solves A x = b with preconditioner z = M r. `x` holds
/// the initial guess on entry and the solution on exit.
[[nodiscard]] SolveResult pcg_solve(const DistCsr& a, const DistVector& b,
                                    DistVector& x, const Preconditioner& m,
                                    const SolveOptions& options = {});

/// Unpreconditioned CG (identity preconditioner fast path: no z vector).
[[nodiscard]] SolveResult cg_solve(const DistCsr& a, const DistVector& b,
                                   DistVector& x, const SolveOptions& options = {});

}  // namespace fsaic

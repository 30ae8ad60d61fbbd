// Executor abstraction of the simulated distributed runtime.
//
// Every distributed operation (halo exchange + SpMV, dot products, AXPYs,
// the factor applications) is phrased as supersteps over the simulated
// ranks: parallel_ranks(n, f) runs f(p) for every rank p, and
// allreduce_sum() combines per-rank partial reductions. The sequential
// executor runs ranks in a plain loop (the pre-existing behaviour); the
// threaded executor runs them on a persistent SPMD thread team.
//
// Determinism contract: both executors combine reduction partials with the
// SAME fixed-order binary tree (tree_combine_step below), so every solver
// produces bit-identical residual histories regardless of the executor or
// its thread count. The tree's shape depends only on the number of ranks.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace fsaic {

/// Synchronization counters of an executor (all zero for the sequential one).
struct ExecStats {
  int nthreads = 1;
  std::uint64_t supersteps = 0;
  std::uint64_t allreduces = 0;
  /// Per team slot: accumulated time spent waiting for the rest of the team
  /// at the end of supersteps (load imbalance). Empty for the sequential
  /// executor.
  std::vector<double> barrier_wait_us;

  [[nodiscard]] double max_barrier_wait_us() const {
    double m = 0.0;
    for (double w : barrier_wait_us) m = std::max(m, w);
    return m;
  }
};

/// One rank's combine of the fixed-order reduction tree at level `stride`:
/// ranks whose id is a multiple of 2*stride absorb the partials of rank
/// p + stride (when it exists). Applying strides 1, 2, 4, ... leaves the
/// tree-combined sums in row 0 of `partials` (nranks rows of `width`).
/// Shared by both executors — this is what makes them bit-identical.
void tree_combine_step(std::span<value_t> partials, rank_t nranks, int width,
                       rank_t stride, rank_t p);

/// The full fixed-order tree reduction run serially: strides 1, 2, 4, ...
/// over nranks rows of `width`, leaving the sums in `out`. This is the exact
/// addition sequence both executors' blocking allreduce performs, and what
/// both run for asynchronous reductions — one code path, so every variant is
/// bit-identical.
void tree_reduce_serial(std::span<value_t> partials, int width,
                        std::span<value_t> out);

/// Handle to an asynchronous sum-allreduce started with
/// Executor::allreduce_begin. Both executors reduce eagerly on the calling
/// thread at begin: with the SPMD team busy on every core, a separate
/// combiner thread has no core to overlap on. wait() delivers the
/// fixed-order tree result — bit-identical to a blocking allreduce_sum of
/// the same partials.
class AsyncAllreduce {
 public:
  AsyncAllreduce() = default;

  /// True while a begun reduction has not been waited on.
  [[nodiscard]] bool pending() const { return !result_.empty(); }

  /// Copy the sums into `out` (size width) and release the handle.
  void wait(std::span<value_t> out);

 private:
  friend class SeqExecutor;
  friend class ThreadedExecutor;

  /// Reduce nranks rows of `width` partials now.
  AsyncAllreduce(std::vector<value_t> partials, int width);

  std::vector<value_t> result_;  ///< width sums; empty once waited on
};

class Executor {
 public:
  virtual ~Executor() = default;

  [[nodiscard]] virtual bool threaded() const = 0;
  [[nodiscard]] virtual int nthreads() const = 0;

  /// One superstep: f(p) for every rank p in [0, nranks). The threaded
  /// executor runs ranks concurrently and waits for all before returning;
  /// rank bodies may only write rank-private data (their own vector blocks,
  /// their own row of a partials array, their own mailboxes).
  virtual void parallel_ranks(rank_t nranks,
                              const std::function<void(rank_t)>& f) = 0;

  /// One superstep with two per-rank phases and NO barrier between them:
  /// each executing thread runs post(p) for every rank of its slice, then
  /// work(p) for every rank of its slice. Because all of a thread's posts
  /// precede all of its works, a work body may block on data produced by
  /// any rank's post (the node-aware halo drain) without deadlock — and the
  /// part of work that runs before the blocking wait genuinely overlaps
  /// with other threads' posts. post bodies must never block. The
  /// sequential executor runs all posts then all works.
  virtual void parallel_ranks_phased(rank_t nranks,
                                     const std::function<void(rank_t)>& post,
                                     const std::function<void(rank_t)>& work) = 0;

  /// Deterministic sum-allreduce: `partials` holds nranks rows of `width`
  /// values (row-major, consumed destructively); on return `out` (size
  /// `width`) holds the fixed-order tree-combined sums. Identical bits for
  /// every executor and thread count.
  virtual void allreduce_sum(std::span<value_t> partials, int width,
                             std::span<value_t> out) = 0;

  /// Start an asynchronous sum-allreduce of nranks rows of `width` values
  /// (the vector is consumed). The returned handle's wait() yields the same
  /// bits as allreduce_sum of the same partials — the same fixed-order tree,
  /// run at begin on the calling thread.
  virtual AsyncAllreduce allreduce_begin(std::vector<value_t> partials,
                                         int width) = 0;

  /// Data-parallel loop over independent work items (the FSAI/SPAI setup row
  /// solves): f(i, slot) for every i in [0, n), where `slot` identifies the
  /// executing lane in [0, parallel_for_width()) so callers can index
  /// per-thread scratch. Unlike parallel_ranks, the iteration space is not a
  /// rank space: items are scheduled in chunks for load balance and the
  /// assignment of items to slots is NOT deterministic — bodies must write
  /// only item-private outputs and slot-private scratch. The sequential
  /// executor runs the loop in order on slot 0; the threaded executor runs
  /// it on the SPMD team.
  virtual void parallel_for(index_t n,
                            const std::function<void(index_t, int)>& f) = 0;

  /// Upper bound (exclusive) on the `slot` values parallel_for passes;
  /// callers size per-thread scratch arrays with it.
  [[nodiscard]] virtual int parallel_for_width() const = 0;

  [[nodiscard]] virtual ExecStats stats() const = 0;
};

/// The plain for-loop executor (default when no executor is supplied and
/// FSAIC_THREADS is unset).
class SeqExecutor final : public Executor {
 public:
  [[nodiscard]] bool threaded() const override { return false; }
  [[nodiscard]] int nthreads() const override { return 1; }
  void parallel_ranks(rank_t nranks,
                      const std::function<void(rank_t)>& f) override;
  void parallel_ranks_phased(rank_t nranks,
                             const std::function<void(rank_t)>& post,
                             const std::function<void(rank_t)>& work) override;
  void allreduce_sum(std::span<value_t> partials, int width,
                     std::span<value_t> out) override;
  AsyncAllreduce allreduce_begin(std::vector<value_t> partials,
                                 int width) override;
  void parallel_for(index_t n,
                    const std::function<void(index_t, int)>& f) override;
  [[nodiscard]] int parallel_for_width() const override { return 1; }
  [[nodiscard]] ExecStats stats() const override;

 private:
  std::uint64_t supersteps_ = 0;
  std::uint64_t allreduces_ = 0;
};

/// Process-wide default executor, built once from ExecPolicy::from_env()
/// (the FSAIC_THREADS environment variable). Distributed operations called
/// without an explicit executor route here, so an entire test binary or
/// bench can be switched to threaded execution from the environment.
Executor& default_executor();

/// `exec` if non-null, otherwise the process-wide default.
inline Executor& resolve_executor(Executor* exec) {
  return exec != nullptr ? *exec : default_executor();
}

}  // namespace fsaic

// Persistent SPMD thread team.
//
// The engine executes "supersteps": run(job) calls job(t) once for every
// slot t in [0, nthreads) and returns once all of them have finished
// (bulk-synchronous, like one MPI communicator stepping through a program).
// The thread calling run() executes slot 0 itself; nthreads - 1 helper
// threads, alive for the engine's lifetime, execute slots 1..nthreads-1.
//
// A superstep costs one broadcast and one countdown: run() publishes the job
// by bumping an atomic generation counter (release) that the helpers wait
// on, and the superstep ends when an atomic pending counter, decremented by
// each helper (acq_rel), reaches zero. Data written before run() is visible
// inside the job, and data written by the job is visible after run()
// returns. Every wait spins briefly, then yields, then sleeps on a futex
// (std::atomic::wait), so a team that shares its cores with other work
// still makes progress.
//
// Exceptions thrown inside a job, on any slot, are captured and the first
// one is rethrown on the calling thread after the superstep completes, so
// FSAIC_REQUIRE/FSAIC_CHECK keep their throwing contract under threaded
// execution.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fsaic {

class SpmdEngine {
 public:
  explicit SpmdEngine(int nthreads);
  ~SpmdEngine();

  SpmdEngine(const SpmdEngine&) = delete;
  SpmdEngine& operator=(const SpmdEngine&) = delete;

  [[nodiscard]] int nthreads() const { return nthreads_; }

  /// Execute one superstep: job(t) for every slot t in [0, nthreads), slot 0
  /// on the calling thread. Blocks until all slots are done; rethrows the
  /// first exception a slot raised. Not reentrant (one superstep at a time).
  void run(const std::function<void(int)>& job);

  /// Supersteps completed so far.
  [[nodiscard]] std::uint64_t supersteps() const { return supersteps_; }

  /// Accumulated wall time of all supersteps (measured by the caller).
  [[nodiscard]] double span_us() const { return span_us_; }

  /// Per-slot busy time inside jobs; span_us() minus a slot's busy time is
  /// the time it spent waiting for the rest of the team (load imbalance).
  [[nodiscard]] const std::vector<double>& busy_us() const { return busy_us_; }

 private:
  void helper_loop(int t);
  /// job_(t), timed into busy_us_[t], with any exception captured.
  void run_slot(int t);

  const int nthreads_;
  const std::function<void(int)>* job_ = nullptr;
  bool stop_ = false;
  std::atomic<std::uint32_t> generation_{0};  ///< bumped to publish a job
  std::atomic<int> pending_{0};  ///< helpers still running this superstep
  std::mutex error_mutex_;
  std::exception_ptr error_;  ///< guarded by error_mutex_ while slots run
  std::uint64_t supersteps_ = 0;
  double span_us_ = 0.0;
  std::vector<double> busy_us_;
  std::vector<std::thread> helpers_;
};

}  // namespace fsaic

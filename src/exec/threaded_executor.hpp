// Threaded executor: simulated ranks run concurrently on the persistent
// SPMD team, whose slot 0 is the calling thread. Ranks are block-distributed
// over the slots, so with nthreads >= nranks every rank runs on its own
// thread; with fewer threads each slot steps through a contiguous slice of
// ranks per superstep.
//
// The allreduce runs the shared fixed-order reduction tree as one superstep
// per tree level — the threaded and sequential executors perform the exact
// same additions in the exact same pairing, so results are bit-identical
// (see executor.hpp).
#pragma once

#include "exec/executor.hpp"
#include "exec/spmd_engine.hpp"

namespace fsaic {

class ThreadedExecutor final : public Executor {
 public:
  explicit ThreadedExecutor(int nthreads);

  [[nodiscard]] bool threaded() const override { return true; }
  [[nodiscard]] int nthreads() const override { return engine_.nthreads(); }
  void parallel_ranks(rank_t nranks,
                      const std::function<void(rank_t)>& f) override;
  void parallel_ranks_phased(rank_t nranks,
                             const std::function<void(rank_t)>& post,
                             const std::function<void(rank_t)>& work) override;
  void allreduce_sum(std::span<value_t> partials, int width,
                     std::span<value_t> out) override;
  AsyncAllreduce allreduce_begin(std::vector<value_t> partials,
                                 int width) override;
  /// Work items are claimed by the team in contiguous chunks off a shared
  /// atomic cursor (the thread-team analogue of OpenMP's dynamic schedule),
  /// so irregular per-row costs load-balance; `slot` is the worker id.
  void parallel_for(index_t n,
                    const std::function<void(index_t, int)>& f) override;
  [[nodiscard]] int parallel_for_width() const override;
  [[nodiscard]] ExecStats stats() const override;

 private:
  SpmdEngine engine_;
  std::uint64_t allreduces_ = 0;
};

}  // namespace fsaic

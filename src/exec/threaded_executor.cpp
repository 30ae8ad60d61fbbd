#include "exec/threaded_executor.hpp"

#include <algorithm>
#include <atomic>

#include "common/error.hpp"

namespace fsaic {

namespace {

// Set while a team slot executes a rank body. A distributed operation invoked
// from inside a superstep (e.g. a preconditioner that calls spmv from a rank
// body) must not re-enter the engine — the team is busy with the outer
// superstep — so nested parallel regions degrade to an inline loop on the
// calling thread. The slot is remembered alongside so a degraded
// parallel_for still indexes that slot's private scratch.
thread_local bool in_spmd_region = false;
thread_local int spmd_worker_slot = 0;

// RAII so the flag is restored even when a rank body throws (the engine
// captures the exception and the thread lives on).
struct SpmdRegionGuard {
  explicit SpmdRegionGuard(int slot) {
    in_spmd_region = true;
    spmd_worker_slot = slot;
  }
  ~SpmdRegionGuard() {
    in_spmd_region = false;
    spmd_worker_slot = 0;
  }
};

}  // namespace

ThreadedExecutor::ThreadedExecutor(int nthreads) : engine_(nthreads) {
  FSAIC_REQUIRE(nthreads >= 2, "threaded executor needs at least two threads");
}

void ThreadedExecutor::parallel_ranks_phased(
    rank_t nranks, const std::function<void(rank_t)>& post,
    const std::function<void(rank_t)>& work) {
  if (in_spmd_region) {
    for (rank_t p = 0; p < nranks; ++p) post(p);
    for (rank_t p = 0; p < nranks; ++p) work(p);
    return;
  }
  const auto nt = static_cast<rank_t>(engine_.nthreads());
  engine_.run([&](int t) {
    const rank_t lo = static_cast<rank_t>(t) * nranks / nt;
    const rank_t hi = (static_cast<rank_t>(t) + 1) * nranks / nt;
    const SpmdRegionGuard guard(t);
    // All of this thread's posts precede all of its works, so a blocking
    // wait inside work(p) can only be waiting on another thread's post —
    // which needs no cooperation from this thread to complete.
    for (rank_t p = lo; p < hi; ++p) {
      post(p);
    }
    for (rank_t p = lo; p < hi; ++p) {
      work(p);
    }
  });
}

void ThreadedExecutor::parallel_ranks(rank_t nranks,
                                      const std::function<void(rank_t)>& f) {
  if (in_spmd_region) {
    for (rank_t p = 0; p < nranks; ++p) f(p);
    return;
  }
  const auto nt = static_cast<rank_t>(engine_.nthreads());
  engine_.run([&](int t) {
    // Contiguous rank slice of thread t; empty when nranks < nthreads.
    const rank_t lo = static_cast<rank_t>(t) * nranks / nt;
    const rank_t hi = (static_cast<rank_t>(t) + 1) * nranks / nt;
    const SpmdRegionGuard guard(t);
    for (rank_t p = lo; p < hi; ++p) {
      f(p);
    }
  });
}

void ThreadedExecutor::parallel_for(index_t n,
                                    const std::function<void(index_t, int)>& f) {
  if (n <= 0) return;
  if (in_spmd_region) {
    const int slot = spmd_worker_slot;
    for (index_t i = 0; i < n; ++i) f(i, slot);
    return;
  }
  const auto nt = static_cast<index_t>(engine_.nthreads());
  // Chunks sized for ~4 claims per worker, capped at 64 items so irregular
  // row costs still balance across the team.
  const index_t chunk =
      std::clamp<index_t>((n + 4 * nt - 1) / (4 * nt), 1, 64);
  std::atomic<index_t> cursor{0};
  engine_.run([&](int t) {
    const SpmdRegionGuard guard(t);
    for (;;) {
      const index_t begin = cursor.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) break;
      const index_t end = std::min<index_t>(n, begin + chunk);
      for (index_t i = begin; i < end; ++i) {
        f(i, t);
      }
    }
  });
}

int ThreadedExecutor::parallel_for_width() const { return engine_.nthreads(); }

void ThreadedExecutor::allreduce_sum(std::span<value_t> partials, int width,
                                     std::span<value_t> out) {
  FSAIC_REQUIRE(width >= 1 && partials.size() % static_cast<std::size_t>(width) == 0,
                "allreduce partials must be nranks rows of width values");
  FSAIC_REQUIRE(out.size() == static_cast<std::size_t>(width),
                "allreduce output must hold width values");
  const auto nranks =
      static_cast<rank_t>(partials.size() / static_cast<std::size_t>(width));
  // One superstep per tree level; the end of each superstep publishes the
  // partial sums of level l to the combining ranks of level l+1.
  for (rank_t stride = 1; stride < nranks; stride *= 2) {
    parallel_ranks(nranks, [&](rank_t p) {
      tree_combine_step(partials, nranks, width, stride, p);
    });
  }
  for (int c = 0; c < width; ++c) {
    out[static_cast<std::size_t>(c)] =
        nranks > 0 ? partials[static_cast<std::size_t>(c)] : 0.0;
  }
  ++allreduces_;
}

AsyncAllreduce ThreadedExecutor::allreduce_begin(std::vector<value_t> partials,
                                                 int width) {
  AsyncAllreduce handle(std::move(partials), width);
  ++allreduces_;
  return handle;
}

ExecStats ThreadedExecutor::stats() const {
  ExecStats s;
  s.nthreads = engine_.nthreads();
  s.supersteps = engine_.supersteps();
  s.allreduces = allreduces_;
  s.barrier_wait_us.reserve(engine_.busy_us().size());
  for (double busy : engine_.busy_us()) {
    s.barrier_wait_us.push_back(std::max(0.0, engine_.span_us() - busy));
  }
  return s;
}

}  // namespace fsaic

#include "exec/threaded_executor.hpp"

#include <algorithm>
#include <atomic>

#include "common/error.hpp"

namespace fsaic {

namespace {

// Set while a worker executes a rank body. A distributed operation invoked
// from inside a superstep (e.g. a preconditioner that calls spmv from a rank
// body) must not re-enter the engine — it would deadlock on the barriers —
// so nested parallel regions degrade to an inline loop on the calling
// thread. The worker slot is remembered alongside so a degraded
// parallel_for still indexes that worker's private scratch.
thread_local bool in_spmd_region = false;
thread_local int spmd_worker_slot = 0;

// RAII so the flag is restored even when a rank body throws (the engine
// captures the exception and the worker thread lives on).
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

ThreadedExecutor::~ThreadedExecutor() {
  {
    const std::lock_guard<std::mutex> lock(combiner_mutex_);
    combiner_stop_ = true;
  }
  combiner_cv_.notify_all();
  if (combiner_.joinable()) combiner_.join();
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
  // One superstep per tree level; the barrier between levels publishes the
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

void ThreadedExecutor::ensure_combiner() {
  if (combiner_.joinable()) return;
  combiner_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(combiner_mutex_);
    for (;;) {
      combiner_cv_.wait(
          lock, [&] { return combiner_stop_ || !combiner_queue_.empty(); });
      if (combiner_queue_.empty()) {
        if (combiner_stop_) return;
        continue;
      }
      auto state = std::move(combiner_queue_.front());
      combiner_queue_.pop_front();
      lock.unlock();
      tree_reduce_serial(state->partials, state->width, state->result);
      {
        const std::lock_guard<std::mutex> state_lock(state->mutex);
        state->done = true;
      }
      state->cv.notify_all();
      lock.lock();
    }
  });
}

AsyncAllreduce ThreadedExecutor::allreduce_begin(std::vector<value_t> partials,
                                                 int width) {
  AsyncAllreduce handle;
  handle.state_ = std::make_shared<AsyncAllreduce::State>();
  handle.state_->width = width;
  handle.state_->partials = std::move(partials);
  handle.state_->result.assign(static_cast<std::size_t>(width), 0.0);
  FSAIC_REQUIRE(width >= 1 &&
                    handle.state_->partials.size() %
                            static_cast<std::size_t>(width) ==
                        0,
                "allreduce partials must be nranks rows of width values");
  {
    const std::lock_guard<std::mutex> lock(combiner_mutex_);
    ensure_combiner();
    combiner_queue_.push_back(handle.state_);
  }
  combiner_cv_.notify_one();
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

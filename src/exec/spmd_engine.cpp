#include "exec/spmd_engine.hpp"

#include <chrono>

#include "common/error.hpp"
#include "common/format.hpp"
#include "obs/trace.hpp"

namespace fsaic {

namespace {

using Clock = std::chrono::steady_clock;

// The wait policy. The other side of a superstep is usually microseconds
// away, so a waiter first spins with a relax hint; then it yields, so that
// on an oversubscribed core (more team threads than free CPUs, e.g. a
// threaded test suite run in parallel) the thread it waits for gets to run;
// only then does it sleep on the futex. On 4 vCPUs, a spin-only policy
// (4096 pauses, no yields) made `FSAIC_THREADS=4 ctest -j4` take 14-20 s
// instead of 5.2-5.4 s.
constexpr int kSpinPauses = 512;
constexpr int kYields = 64;

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Block until done(word) holds. Whoever makes it hold notifies `word`.
template <typename T, typename Done>
void await(const std::atomic<T>& word, Done done) {
  for (int i = 0; i < kSpinPauses; ++i) {
    if (done(word.load(std::memory_order_acquire))) return;
    cpu_relax();
  }
  for (int i = 0; i < kYields; ++i) {
    if (done(word.load(std::memory_order_acquire))) return;
    std::this_thread::yield();
  }
  for (T v = word.load(std::memory_order_acquire); !done(v);
       v = word.load(std::memory_order_acquire)) {
    word.wait(v, std::memory_order_acquire);
  }
}

double micros_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

}  // namespace

SpmdEngine::SpmdEngine(int nthreads)
    : nthreads_(nthreads), busy_us_(static_cast<std::size_t>(nthreads), 0.0) {
  FSAIC_REQUIRE(nthreads >= 1, "SPMD engine needs at least one thread");
  helpers_.reserve(static_cast<std::size_t>(nthreads - 1));
  for (int t = 1; t < nthreads; ++t) {
    helpers_.emplace_back([this, t] { helper_loop(t); });
  }
}

SpmdEngine::~SpmdEngine() {
  stop_ = true;  // published to the helpers by the generation bump
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  for (auto& th : helpers_) {
    th.join();
  }
}

void SpmdEngine::run(const std::function<void(int)>& job) {
  const auto t0 = Clock::now();
  job_ = &job;
  error_ = nullptr;
  pending_.store(nthreads_ - 1, std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  run_slot(0);
  // Every helper's decrement is a release in one RMW chain, so reading zero
  // makes all of their job writes, busy times and errors visible here.
  await(pending_, [](int n) { return n == 0; });
  span_us_ += micros_since(t0);
  ++supersteps_;
  job_ = nullptr;
  if (error_ != nullptr) {
    std::rethrow_exception(error_);
  }
}

void SpmdEngine::run_slot(int t) {
  const auto t0 = Clock::now();
  try {
    (*job_)(t);
  } catch (...) {
    const std::lock_guard<std::mutex> lock(error_mutex_);
    if (error_ == nullptr) error_ = std::current_exception();
  }
  busy_us_[static_cast<std::size_t>(t)] += micros_since(t0);
}

void SpmdEngine::helper_loop(int t) {
  TraceRecorder::label_current_thread(strformat("spmd worker %d", t));
  // run() waits for every helper before it bumps the generation again, so a
  // helper sees each generation exactly once.
  for (std::uint32_t seen = 0;; ++seen) {
    await(generation_, [seen](std::uint32_t g) { return g != seen; });
    if (stop_) return;
    run_slot(t);
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      pending_.notify_one();
    }
  }
}

}  // namespace fsaic

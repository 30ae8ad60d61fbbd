// Spans recorded by the benchmark driver around its calls into the library.
//
// A span times one call. While its tracer records, the closed span also goes
// into the tracer's fsaic::TraceRecorder as a complete ('X') slice whose
// args carry the span's id, its parent's id (the span open on the same
// thread when it began) and, for serve traffic, the request index. A tracer
// that does not record still times every span, since the driver's metrics
// come from those times, but stores nothing.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

/// The zero of every timestamp the driver records.
inline Clock::time_point epoch() {
  static const Clock::time_point t0 = Clock::now();
  return t0;
}

/// Microseconds since epoch().
inline double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch())
      .count();
}

/// Where spans go. Recording is switched per pass: traced runs alternate
/// untraced and traced passes to measure the tracing overhead.
struct Tracer {
  fsaic::TraceRecorder recorder;
  std::atomic<bool> enabled{false};
  std::atomic<std::int64_t> last_id{0};
};

/// Times one call; on a recording tracer it also stores the span. Spans
/// close in LIFO order per thread (RAII scopes, or close() on the innermost).
class Span {
 public:
  Span(Tracer& tracer, std::string name, std::int64_t request = -1)
      : tracer_(tracer), start_us_(now_us()) {
    if (!tracer.enabled.load()) return;
    name_ = std::move(name);
    id_ = tracer.last_id.fetch_add(1) + 1;
    parent_ = open_.empty() ? 0 : open_.back();
    request_ = request;
    open_.push_back(id_);
  }
  ~Span() { close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// End the span (idempotent); returns its duration in seconds.
  double close() {
    if (closed_) return seconds_;
    closed_ = true;
    const double end_us = now_us();
    seconds_ = (end_us - start_us_) * 1e-6;
    if (id_ != 0) {
      if (!open_.empty() && open_.back() == id_) open_.pop_back();
      std::string args = "{\"span\":" + std::to_string(id_) +
                         ",\"parent\":" + std::to_string(parent_);
      if (request_ >= 0) args += ",\"request\":" + std::to_string(request_);
      tracer_.recorder.complete(name_.c_str(), "layer", start_us_,
                                end_us - start_us_, args + "}");
    }
    return seconds_;
  }

 private:
  static inline thread_local std::vector<std::int64_t> open_;

  Tracer& tracer_;
  const double start_us_;
  std::string name_;
  std::int64_t id_ = 0;  ///< 0 = not recorded
  std::int64_t parent_ = 0;
  std::int64_t request_ = -1;
  bool closed_ = false;
  double seconds_ = 0.0;
};

}  // namespace e2e

// Execution policy: how many real threads drive the simulated ranks.
//
// nthreads <= 1 selects the sequential executor (the default); nthreads >= 2
// selects the threaded SPMD executor. The CLI exposes this as
// `fsaic solve --threads N`; the FSAIC_THREADS environment variable
// configures the process-wide default executor, which is how the test suite
// and the benches are switched to threaded execution without code changes
// (e.g. the ThreadSanitizer CI job runs with FSAIC_THREADS=4).
#pragma once

#include <memory>

#include "exec/executor.hpp"

namespace fsaic {

struct ExecPolicy {
  /// Most threads one executor may start.
  static constexpr int kMaxThreads = 256;

  int nthreads = 1;

  [[nodiscard]] bool threaded() const { return nthreads > 1; }

  /// Policy from FSAIC_THREADS (unset, empty, or unparsable -> sequential;
  /// values are clamped to [1, kMaxThreads]).
  static ExecPolicy from_env();
};

/// Build the executor a policy describes; nthreads above kMaxThreads throws.
std::unique_ptr<Executor> make_executor(const ExecPolicy& policy);

}  // namespace fsaic

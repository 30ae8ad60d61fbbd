#include "exec/exec_policy.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "common/error.hpp"
#include "common/format.hpp"
#include "exec/threaded_executor.hpp"

namespace fsaic {

ExecPolicy ExecPolicy::from_env() {
  ExecPolicy policy;
  const char* env = std::getenv("FSAIC_THREADS");
  if (env == nullptr || *env == '\0') return policy;
  try {
    policy.nthreads = std::clamp(std::stoi(env), 1, kMaxThreads);
  } catch (const std::exception&) {
    policy.nthreads = 1;  // unparsable -> sequential, never a hard failure
  }
  return policy;
}

std::unique_ptr<Executor> make_executor(const ExecPolicy& policy) {
  FSAIC_REQUIRE(policy.nthreads <= ExecPolicy::kMaxThreads,
                strformat("executor threads must be <= %d, got %d",
                          ExecPolicy::kMaxThreads, policy.nthreads));
  if (policy.threaded()) {
    return std::make_unique<ThreadedExecutor>(policy.nthreads);
  }
  return std::make_unique<SeqExecutor>();
}

Executor& default_executor() {
  // Built once, on first use, from the environment; worker threads (if any)
  // persist for the rest of the process.
  static const std::unique_ptr<Executor> exec =
      make_executor(ExecPolicy::from_env());
  return *exec;
}

}  // namespace fsaic

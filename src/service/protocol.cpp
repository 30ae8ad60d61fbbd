#include "service/protocol.hpp"

#include <cmath>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/format.hpp"
#include "pipeline/solve_pipeline.hpp"
#include "wgen/wgen.hpp"

namespace fsaic {

namespace {

const JsonValue* find_key(const JsonValue& v, const char* key) {
  return v.find(key);
}

std::string get_string(const JsonValue& v, const char* key,
                       const std::string& fallback) {
  const JsonValue* f = find_key(v, key);
  return f == nullptr ? fallback : f->as_string();
}

double get_number(const JsonValue& v, const char* key, double fallback) {
  const JsonValue* f = find_key(v, key);
  return f == nullptr ? fallback : f->as_double();
}

bool get_bool(const JsonValue& v, const char* key, bool fallback) {
  const JsonValue* f = find_key(v, key);
  return f == nullptr ? fallback : f->as_bool();
}

/// An integer field in [lo, hi]. Fractional, out-of-range and non-finite
/// numbers are rejected: casting them to an integer type would truncate
/// silently or be undefined behaviour. |lo| and |hi| are at most 2^53, so
/// they convert to double exactly.
std::int64_t get_integer(const JsonValue& v, const char* key,
                         std::int64_t fallback, std::int64_t lo,
                         std::int64_t hi) {
  const JsonValue* f = find_key(v, key);
  if (f == nullptr) return fallback;
  bool ok = false;
  if (f->is_int()) {
    ok = f->as_int() >= lo && f->as_int() <= hi;
  } else {
    const double x = f->as_double();
    ok = x >= static_cast<double>(lo) && x <= static_cast<double>(hi) &&
         std::trunc(x) == x;
  }
  FSAIC_REQUIRE(ok, "\"" + std::string(key) + "\" must be an integer in [" +
                        std::to_string(lo) + ", " + std::to_string(hi) + "]");
  return f->is_int() ? f->as_int() : static_cast<std::int64_t>(f->as_double());
}

constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
constexpr std::int64_t kIntMin = std::numeric_limits<int>::min();
/// Largest seed a JSON number carries exactly.
constexpr std::int64_t kMaxSeed = std::int64_t{1} << 53;

}  // namespace

std::string SolveRequest::batch_key() const {
  // The solver/tol/rhs fields are deliberately absent: requests that differ
  // only in those still share the operator setup.
  return (matrix_path.empty() ? "gen:" + generate : "mtx:" + matrix_path) +
         "|" + method + "|" + strformat("%.17g", static_cast<double>(filter)) +
         "|" + filter_strategy + "|" + std::to_string(ranks);
}

SolveRequest parse_request(const JsonValue& v) {
  FSAIC_REQUIRE(v.is_object(), "request must be a JSON object");
  SolveRequest req;
  req.id = get_string(v, "id", "");
  FSAIC_REQUIRE(!req.id.empty(), "request needs a non-empty \"id\"");
  req.matrix_path = get_string(v, "matrix", "");
  req.generate = get_string(v, "generate", "");
  FSAIC_REQUIRE(req.matrix_path.empty() != req.generate.empty(),
                "request needs exactly one of \"matrix\" or \"generate\"");
  req.method = get_string(v, "method", req.method);
  (void)fsai_method_options(req.method);  // the service builds FSAI only
  req.filter = static_cast<value_t>(get_number(v, "filter", req.filter));
  FSAIC_REQUIRE(req.filter >= 0.0, "\"filter\" must be >= 0");
  req.filter_strategy = get_string(v, "filter_strategy", req.filter_strategy);
  FSAIC_REQUIRE(
      req.filter_strategy == "dynamic" || req.filter_strategy == "static",
      "\"filter_strategy\" must be \"dynamic\" or \"static\"");
  req.ranks = static_cast<rank_t>(get_integer(v, "ranks", req.ranks, 1, kIntMax));
  if (!req.generate.empty() && wgen::is_workload_spec(req.generate)) {
    // Workload spec strings ("stencil3d:nx=64,...") are validated — and
    // fully resolved against the requested rank count — at admission time.
    // This runs in parse_request, the one parsing path shared by
    // --requests, stdin, and watch-dir mode, so every intake rejects a bad
    // spec identically instead of failing inside a worker.
    (void)wgen::resolve_workload(wgen::parse_workload_spec(req.generate),
                                 req.ranks);
  }
  req.solver = get_string(v, "solver", req.solver);
  FSAIC_REQUIRE(req.solver == "pcg" || req.solver == "pipelined-cg",
                "\"solver\" must be \"pcg\" or \"pipelined-cg\"");
  req.tol = static_cast<value_t>(get_number(v, "tol", req.tol));
  FSAIC_REQUIRE(req.tol > 0.0, "\"tol\" must be positive");
  req.max_iterations = static_cast<int>(
      get_integer(v, "max_iterations", req.max_iterations, 1, kIntMax));
  req.rhs_path = get_string(v, "rhs", "");
  req.rhs_seed = static_cast<std::uint64_t>(get_integer(
      v, "rhs_seed", static_cast<std::int64_t>(req.rhs_seed), 0, kMaxSeed));
  req.deadline_ms = get_number(v, "deadline_ms", -1.0);
  req.priority =
      static_cast<int>(get_integer(v, "priority", 0, kIntMin, kIntMax));
  req.warm_start = get_bool(v, "warm_start", false);
  req.want_history = get_bool(v, "history", false);
  return req;
}

JsonValue to_json(const SolveRequest& req) {
  JsonValue v = JsonValue::object();
  v["id"] = req.id;
  if (!req.matrix_path.empty()) v["matrix"] = req.matrix_path;
  if (!req.generate.empty()) v["generate"] = req.generate;
  v["method"] = req.method;
  v["filter"] = static_cast<double>(req.filter);
  v["filter_strategy"] = req.filter_strategy;
  v["ranks"] = req.ranks;
  v["solver"] = req.solver;
  v["tol"] = static_cast<double>(req.tol);
  v["max_iterations"] = req.max_iterations;
  if (!req.rhs_path.empty()) v["rhs"] = req.rhs_path;
  v["rhs_seed"] = static_cast<std::int64_t>(req.rhs_seed);
  if (req.deadline_ms >= 0.0) v["deadline_ms"] = req.deadline_ms;
  if (req.priority != 0) v["priority"] = req.priority;
  if (req.warm_start) v["warm_start"] = true;
  if (req.want_history) v["history"] = true;
  return v;
}

JsonValue to_json(const SolveResponse& resp) {
  JsonValue v = JsonValue::object();
  v["kind"] = "response";
  v["id"] = resp.id;
  if (resp.rid > 0) v["rid"] = resp.rid;
  v["status"] = resp.status;
  if (!resp.reason.empty()) v["reason"] = resp.reason;
  if (resp.ok()) {
    v["converged"] = resp.converged;
    v["iterations"] = resp.iterations;
    v["initial_residual"] = resp.initial_residual;
    v["final_residual"] = resp.final_residual;
    if (!resp.cache.empty()) v["cache"] = resp.cache;
    v["batch_size"] = resp.batch_size;
    if (!resp.fingerprint.empty()) v["fingerprint"] = resp.fingerprint;
    if (resp.warm_start) v["warm_start"] = true;
    v["setup_us"] = resp.setup_us;
    v["solve_us"] = resp.solve_us;
  }
  v["queue_us"] = resp.queue_us;
  v["total_us"] = resp.total_us;
  if (!resp.residuals.empty()) {
    JsonValue hist = JsonValue::array();
    for (const double r : resp.residuals) hist.push_back(r);
    v["residuals"] = std::move(hist);
  }
  return v;
}

}  // namespace fsaic

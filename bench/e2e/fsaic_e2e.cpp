// fsaic_e2e — the end-to-end benchmark driver, one process per workload.
//
//   fsaic_e2e --workload suite-fsai|suite-comm|stencil-1m|serve-mix
//             [--seed S] [--seconds T] [--trace-out PATH] [--smoke]
//
// The driver times the library from outside. Every time it reports is a
// steady_clock interval around a call into a layer's public function, and
// every count is one the layers already expose (SolveResult::comm,
// FsaiBuildResult, Executor::stats(), DistCsr::halo_wait_us(),
// SolveResponse). --seed generates every right-hand side and the serve
// mix and arrivals; the library sees only the generated inputs. --seconds
// is the time the solve workloads fill with passes; serve-mix sends a
// fixed number of requests. The driver runs only with OMP_NUM_THREADS=1.
//
// With --trace-out the run alternates untraced and traced passes. Traced
// passes record a span around every layer call, replay the per-iteration
// calls on the solved operator, and feed the per-layer metrics; the spans
// are written to PATH as a Chrome trace at exit.
//
// stdout carries one JSON document (the last line); progress goes to
// stderr. bench/e2e/run.py builds and runs this program and turns the
// document into metrics; bench/e2e/README.md defines them.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/fsai_driver.hpp"
#include "exec/exec_policy.hpp"
#include "matgen/suite.hpp"
#include "obs/json.hpp"
#include "perf/cost_model.hpp"
#include "perf/setup_cost.hpp"
#include "service/solve_service.hpp"
#include "solver/pcg.hpp"
#include "sparse/fingerprint.hpp"
#include "spans.hpp"
#include "wgen/wgen.hpp"

extern char** environ;

namespace {

using namespace fsaic;
using e2e::Span;
using e2e::Tracer;
using e2e::now_us;

constexpr value_t kTol = 1e-8;
constexpr int kMaxIterations = 100000;
/// A solve fails the true-residual check above this multiple of the
/// tolerance (CG stops on its recurrence residual, which drifts slightly
/// from ||b - Ax||).
constexpr double kTrueResidualSlack = 2.0;
/// Calls per replayed layer function in a traced pass.
constexpr int kReplays = 20;
/// Threads of the executor that runs the solve workloads.
constexpr int kThreads = 4;
/// Machine and threads per rank the cost model prices (the `fsaic solve`
/// defaults), so perf.modeled_tts_s matches what the CLI prints.
constexpr const char* kModelMachine = "skylake";
constexpr int kModelThreadsPerRank = 8;

struct Args {
  std::string workload;
  std::uint64_t seed = 2022;
  double seconds = 20.0;
  std::string trace_out;
  bool smoke = false;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Independent seed for the named stream of the run seed (an operator's
/// right-hand side is keyed by its name, so it does not depend on which
/// other operators a run holds).
std::uint64_t derive_seed(std::uint64_t seed, const std::string& stream) {
  return Rng(seed ^ fnv1a64(stream.data(), stream.size())).next_u64();
}

std::vector<value_t> random_rhs(std::uint64_t seed, index_t n) {
  Rng rng(seed);
  std::vector<value_t> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.next_uniform(-1.0, 1.0);
  return b;
}

JsonValue to_json_array(const std::vector<double>& v) {
  JsonValue a = JsonValue::array();
  for (double x : v) a.push_back(x);
  return a;
}

// ---- one operator through the solve pipeline ---------------------------

/// An operator as the driver hands it to the program: an assembled matrix
/// (standing in for a file read) or a resolved workload spec, plus its
/// right-hand side in input numbering.
struct Operator {
  std::string name;
  CsrMatrix global;
  std::optional<wgen::ResolvedWorkload> spec;
  std::vector<value_t> rhs;
};

/// Every setting the pipeline uses, passed explicitly (no environment).
struct Settings {
  rank_t ranks = 8;
  CommConfig comm;
  KernelConfig kernel;
  FsaiOptions fsai;
  Executor* exec = nullptr;
};

/// FSAIE-Comm as the paper evaluates it: cache-line pattern extension that
/// adds no communication, dynamic filter 0.01.
FsaiOptions fsaie_comm(Executor* exec) {
  FsaiOptions o;
  o.extension = ExtensionMode::CommAware;
  o.filter = 0.01;
  o.filter_strategy = FilterStrategy::Dynamic;
  o.exec = exec;
  return o;
}

/// What one operator's setup + solve produced. Layer times are the
/// durations of the driver's spans around each call; those spans are
/// leaves (the library is not instrumented), so duration == self time.
struct OpRun {
  std::string name;
  double setup_s = 0.0;
  double solve_s = 0.0;
  double partition_s = 0.0;
  double distribute_s = 0.0;
  double generate_s = 0.0;
  double to_global_s = 0.0;
  double build_s = 0.0;

  int iterations = 0;
  std::string failure;         ///< empty when the solve checked out

  // Exact counters.
  std::int64_t g_nnz = 0;
  std::int64_t base_nnz = 0;
  std::int64_t final_nnz = 0;
  std::int64_t halo_bytes_per_iter = 0;
  std::int64_t halo_msgs_per_iter = 0;
  std::int64_t solve_supersteps = 0;
  std::int64_t rows_solved = 0;
  std::int64_t rows_reused = 0;
  std::int64_t gram_entries = 0;
  std::int64_t filter_bisections = 0;
  double a_nnz = 0.0;
  double a_padded = 0.0;
  double factor_nnz = 0.0;
  double factor_padded = 0.0;

  // Measured waits during pcg_solve.
  double halo_wait_us = 0.0;
  double barrier_wait_us = 0.0;

  // Traced passes only: per-call replay times and the model.
  double spmv_s = 0.0;
  double apply_s = 0.0;
  double dot_s = 0.0;
  double axpy_s = 0.0;
  double spmv_bytes = 0.0;
  double modeled_s = 0.0;
};

double total_halo_wait_us(const DistCsr& m) {
  double sum = 0.0;
  for (double w : m.halo_wait_us()) sum += w;
  return sum;
}

/// Computed bytes one y = A x streams: stored slots (value + column index,
/// SELL padding included), the owned and ghost x entries, and y.
double spmv_bytes_computed(const DistCsr& a) {
  double bytes = static_cast<double>(a.padded_entries()) *
                 static_cast<double>(sizeof(value_t) + sizeof(index_t));
  for (rank_t p = 0; p < a.nranks(); ++p) {
    const double rows = static_cast<double>(a.row_layout().local_size(p));
    const double ghosts = static_cast<double>(a.block(p).ghost_gids.size());
    bytes += (2.0 * rows + ghosts) * static_cast<double>(sizeof(value_t));
  }
  return bytes;
}

OpRun run_operator(const Operator& op, const Settings& s, Tracer& log,
                   bool replay) {
  OpRun out;
  out.name = op.name;
  Span op_span(log, "operator " + op.name);

  // Setup: from the handed-over input to the preconditioner on its kernel.
  Span setup(log, "setup");
  DistCsr a;
  CsrMatrix assembled;
  std::vector<index_t> perm;  // empty: generated operators keep their order
  if (op.spec) {
    {
      Span t(log, "wgen.generate_dist");
      a = wgen::generate_dist(*op.spec, s.ranks, s.comm, nullptr, s.exec);
      out.generate_s = t.close();
    }
    {
      Span t(log, "dist.to_global");
      assembled = a.to_global();
      out.to_global_s = t.close();
    }
  } else {
    PartitionedSystem sys;
    {
      Span t(log, "graph.partition_system");
      sys = partition_system(op.global, s.ranks);
      out.partition_s = t.close();
    }
    {
      Span t(log, "dist.distribute");
      a = DistCsr::distribute(sys.matrix, sys.layout, s.comm);
      out.distribute_s = t.close();
    }
    assembled = std::move(sys.matrix);
    perm = std::move(sys.perm);
  }
  {
    Span t(log, "dist.use_kernel");
    a.use_kernel(s.kernel);
  }
  const Layout layout = a.row_layout();
  FsaiBuildResult build;
  {
    Span t(log, "core.build_fsai_preconditioner");
    build = build_fsai_preconditioner(assembled, layout, s.fsai);
    out.build_s = t.close();
  }
  {
    Span t(log, "dist.use_comm");
    build.g_dist.use_comm(s.comm);
    build.gt_dist.use_comm(s.comm);
  }
  std::unique_ptr<FactorizedPreconditioner> m;
  {
    Span t(log, "core.make_factorized_preconditioner");
    m = make_factorized_preconditioner(build, to_string(s.fsai.extension));
  }
  {
    Span t(log, "dist.use_kernel");
    m->use_kernel(s.kernel);
  }
  out.setup_s = setup.close();
  assembled = CsrMatrix{};

  // Solve.
  std::vector<value_t> b_local(op.rhs.size());
  for (std::size_t i = 0; i < op.rhs.size(); ++i) {
    b_local[perm.empty() ? i : static_cast<std::size_t>(perm[i])] = op.rhs[i];
  }
  const DistVector b(layout, b_local);
  DistVector x(layout);
  const ExecStats e0 = s.exec->stats();
  const double wait0 = total_halo_wait_us(a) + total_halo_wait_us(m->g()) +
                       total_halo_wait_us(m->gt());
  SolveResult r;
  {
    Span t(log, "solver.pcg_solve");
    r = pcg_solve(a, b, x, *m,
                  {.rel_tol = kTol, .max_iterations = kMaxIterations,
                   .exec = s.exec});
    out.solve_s = t.close();
  }
  const ExecStats e1 = s.exec->stats();
  out.halo_wait_us = total_halo_wait_us(a) + total_halo_wait_us(m->g()) +
                     total_halo_wait_us(m->gt()) - wait0;
  for (std::size_t t = 0; t < e1.barrier_wait_us.size(); ++t) {
    const double before =
        t < e0.barrier_wait_us.size() ? e0.barrier_wait_us[t] : 0.0;
    out.barrier_wait_us =
        std::max(out.barrier_wait_us, e1.barrier_wait_us[t] - before);
  }
  out.solve_supersteps = static_cast<std::int64_t>(e1.supersteps - e0.supersteps);
  out.iterations = r.iterations;

  // Check the answer with the public SpMV: ||b - Ax|| / ||b||.
  double true_residual = 0.0;
  {
    Span t(log, "check.true_residual");
    DistVector ax(layout);
    a.spmv(x, ax, nullptr, nullptr, s.exec);
    double rr = 0.0;
    double bb = 0.0;
    for (rank_t p = 0; p < layout.nranks(); ++p) {
      const auto bp = b.block(p);
      const auto axp = ax.block(p);
      for (std::size_t i = 0; i < bp.size(); ++i) {
        rr += (bp[i] - axp[i]) * (bp[i] - axp[i]);
        bb += bp[i] * bp[i];
      }
    }
    true_residual = std::sqrt(rr) / std::sqrt(bb);
  }

  // Exact counters. One CG iteration applies A, G and G^T once each; the
  // solve adds one A application for r0 = b - A x0.
  const std::int64_t a_bytes = a.halo_update_bytes();
  const std::int64_t a_msgs = a.halo_update_messages();
  const std::int64_t m_bytes =
      m->g().halo_update_bytes() + m->gt().halo_update_bytes();
  const std::int64_t m_msgs =
      m->g().halo_update_messages() + m->gt().halo_update_messages();
  out.halo_bytes_per_iter = a_bytes + m_bytes;
  out.halo_msgs_per_iter = a_msgs + m_msgs;
  const std::int64_t it = r.iterations;
  if (!r.converged) {
    out.failure = "did not converge in " + std::to_string(it) + " iterations";
  } else if (true_residual > kTrueResidualSlack * kTol) {
    out.failure = "true residual " + std::to_string(true_residual) +
                  " above " + std::to_string(kTrueResidualSlack) + " x tol";
  } else if (r.comm.halo_bytes != (it + 1) * a_bytes + it * m_bytes ||
             r.comm.halo_messages != (it + 1) * a_msgs + it * m_msgs) {
    out.failure = "SolveResult::comm disagrees with the per-update halo counts";
  }
  out.g_nnz = build.g.nnz();
  out.base_nnz = build.base_pattern.nnz();
  out.final_nnz = build.final_pattern.nnz();
  out.rows_solved = static_cast<std::int64_t>(
      build.provisional_factor_stats.rows_solved + build.factor_stats.rows_solved);
  out.rows_reused = build.factor_stats.rows_reused;
  out.gram_entries = build.provisional_factor_stats.gram_entries_gathered +
                     build.factor_stats.gram_entries_gathered;
  out.filter_bisections = build.dynamic_bisection_iterations;
  out.a_nnz = static_cast<double>(a.nnz());
  out.a_padded = static_cast<double>(a.padded_entries());
  out.factor_nnz = static_cast<double>(m->g().nnz() + m->gt().nnz());
  out.factor_padded =
      static_cast<double>(m->g().padded_entries() + m->gt().padded_entries());

  if (!replay) return out;

  // Replay the per-iteration layer calls on the solved operator.
  {
    Span rs(log, "replay");
    DistVector y(layout);
    DistVector z(layout);
    CommStats spmv_comm;
    CommStats apply_comm;
    double dots = 0.0;
    for (int k = 0; k < kReplays; ++k) {
      Span t(log, "dist.spmv");
      a.spmv(x, y, &spmv_comm, nullptr, s.exec);
      out.spmv_s += t.close() / kReplays;
    }
    for (int k = 0; k < kReplays; ++k) {
      Span t(log, "solver.precond_apply");
      m->apply(b, z, &apply_comm, s.exec);
      out.apply_s += t.close() / kReplays;
    }
    for (int k = 0; k < kReplays; ++k) {
      Span t(log, "exec.dist_dot");
      dots += dist_dot(x, y, nullptr, nullptr, s.exec);
      out.dot_s += t.close() / kReplays;
    }
    for (int k = 0; k < kReplays; ++k) {
      Span t(log, "exec.dist_axpy");
      dist_axpy(1e-3, z, y, s.exec);
      out.axpy_s += t.close() / kReplays;
    }
    if (!std::isfinite(dots) || spmv_comm.halo_bytes != kReplays * a_bytes ||
        apply_comm.halo_bytes != kReplays * m_bytes) {
      out.failure = "replayed layer calls disagree with the solve";
    }
    out.spmv_bytes = spmv_bytes_computed(a);
  }
  {
    Span t(log, "perf.model");
    const Machine machine = machine_by_name(kModelMachine);
    const CostModel cost(machine, {.threads_per_rank = kModelThreadsPerRank,
                                   .comm = s.comm});
    out.modeled_s =
        static_cast<double>(it) *
            cost.pcg_iteration_cost(a, m->g(), m->gt()).total() +
        estimate_build_setup(build, layout, machine, kModelThreadsPerRank).time;
  }
  return out;
}

/// Per-layer values of one traced pass (sums over its operators). Layers
/// a workload does not reach read 0.
std::map<std::string, double> layer_values(const std::vector<OpRun>& ops) {
  std::map<std::string, double> v;
  double solve = 0.0;
  double iters = 0.0;
  double base = 0.0;
  double fin = 0.0;
  double solved = 0.0;
  double reused = 0.0;
  double a_nnz = 0.0;
  double a_pad = 0.0;
  double f_nnz = 0.0;
  double f_pad = 0.0;
  double supersteps = 0.0;
  double replayed = 0.0;
  double spmv_bytes = 0.0;
  double spmv_s = 0.0;
  for (const OpRun& o : ops) {
    v["graph.partition_s"] += o.partition_s;
    v["dist.distribute_s"] += o.distribute_s;
    v["dist.assemble_global_s"] += o.to_global_s;
    v["wgen.generate_s"] += o.generate_s;
    v["core.fsai_build_s"] += o.build_s;
    v["dist.spmv_ms"] += o.spmv_s * 1e3;
    v["solver.precond_apply_ms"] += o.apply_s * 1e3;
    v["exec.allreduce_us"] += o.dot_s * 1e6;
    v["exec.axpy_us"] += o.axpy_s * 1e6;
    v["dist.halo_bytes_per_iter"] += static_cast<double>(o.halo_bytes_per_iter);
    v["dist.halo_msgs_per_iter"] += static_cast<double>(o.halo_msgs_per_iter);
    v["dist.halo_wait_ms"] += o.halo_wait_us * 1e-3;
    v["exec.barrier_wait_ms"] += o.barrier_wait_us * 1e-3;
    v["core.g_nnz"] += static_cast<double>(o.g_nnz);
    v["core.gram_entries"] += static_cast<double>(o.gram_entries);
    v["core.filter_bisections"] += static_cast<double>(o.filter_bisections);
    v["perf.modeled_tts_s"] += o.modeled_s;
    solve += o.solve_s;
    iters += o.iterations;
    base += static_cast<double>(o.base_nnz);
    fin += static_cast<double>(o.final_nnz);
    solved += static_cast<double>(o.rows_solved);
    reused += static_cast<double>(o.rows_reused);
    a_nnz += o.a_nnz;
    a_pad += o.a_padded;
    f_nnz += o.factor_nnz;
    f_pad += o.factor_padded;
    supersteps += static_cast<double>(o.solve_supersteps);
    // CG iteration: one SpMV, one preconditioner apply, three reductions
    // and three vector sweeps (the fused x/r pair counts as two).
    replayed += o.iterations *
                (o.spmv_s + o.apply_s + 3.0 * o.dot_s + 3.0 * o.axpy_s);
    spmv_bytes += o.spmv_bytes;
    spmv_s += o.spmv_s;
  }
  v["solver.iterations"] = iters;
  v["solver.ms_per_iter"] = iters > 0 ? 1e3 * solve / iters : 0.0;
  v["solver.replay_coverage"] = solve > 0 ? replayed / solve : 0.0;
  v["core.nnz_increase_pct"] = base > 0 ? 100.0 * (fin - base) / base : 0.0;
  v["core.rows_solved"] = solved;
  v["core.rows_reused"] = reused;
  v["core.reuse_ratio"] = solved + reused > 0 ? reused / (solved + reused) : 0.0;
  v["exec.supersteps_per_iter"] = iters > 0 ? supersteps / iters : 0.0;
  v["sparse.padding_ratio_a"] = a_nnz > 0 ? a_pad / a_nnz : 0.0;
  v["sparse.padding_ratio_g"] = f_nnz > 0 ? f_pad / f_nnz : 0.0;
  v["dist.spmv_gbs_computed"] = spmv_s > 0 ? spmv_bytes / spmv_s * 1e-9 : 0.0;
  for (const char* name :
       {"service.queue_ms_p50", "service.queue_ms_p95",
        "service.miss_setup_ms_p50", "service.solve_ms_p50",
        "service.unattributed_ms_p50", "service.cache_hit_ratio",
        "service.batch_mean", "loadgen.late_ms_max"}) {
    v[name] = 0.0;
  }
  return v;
}

/// What a run reports: the samples behind the end-to-end metrics, the
/// per-layer values (traced runs), the exact counters, and every failure.
struct Report {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> layers;
  JsonValue exact = JsonValue::object();
  int passes = 0;

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(what);
  }
};

// ---- solve workloads ---------------------------------------------------

const std::vector<std::string> kSuite = {
    "thermal2",   "ecology2",  "G3_circuit", "af_shell3",
    "Queen_4147", "Flan_1565", "PFlow_742",  "parabolic_fem"};
const std::vector<std::string> kSmokeSuite = {"thermal2", "parabolic_fem"};

void run_solve_workload(const Args& args, Tracer& log, Report& rep) {
  const bool traced = !args.trace_out.empty();
  const auto exec = make_executor(ExecPolicy{kThreads});
  Settings s;
  s.exec = exec.get();
  s.kernel.format = OperatorFormat::Sell;
  s.fsai.exec = exec.get();

  std::vector<Operator> ops;
  if (args.workload == "stencil-1m") {
    s.ranks = 16;
    s.comm = {CommMode::NodeAware, 4};
    s.fsai = fsaie_comm(exec.get());
    const std::string spec = args.smoke ? "stencil3d:nx=32,ny=32,nz=64"
                                        : "stencil3d:nx=64,ny=64,nz=256";
    Operator op;
    op.name = spec;
    op.spec = wgen::resolve_workload(wgen::parse_workload_spec(spec), s.ranks);
    op.rhs = random_rhs(derive_seed(args.seed, op.name), op.spec->rows);
    ops.push_back(std::move(op));
  } else {
    if (args.workload == "suite-comm") s.fsai = fsaie_comm(exec.get());
    const auto& names = args.smoke ? kSmokeSuite : kSuite;
    for (const std::string& name : names) {
      Operator op;
      op.name = name;
      op.global = suite_entry(name).generate();
      op.rhs = random_rhs(derive_seed(args.seed, op.name), op.global.rows());
      ops.push_back(std::move(op));
    }
  }

  std::vector<int> iterations;  // per operator, from the first pass
  const auto run_pass = [&](bool record) {
    log.enabled = record;
    std::vector<OpRun> runs;
    for (const Operator& op : ops) {
      runs.push_back(run_operator(op, s, log, record));
      const OpRun& o = runs.back();
      ++rep.attempted;
      if (!o.failure.empty()) rep.fail(op.name + ": " + o.failure);
    }
    log.enabled = false;
    if (iterations.empty()) {
      for (const OpRun& o : runs) iterations.push_back(o.iterations);
    }
    for (std::size_t i = 0; i < runs.size(); ++i) {
      FSAIC_REQUIRE(runs[i].iterations == iterations[i],
                    runs[i].name + ": iteration count changed between passes (" +
                        std::to_string(iterations[i]) + " -> " +
                        std::to_string(runs[i].iterations) +
                        "), the solve is not deterministic");
    }
    return runs;
  };

  // Untimed warm-up: the first pass over fresh memory pays page faults.
  if (!args.smoke) run_pass(false);

  std::vector<double> tts_traced;
  std::vector<std::map<std::string, double>> layer_passes;
  std::vector<std::vector<double>> op_latency_ms(ops.size());
  // Timed passes fill --seconds: another pass starts only if a pass of the
  // mean length still fits.
  const int min_passes = traced ? 2 : (args.smoke ? 1 : 3);
  double measured = 0.0;
  for (int pass = 0;
       pass < min_passes ||
       (!args.smoke && measured * (pass + 1) / pass <= args.seconds);
       ++pass) {
    const bool record = traced && pass % 2 == 1;
    const double t0 = now_us();
    const std::vector<OpRun> runs = run_pass(record);
    measured += (now_us() - t0) * 1e-6;
    double setup = 0.0;
    double solve = 0.0;
    for (const OpRun& o : runs) {
      setup += o.setup_s;
      solve += o.solve_s;
    }
    if (record) {
      tts_traced.push_back(setup + solve);
      layer_passes.push_back(layer_values(runs));
    } else {
      rep.samples["tts_s"].push_back(setup + solve);
      rep.samples["setup_s"].push_back(setup);
      rep.samples["solve_s"].push_back(solve);
      rep.samples["serve_capacity_rps"].push_back(
          static_cast<double>(runs.size()) / (setup + solve));
      for (std::size_t i = 0; i < runs.size(); ++i) {
        op_latency_ms[i].push_back((runs[i].setup_s + runs[i].solve_s) * 1e3);
      }
    }
    if (pass == 0) {
      for (const OpRun& o : runs) {
        JsonValue c = JsonValue::object();
        c["iterations"] = o.iterations;
        c["g_nnz"] = o.g_nnz;
        c["halo_bytes_per_iter"] = o.halo_bytes_per_iter;
        c["halo_msgs_per_iter"] = o.halo_msgs_per_iter;
        c["solve_supersteps"] = o.solve_supersteps;
        rep.exact[o.name] = std::move(c);
      }
    }
    ++rep.passes;
    std::cerr << "fsaic_e2e: " << args.workload << " pass " << pass + 1
              << (record ? " (traced)" : "") << ": setup " << setup
              << " s, solve " << solve << " s\n";
  }

  // A solve workload is one client solving its operators back to back:
  // the latency of an operator is its time to solution, median over passes.
  for (const auto& v : op_latency_ms) {
    rep.samples["latency_ms"].push_back(median(v));
  }

  if (traced) {
    for (const auto& [name, unused] : layer_passes.front()) {
      std::vector<double> values;
      for (const auto& lp : layer_passes) values.push_back(lp.at(name));
      rep.layers[name] = median(values);
    }
    rep.layers["trace_overhead_pct"] =
        100.0 * (median(tts_traced) / median(rep.samples["tts_s"]) - 1.0);
  }
}

// ---- serve workload ----------------------------------------------------

/// The request mix, in blocks of 30 shuffled requests: 24 hot (thermal2
/// x12, ecology2 x8, parabolic_fem x4, i.e. 3:2:1) and 6 cold, each cold
/// request a random geometric graph no other request of the run names.
/// Every block has the exact proportions and cold graphs are numbered the
/// same way in every run, so the seed decides the order, the right-hand
/// sides and the arrival times, not how much work a run holds.
constexpr std::size_t kMixBlock = 30;
const std::vector<std::pair<std::string, int>> kHotMix = {
    {"thermal2", 12}, {"ecology2", 8}, {"parabolic_fem", 4}};
constexpr int kColdPerBlock = 6;
/// Open-loop arrival rate: about 0.4 of the service's closed-loop capacity
/// (28 to 38 req/s on a 4-vCPU VM). Queueing grows steeply with
/// utilization, so a higher rate would amplify every slowdown of the host
/// into latency.
constexpr double kOpenRate = 12.0;
/// Open loop: 7 mix blocks, 210 requests, so p95 has 10 samples beyond it.
constexpr std::size_t kOpenBlocks = 7;
/// Closed loop: 3 mix blocks, 90 requests.
constexpr std::size_t kClosedBlocks = 3;
constexpr int kClients = 4;

struct Slot {
  SolveRequest request;
  double due_us = 0.0;  ///< scheduled send (open loop) / send (closed loop)
  double done_us = 0.0;
  int answers = 0;
  SolveResponse response;
};

/// Requests of one run and their answers. Slots are allocated before the
/// service starts and never reallocated, so the response callback can index
/// them by the request id.
class Traffic {
 public:
  Traffic(std::uint64_t seed, Tracer& log) : rng_(seed), log_(log) {}

  /// Append `blocks` mix blocks; returns the index of the first request.
  std::size_t add_mix_blocks(std::size_t blocks) {
    const std::size_t first = slots_.size();
    for (std::size_t b = 0; b < blocks; ++b) {
      std::vector<Slot> block;
      for (const auto& [name, count] : kHotMix) {
        for (int k = 0; k < count; ++k) block.push_back(make(name));
      }
      for (int k = 0; k < kColdPerBlock; ++k) {
        block.push_back(make("rgg2d:n=16384,seed=" + std::to_string(++cold_)));
      }
      shuffle(block);
      for (auto& s : block) push(std::move(s));
    }
    return first;
  }

  /// One request per hot operator.
  std::size_t add_warmup() {
    const std::size_t first = slots_.size();
    for (const auto& [name, count] : kHotMix) push(make(name));
    return first;
  }

  [[nodiscard]] std::size_t size() const { return slots_.size(); }

  /// Send offsets (seconds) of an open loop at `rate`: exponential gaps by
  /// stratified sampling, one gap from each 1/n quantile stratum in seeded
  /// order, so every seed's schedule has the same gaps and length.
  std::vector<double> arrival_offsets(std::size_t n, double rate) {
    std::vector<double> gaps(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double u = (static_cast<double>(i) + rng_.next_uniform()) /
                       static_cast<double>(n);
      gaps[i] = -std::log(1.0 - u) / rate;
    }
    shuffle(gaps);
    double at = 0.0;
    for (auto& g : gaps) g = (at += g);
    return gaps;
  }

  void on_response(const SolveResponse& r) {
    const std::size_t i = std::stoul(r.id);
    Slot& s = slots_.at(i);
    const Span cb(log_, "service.callback", static_cast<std::int64_t>(i));
    const double t = now_us();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++s.answers;
      s.response = r;
      s.done_us = t;
    }
    answered_.notify_all();
  }

  void send(SolveService& service, std::size_t i, double due_us) {
    Slot& s = slots_[i];
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      s.due_us = due_us;
    }
    const Span t(log_, "service.submit", static_cast<std::int64_t>(i));
    service.submit(s.request);
  }

  void wait_answered(std::size_t i) {
    std::unique_lock<std::mutex> lock(mutex_);
    answered_.wait(lock, [&] { return slots_[i].answers > 0; });
  }

  /// Read-only view, valid once the service that answered is gone.
  [[nodiscard]] const Slot& slot(std::size_t i) const { return slots_[i]; }

 private:
  Slot make(const std::string& op) {
    Slot s;
    s.request.generate = op;
    s.request.rhs_seed = rng_.next_u64();
    s.request.tol = kTol;
    return s;
  }
  void push(Slot s) {
    s.request.id = std::to_string(slots_.size());
    slots_.push_back(std::move(s));
  }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[static_cast<std::size_t>(
                              rng_.next_index(static_cast<index_t>(i)))]);
    }
  }

  Rng rng_;
  Tracer& log_;
  std::uint64_t cold_ = 0;
  std::mutex mutex_;
  std::condition_variable answered_;
  std::vector<Slot> slots_;
};

void run_serve_workload(const Args& args, Tracer& log, Report& rep) {
  const bool traced = !args.trace_out.empty();
  const int setups = args.smoke ? 1 : 3;
  Traffic traffic(derive_seed(args.seed, "serve traffic"), log);
  std::vector<std::size_t> warmups;
  for (int k = 0; k < setups; ++k) warmups.push_back(traffic.add_warmup());
  std::size_t open_first = 0;
  std::size_t open_n = 0;
  std::size_t closed_first = 0;
  std::size_t closed_n = 0;
  double rate = kOpenRate;
  if (args.smoke) {
    // 24 requests cut from one mix block: 16 open-loop, 8 closed-loop.
    open_first = traffic.add_mix_blocks(1);
    open_n = 16;
    closed_first = open_first + open_n;
    closed_n = 8;
    rate *= 2.0;
  } else {
    open_first = traffic.add_mix_blocks(kOpenBlocks);
    open_n = kOpenBlocks * kMixBlock;
    closed_first = traffic.add_mix_blocks(kClosedBlocks);
    closed_n = kClosedBlocks * kMixBlock;
  }
  const std::vector<double> arrivals = traffic.arrival_offsets(open_n, rate);

  ServiceOptions opts;
  opts.workers = 4;
  opts.solver_threads = 1;
  opts.cache_capacity = 8;
  opts.batching = true;
  const auto handler = [&](const SolveResponse& r) { traffic.on_response(r); };

  // Set-up: start the service and warm it with one request per hot
  // operator, one after another, a few times over; the last service stays
  // up for the measurement.
  std::unique_ptr<SolveService> service;
  for (int k = 0; k < setups; ++k) {
    service.reset();
    const double t0 = now_us();
    service = std::make_unique<SolveService>(opts, handler);
    for (std::size_t i = 0; i < kHotMix.size(); ++i) {
      const std::size_t slot = warmups[static_cast<std::size_t>(k)] + i;
      traffic.send(*service, slot, now_us());
      traffic.wait_answered(slot);
    }
    rep.samples["setup_s"].push_back((now_us() - t0) * 1e-6);
  }

  // Open loop: latency runs from each request's scheduled send.
  log.enabled = traced;
  const ServiceStats before = service->stats();
  double late_ms_max = 0.0;
  {
    Span phase(log, "open_loop");
    const double start_us = now_us() + 20e3;
    for (std::size_t k = 0; k < open_n; ++k) {
      const double due = start_us + arrivals[k] * 1e6;
      std::this_thread::sleep_until(
          e2e::epoch() + std::chrono::duration_cast<e2e::Clock::duration>(
                             std::chrono::duration<double, std::micro>(due)));
      late_ms_max = std::max(late_ms_max, (now_us() - due) * 1e-3);
      traffic.send(*service, open_first + k, due);
    }
    service->drain();
  }
  const ServiceStats after = service->stats();

  // Closed loop: each client sends its next request when the previous one
  // is answered. Capacity is the completion rate of each run of 30
  // consecutive answers (one mix block's worth). Traced runs split the
  // loop: the first half untraced, the second traced.
  const auto closed_loop = [&](std::size_t first, std::size_t n, bool record) {
    log.enabled = record;
    Span phase(log, "closed_loop");
    std::atomic<std::size_t> next{first};
    const double start = now_us();
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        for (std::size_t i = next++; i < first + n; i = next++) {
          traffic.send(*service, i, now_us());
          traffic.wait_answered(i);
        }
      });
    }
    for (auto& t : clients) t.join();
    std::vector<double> done;
    for (std::size_t i = first; i < first + n; ++i) {
      done.push_back(traffic.slot(i).done_us);
    }
    std::sort(done.begin(), done.end());
    const std::size_t chunk = std::min(kMixBlock, n);
    std::vector<double> rates;
    for (std::size_t k = chunk; k <= n; k += chunk) {
      const double from = k == chunk ? start : done[k - chunk - 1];
      rates.push_back(static_cast<double>(chunk) / ((done[k - 1] - from) * 1e-6));
    }
    return rates;
  };
  const std::size_t half = traced ? closed_n / 2 : closed_n;
  rep.samples["serve_capacity_rps"] = closed_loop(closed_first, half, false);
  const std::vector<double> capacity_traced =
      traced ? closed_loop(closed_first + half, closed_n - half, true)
             : std::vector<double>{};
  log.enabled = false;
  service.reset();  // joins the workers: every slot below is final

  // Check every answer: exactly one per request, ok, converged, on target.
  const auto check = [&](std::size_t i) {
    const Slot& s = traffic.slot(i);
    const SolveResponse& r = s.response;
    ++rep.attempted;
    if (s.answers != 1) {
      rep.fail("request " + s.request.id + " answered " +
               std::to_string(s.answers) + " times");
    } else if (!r.ok() || !r.converged ||
               r.final_residual > kTol * r.initial_residual) {
      rep.fail("request " + s.request.id + " (" + s.request.generate +
               "): status " + r.status + " " + r.reason +
               (r.converged ? "" : " not converged"));
    }
  };
  for (std::size_t first : warmups) {
    for (std::size_t i = 0; i < kHotMix.size(); ++i) check(first + i);
  }
  for (std::size_t i = closed_first; i < closed_first + closed_n; ++i) check(i);

  // A pass of the open loop is one mix block: its tts_s and solve_s sum
  // the service and solver time of the block's 30 requests.
  std::vector<double> latency;
  std::vector<double> queue;
  std::vector<double> solve;
  std::vector<double> miss_setup;
  std::vector<double> unattributed;
  for (std::size_t k = 0; k < open_n; ++k) {
    const std::size_t i = open_first + k;
    check(i);
    const Slot& s = traffic.slot(i);
    const SolveResponse& r = s.response;
    latency.push_back((s.done_us - s.due_us) * 1e-3);
    queue.push_back(r.queue_us * 1e-3);
    solve.push_back(r.solve_us * 1e-3);
    if (r.cache == "miss") miss_setup.push_back(r.setup_us * 1e-3);
    unattributed.push_back(
        (r.total_us - r.queue_us - r.setup_us - r.solve_us) * 1e-3);
    if (k % kMixBlock == 0) {
      rep.samples["solve_s"].push_back(0.0);
      rep.samples["tts_s"].push_back(0.0);
      ++rep.passes;
    }
    rep.samples["solve_s"].back() += r.solve_us * 1e-6;
    rep.samples["tts_s"].back() += (r.total_us - r.queue_us) * 1e-6;
  }
  rep.samples["latency_ms"] = latency;
  std::cerr << "fsaic_e2e: serve-mix: " << open_n << " open-loop requests at "
            << rate << " req/s, " << closed_n << " closed-loop requests at "
            << median(rep.samples["serve_capacity_rps"]) << " req/s\n";

  if (!traced) return;
  // The service reports request-level times only. To split a request into
  // layers, replay one hot and one cold request's path outside the service
  // through the same public calls, at the service's settings.
  const auto exec = make_executor(ExecPolicy{opts.solver_threads});
  Settings s;
  s.exec = exec.get();
  s.fsai = fsaie_comm(exec.get());
  std::vector<Operator> ops(2);
  ops[0].name = "thermal2";
  ops[0].global = suite_entry("thermal2").generate();
  ops[0].rhs =
      random_rhs(derive_seed(args.seed, ops[0].name), ops[0].global.rows());
  ops[1].name = "rgg2d:n=16384,seed=1";
  ops[1].spec = wgen::resolve_workload(wgen::parse_workload_spec(ops[1].name),
                                       s.ranks);
  ops[1].rhs = random_rhs(derive_seed(args.seed, ops[1].name), ops[1].spec->rows);
  log.enabled = true;
  std::vector<OpRun> runs;
  for (const Operator& op : ops) {
    runs.push_back(run_operator(op, s, log, true));
    ++rep.attempted;
    if (!runs.back().failure.empty()) {
      rep.fail(op.name + ": " + runs.back().failure);
    }
  }
  log.enabled = false;
  rep.layers = layer_values(runs);
  const auto delta = [](std::int64_t a, std::int64_t b) {
    return static_cast<double>(a - b);
  };
  const double hits = delta(after.cache.hits, before.cache.hits);
  const double lookups = hits +
                         delta(after.cache.disk_hits, before.cache.disk_hits) +
                         delta(after.cache.misses, before.cache.misses);
  const double batches = delta(after.batches, before.batches);
  rep.layers["service.queue_ms_p50"] = percentile(queue, 0.5);
  rep.layers["service.queue_ms_p95"] = percentile(queue, 0.95);
  rep.layers["service.miss_setup_ms_p50"] = percentile(miss_setup, 0.5);
  rep.layers["service.solve_ms_p50"] = percentile(solve, 0.5);
  rep.layers["service.unattributed_ms_p50"] = percentile(unattributed, 0.5);
  rep.layers["service.cache_hit_ratio"] = lookups > 0 ? hits / lookups : 0.0;
  rep.layers["service.batch_mean"] =
      batches > 0 ? static_cast<double>(open_n) / batches : 0.0;
  rep.layers["loadgen.late_ms_max"] = late_ms_max;
  rep.layers["trace_overhead_pct"] =
      100.0 * (median(rep.samples["serve_capacity_rps"]) /
                   median(capacity_traced) -
               1.0);
}

// ---- entry point -------------------------------------------------------

/// The library still reads FSAIC_FORMAT, FSAIC_THREADS, FSAIC_COMM and
/// FSAIC_RANKS_PER_NODE from the environment; any of them would silently
/// change the program being measured, so the driver refuses to run.
///
/// The OpenMP team size is read once, when the runtime loads, and only from
/// OMP_NUM_THREADS (omp_set_num_threads covers the calling thread alone,
/// not the executor and service threads the library starts). The library's
/// OpenMP loops run inside those threads, which already occupy the cores,
/// so the driver requires teams of one rather than measuring nested teams
/// whose size follows the host's core count.
void refuse_foreign_environment() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "FSAIC_", 6) == 0) {
      const std::string var(*e);
      throw std::runtime_error("environment variable " +
                               var.substr(0, var.find('=')) +
                               " is set; unset every FSAIC_* variable, the "
                               "benchmark passes all settings explicitly");
    }
  }
  const char* omp = std::getenv("OMP_NUM_THREADS");
  if (omp == nullptr || std::strcmp(omp, "1") != 0) {
    throw std::runtime_error(
        "set OMP_NUM_THREADS=1: the library's OpenMP loops run inside the "
        "benchmark's executor and service threads");
  }
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(k + " needs a value");
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
    } else if (k == "--trace-out") {
      a.trace_out = value();
    } else if (k == "--smoke") {
      a.smoke = true;
    } else {
      throw std::runtime_error("unknown argument " + k);
    }
  }
  if (a.workload != "suite-fsai" && a.workload != "suite-comm" &&
      a.workload != "stencil-1m" && a.workload != "serve-mix") {
    throw std::runtime_error("--workload must be one of suite-fsai, "
                             "suite-comm, stencil-1m, serve-mix");
  }
  if (!(a.seconds > 0.0)) throw std::runtime_error("--seconds must be > 0");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    refuse_foreign_environment();
    const Args args = parse_args(argc, argv);
    Tracer log;
    Report rep;
    if (args.workload == "serve-mix") {
      run_serve_workload(args, log, rep);
    } else {
      run_solve_workload(args, log, rep);
    }
    rep.samples["peak_rss_mb"] = {peak_rss_mb()};
    if (!args.trace_out.empty()) log.recorder.write_file(args.trace_out);

    JsonValue doc = JsonValue::object();
    doc["workload"] = args.workload;
    doc["seed"] = static_cast<std::int64_t>(args.seed);
    doc["smoke"] = args.smoke;
    doc["passes"] = rep.passes;
    doc["attempted"] = rep.attempted;
    doc["failed"] = rep.failed;
    JsonValue errors = JsonValue::array();
    for (const auto& e : rep.errors) errors.push_back(e);
    doc["errors"] = std::move(errors);
    JsonValue samples = JsonValue::object();
    for (const auto& [name, v] : rep.samples) samples[name] = to_json_array(v);
    doc["samples"] = std::move(samples);
    JsonValue layers = JsonValue::object();
    for (const auto& [name, v] : rep.layers) layers[name] = v;
    doc["layers"] = std::move(layers);
    doc["exact"] = rep.exact;
    std::cout << doc.dump() << std::endl;
    return rep.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "fsaic_e2e: " << e.what() << "\n";
    return 2;
  }
}

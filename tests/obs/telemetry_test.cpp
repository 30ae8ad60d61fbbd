#include "obs/telemetry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/fsai_driver.hpp"
#include "matgen/generators.hpp"
#include "obs/trace.hpp"
#include "solver/gmres.hpp"
#include "solver/pcg.hpp"
#include "solver/pipelined_cg.hpp"

namespace fsaic {
namespace {

DistVector random_rhs(const Layout& l, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<value_t> bg(static_cast<std::size_t>(l.global_size()));
  for (auto& v : bg) v = rng.next_uniform(-1.0, 1.0);
  return DistVector(l, bg);
}

int count_events(const std::vector<TraceEvent>& events, const std::string& name,
                 char phase) {
  return static_cast<int>(std::count_if(
      events.begin(), events.end(), [&](const TraceEvent& e) {
        return e.name == name && e.phase == phase;
      }));
}

TEST(TelemetryTest, SinkSeesExactlyOneSamplePerCgIteration) {
  const auto a = poisson2d(12, 12);
  const Layout l = Layout::blocked(a.rows(), 4);
  const auto d = DistCsr::distribute(a, l);
  const auto b = random_rhs(l, 1);
  DistVector x(l);
  CollectingSink sink;
  const auto r = cg_solve(d, b, x, {.rel_tol = 1e-8, .sink = &sink});
  ASSERT_TRUE(r.converged);
  ASSERT_GT(r.iterations, 0);
  ASSERT_EQ(sink.samples().size(), static_cast<std::size_t>(r.iterations));
  for (std::size_t i = 0; i < sink.samples().size(); ++i) {
    EXPECT_EQ(sink.samples()[i].iteration, static_cast<int>(i) + 1);
  }
  // The last sample carries the converged residual.
  EXPECT_DOUBLE_EQ(sink.samples().back().residual,
                   static_cast<double>(r.final_residual));
  EXPECT_LE(sink.samples().back().relative_residual, 1e-8);
}

TEST(TelemetryTest, CommDeltasAttributeTrafficToIterations) {
  const auto a = poisson2d(10, 10);
  const Layout l = Layout::blocked(a.rows(), 4);
  const auto d = DistCsr::distribute(a, l);
  const auto b = random_rhs(l, 2);
  DistVector x(l);
  CollectingSink sink;
  const auto r = cg_solve(d, b, x, {.rel_tol = 1e-8, .sink = &sink});
  ASSERT_TRUE(r.converged);

  // One spmv per CG iteration: the halo delta of every sample is exactly one
  // halo update of A, and the allreduce delta is 3 (two dots + one norm).
  std::int64_t halo_sum = 0;
  for (const auto& s : sink.samples()) {
    EXPECT_EQ(s.halo_bytes_delta, d.halo_update_bytes());
    EXPECT_EQ(s.halo_messages_delta, d.halo_update_messages());
    EXPECT_EQ(s.allreduce_delta, 3);
    EXPECT_GE(s.elapsed_us, 0.0);
    halo_sum += s.halo_bytes_delta;
  }
  // The initial residual spmv is the only traffic outside the samples.
  EXPECT_EQ(halo_sum + d.halo_update_bytes(), r.comm.halo_bytes);
}

TEST(TelemetryTest, ResidualHistoryAlwaysHoldsInitialResidual) {
  const auto a = poisson2d(8, 8);
  const Layout l = Layout::blocked(a.rows(), 2);
  const auto d = DistCsr::distribute(a, l);
  const auto b = random_rhs(l, 3);

  DistVector x1(l);
  const auto untracked = cg_solve(d, b, x1, {.rel_tol = 1e-8});
  ASSERT_EQ(untracked.residual_history.size(), 1u);
  EXPECT_EQ(untracked.residual_history.front(), untracked.initial_residual);

  DistVector x2(l);
  const auto tracked =
      cg_solve(d, b, x2, {.rel_tol = 1e-8, .track_residual_history = true});
  ASSERT_EQ(tracked.residual_history.size(),
            static_cast<std::size_t>(tracked.iterations) + 1);
  EXPECT_EQ(tracked.residual_history.front(), tracked.initial_residual);
}

TEST(TelemetryTest, ZeroRhsProducesNoSamples) {
  const auto a = poisson2d(6, 6);
  const Layout l = Layout::blocked(a.rows(), 2);
  const auto d = DistCsr::distribute(a, l);
  DistVector b(l);
  DistVector x(l);
  CollectingSink sink;
  const auto r = cg_solve(d, b, x, {.sink = &sink});
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 0);
  EXPECT_TRUE(sink.samples().empty());
  ASSERT_EQ(r.residual_history.size(), 1u);
  EXPECT_EQ(r.residual_history.front(), 0.0);
}

TEST(TelemetryTest, PipelinedCgMatchesSinkContract) {
  const auto a = poisson2d(12, 12);
  const Layout l = Layout::blocked(a.rows(), 4);
  const auto d = DistCsr::distribute(a, l);
  const auto b = random_rhs(l, 4);
  DistVector x(l);
  CollectingSink sink;
  const JacobiPreconditioner jacobi(d);
  const auto r =
      pcg_solve_pipelined(d, b, x, jacobi, {.rel_tol = 1e-8, .sink = &sink});
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(sink.samples().size(), static_cast<std::size_t>(r.iterations));
  EXPECT_EQ(r.residual_history.size(), 1u);
  // Pipelined CG fuses the reductions: one allreduce per iteration.
  for (const auto& s : sink.samples()) {
    EXPECT_EQ(s.allreduce_delta, 1);
  }
}

TEST(TelemetryTest, GmresMatchesSinkContract) {
  const auto a = poisson2d(10, 10);
  const Layout l = Layout::blocked(a.rows(), 2);
  const auto d = DistCsr::distribute(a, l);
  const auto b = random_rhs(l, 5);
  DistVector x(l);
  CollectingSink sink;
  const JacobiPreconditioner jacobi(d);
  const auto r = gmres_solve(d, b, x, jacobi,
                             {.rel_tol = 1e-8, .sink = &sink});
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(sink.samples().size(), static_cast<std::size_t>(r.iterations));
  EXPECT_EQ(r.residual_history.size(), 1u);
  EXPECT_EQ(r.residual_history.front(), r.initial_residual);
}

TEST(TelemetryTest, SolverTraceContainsIterationAndCommPhases) {
  const auto a = poisson2d(10, 10);
  const Layout l = Layout::blocked(a.rows(), 4);
  const auto d = DistCsr::distribute(a, l);
  const auto b = random_rhs(l, 6);
  DistVector x(l);
  TraceRecorder trace;
  const auto r = cg_solve(d, b, x, {.rel_tol = 1e-8, .trace = &trace});
  ASSERT_TRUE(r.converged);
  const auto events = trace.events();
  EXPECT_EQ(count_events(events, "iteration", 'B'), r.iterations);
  EXPECT_EQ(count_events(events, "iteration", 'E'), r.iterations);
  // One spmv slice *per rank* per SpMV (each rank's slice is recorded from
  // the thread that executed it), for the per-iteration SpMV plus the
  // initial residual one.
  const int spmvs = 4 * (r.iterations + 1);
  EXPECT_EQ(count_events(events, "spmv_local", 'X'), spmvs);
  EXPECT_EQ(count_events(events, "halo_exchange", 'X'), spmvs);
  EXPECT_GE(count_events(events, "allreduce", 'X'), 3 * r.iterations);
  // Residual counter track: initial value + one per iteration.
  EXPECT_EQ(count_events(events, "residual", 'C'), r.iterations + 1);
}

TEST(TelemetryTest, DriverTraceContainsTheSetupPipelinePhases) {
  const auto a = poisson2d(16, 16);
  const Layout l = Layout::blocked(a.rows(), 4);
  TraceRecorder trace;
  FsaiOptions opts;
  opts.extension = ExtensionMode::CommAware;
  opts.filter = 0.1;
  opts.trace = &trace;
  const auto build = build_fsai_preconditioner(a, l, opts);
  const auto events = trace.events();
  for (const char* phase :
       {"pattern_build", "pattern_extension", "provisional_factor", "filtering",
        "factorization", "distribute_factors"}) {
    EXPECT_EQ(count_events(events, phase, 'B'), 1) << phase;
    EXPECT_EQ(count_events(events, phase, 'E'), 1) << phase;
  }

  // A traced preconditioner apply adds the G / G^T sub-phases.
  auto precond = make_factorized_preconditioner(build, "fsaie-comm");
  precond->set_trace(&trace);
  const auto d = DistCsr::distribute(a, l);
  const auto b = random_rhs(l, 7);
  DistVector x(l);
  const auto r = pcg_solve(d, b, x, *precond, {.rel_tol = 1e-8});
  ASSERT_TRUE(r.converged);
  const auto solve_events = trace.events();
  EXPECT_GT(count_events(solve_events, "apply_G", 'B'), 0);
  EXPECT_GT(count_events(solve_events, "apply_Gt", 'B'), 0);
}

}  // namespace
}  // namespace fsaic

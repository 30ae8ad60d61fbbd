#include "harness/experiment.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "matgen/generators.hpp"

#include "harness/table.hpp"

namespace fsaic {
namespace {

/// A tiny ad-hoc suite entry so harness tests stay fast.
SuiteEntry tiny_entry() {
  SuiteEntry e;
  e.name = "tiny-poisson";
  e.paper_name = "tiny";
  e.type = "2D/3D Problem";
  e.paper_fsai_iters = 100;
  e.paper_fsaie_comm_iters = 80;
  e.generate = [] { return poisson2d(18, 18); };
  return e;
}

ExperimentConfig fast_config() {
  ExperimentConfig cfg;
  cfg.machine = machine_skylake();
  cfg.nnz_per_rank = 400;
  cfg.max_ranks = 4;
  cfg.solve.max_iterations = 2000;
  return cfg;
}

TEST(ExperimentTest, PrepareIsCachedAndDeterministic) {
  ExperimentRunner runner(fast_config());
  const auto e = tiny_entry();
  const auto& s1 = runner.prepare(e);
  const auto& s2 = runner.prepare(e);
  EXPECT_EQ(&s1, &s2);  // same object: cached
  // poisson2d(18,18) has 1548 nnz → 1548/400 = 3 ranks under the rule.
  EXPECT_EQ(s1.nranks, 3);
  EXPECT_EQ(s1.assembled().rows(), 18 * 18);
  // RHS normalized to the matrix max norm.
  value_t bmax = 0.0;
  for (rank_t p = 0; p < s1.nranks; ++p) {
    for (value_t v : s1.b.block(p)) {
      bmax = std::max(bmax, std::abs(v));
    }
  }
  EXPECT_NEAR(bmax, s1.assembled().max_abs(), 1e-12);
}

TEST(ExperimentTest, RunRecordsConsistentMetrics) {
  ExperimentRunner runner(fast_config());
  const auto e = tiny_entry();
  const auto& base = runner.baseline(e);
  EXPECT_TRUE(base.converged);
  EXPECT_GT(base.iterations, 0);
  EXPECT_GT(base.modeled_time, 0.0);
  EXPECT_NEAR(base.modeled_time, base.iterations * base.iter_cost, 1e-12);
  EXPECT_EQ(base.nnz_increase_pct, 0.0);
  EXPECT_EQ(base.method, "fsai");

  const MethodConfig comm{ExtensionMode::CommAware, FilterStrategy::Dynamic, 0.01};
  const auto& rec = runner.run(e, comm);
  EXPECT_TRUE(rec.converged);
  EXPECT_LE(rec.iterations, base.iterations);
  EXPECT_GT(rec.nnz_increase_pct, 0.0);
  // Cached second call returns the identical record.
  EXPECT_EQ(&runner.run(e, comm), &rec);
}

TEST(ExperimentTest, ImprovementMath) {
  RunRecord base;
  base.iterations = 200;
  base.modeled_time = 2.0;
  RunRecord better;
  better.iterations = 150;
  better.modeled_time = 1.5;
  const auto imp = improvement_over(base, better);
  EXPECT_DOUBLE_EQ(imp.iterations_pct, 25.0);
  EXPECT_DOUBLE_EQ(imp.time_pct, 25.0);

  RunRecord worse;
  worse.iterations = 220;
  worse.modeled_time = 2.2;
  const auto deg = improvement_over(base, worse);
  EXPECT_NEAR(deg.time_pct, -10.0, 1e-10);
}

TEST(ExperimentTest, SummaryRowAggregates) {
  const std::vector<Improvement> imps{{10.0, 8.0}, {30.0, 22.0}, {-5.0, -4.0}};
  const auto row = summarize(imps);
  EXPECT_NEAR(row.avg_iterations_pct, (10.0 + 30.0 - 5.0) / 3.0, 1e-12);
  EXPECT_NEAR(row.avg_time_pct, (8.0 + 22.0 - 4.0) / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(row.highest_improvement_pct, 22.0);
  EXPECT_DOUBLE_EQ(row.highest_degradation_pct, -4.0);
}

TEST(ExperimentTest, BestFilterDominatesEachFixedFilter) {
  ExperimentRunner runner(fast_config());
  const std::vector<SuiteEntry> suite{tiny_entry()};
  const std::vector<value_t> filters{0.01, 0.1};
  const auto best = best_filter_improvements(
      runner, suite, ExtensionMode::CommAware, FilterStrategy::Static, filters);
  ASSERT_EQ(best.size(), 1u);
  for (value_t f : filters) {
    const auto fixed = fixed_filter_improvements(
        runner, suite, ExtensionMode::CommAware, FilterStrategy::Static, f);
    EXPECT_GE(best[0].time_pct, fixed[0].time_pct) << "filter " << f;
  }
}

TEST(ExperimentTest, MethodLabels) {
  EXPECT_EQ((MethodConfig{ExtensionMode::None, FilterStrategy::Static, 0.0}.label()),
            "fsai");
  EXPECT_EQ((MethodConfig{ExtensionMode::CommAware, FilterStrategy::Dynamic, 0.05}
                 .label()),
            "fsaie-comm/dynamic-0.05");
  EXPECT_EQ((MethodConfig{ExtensionMode::LocalOnly, FilterStrategy::Static, 0.2}
                 .label()),
            "fsaie/static-0.2");
}

TEST(TableTest, AlignedAndCsvOutput) {
  TextTable t({"name", "value"});
  t.add_row({"x", "1.5"});
  t.add_row({"longer-name", "2"});
  std::ostringstream plain;
  t.print(plain);
  EXPECT_NE(plain.str().find("longer-name"), std::string::npos);
  EXPECT_NE(plain.str().find("----"), std::string::npos);
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_EQ(csv.str(), "name,value\nx,1.5\nlonger-name,2\n");
}

TEST(TableTest, RowWidthValidated) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

}  // namespace
}  // namespace fsaic

// FSAI setup-speed microbenchmark: times the gather-based Gram assembly
// against the historic entrywise at() path (compute_fsai_factor_reference)
// over sparsity levels 1-3 (where pattern rows widen and the m^2 log(nnz)
// binary searches dominate), and step 5 of filtered FSAIE-Comm builds both
// ways on the build's own patterns: a full recompute against the
// incremental refactorization that reuses unchanged provisional rows. Both
// comparisons also assert the results are bit-identical, so the bench
// doubles as a coarse differential check.
//
// FSAIC_REPORT=path.jsonl appends machine-readable records:
//   kind "setup_speed":    per (matrix, level) assembly timing + speedup
//   kind "setup_refactor": per filtered build row reuse + timing
// FSAIC_SETUP_BENCH_FAST=1 shrinks the grids and repetitions (sanitizer CI).
#include "bench_common.hpp"

#include <chrono>

#include "matgen/generators.hpp"

namespace {

using namespace fsaic;

double median_seconds(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

bool factors_identical(const CsrMatrix& x, const CsrMatrix& y) {
  if (x.rows() != y.rows() || x.nnz() != y.nnz()) return false;
  for (index_t i = 0; i < x.rows(); ++i) {
    const auto xc = x.row_cols(i);
    const auto yc = y.row_cols(i);
    const auto xv = x.row_vals(i);
    const auto yv = y.row_vals(i);
    if (!std::equal(xc.begin(), xc.end(), yc.begin(), yc.end())) return false;
    if (!std::equal(xv.begin(), xv.end(), yv.begin(), yv.end())) return false;
  }
  return true;
}

}  // namespace

int main() {
  using namespace fsaic::bench;
  using clock = std::chrono::steady_clock;
  print_header("FSAI setup speed — gather assembly and incremental refactorization",
               "setup-phase optimizations (gather Gram assembly, row reuse)");

  const bool fast = []() {
    const char* v = std::getenv("FSAIC_SETUP_BENCH_FAST");
    return v != nullptr && *v != '\0' && *v != '0';
  }();
  const int reps = fast ? 1 : 3;

  std::unique_ptr<RunReportWriter> report;
  if (const char* path = std::getenv("FSAIC_REPORT");
      path != nullptr && *path != '\0') {
    report = std::make_unique<RunReportWriter>(std::string(path));
  }

  struct Case {
    std::string name;
    CsrMatrix a;
  };
  std::vector<Case> cases;
  cases.push_back({"poisson2d", fast ? poisson2d(20, 20) : poisson2d(40, 40)});
  cases.push_back({"stencil27", fast ? stencil27(6, 6, 6) : stencil27(10, 10, 10)});

  // Part 1: Gram assembly, reference vs gather, on widening patterns.
  TextTable assembly({"Matrix", "Level", "Rows", "Pattern.nnz", "ref.s",
                      "gather.s", "speedup", "identical"});
  int mismatches = 0;
  for (const auto& c : cases) {
    for (int level = 1; level <= 3; ++level) {
      const SparsityPattern s = fsai_base_pattern(c.a, level, 0.0);

      std::vector<double> ref_samples;
      std::vector<double> gather_samples;
      CsrMatrix g_ref;
      CsrMatrix g_gather;
      FsaiFactorStats gather_stats;
      for (int rep = 0; rep < reps; ++rep) {
        auto t0 = clock::now();
        g_ref = compute_fsai_factor_reference(c.a, s);
        auto t1 = clock::now();
        g_gather = compute_fsai_factor(c.a, s, &gather_stats);
        auto t2 = clock::now();
        ref_samples.push_back(std::chrono::duration<double>(t1 - t0).count());
        gather_samples.push_back(std::chrono::duration<double>(t2 - t1).count());
      }
      const double ref_s = median_seconds(ref_samples);
      const double gather_s = median_seconds(gather_samples);
      const double speedup = gather_s > 0.0 ? ref_s / gather_s : 0.0;
      const bool identical = factors_identical(g_ref, g_gather);
      if (!identical) ++mismatches;

      assembly.add_row({c.name, std::to_string(level),
                        std::to_string(c.a.rows()),
                        std::to_string(s.nnz()), sci2(ref_s), sci2(gather_s),
                        strformat("%.2fx", speedup),
                        identical ? "yes" : "NO"});
      if (report != nullptr) {
        JsonValue rec = JsonValue::object();
        rec["kind"] = "setup_speed";
        rec["matrix"] = c.name;
        rec["level"] = level;
        rec["rows"] = c.a.rows();
        rec["pattern_nnz"] = s.nnz();
        rec["ref_assemble_s"] = ref_s;
        rec["gather_assemble_s"] = gather_s;
        rec["speedup"] = speedup;
        rec["identical"] = identical;
        rec["gram_entries_gathered"] = gather_stats.gram_entries_gathered;
        report->write(rec);
      }
    }
  }
  assembly.print(std::cout);

  // Part 2: step 5 of filtered FSAIE-Comm builds, full recompute vs
  // incremental refactorization from the provisional factor, on the build's
  // own extended and filtered patterns (256 B lines so the extension adds
  // enough entries for the filter to have something to remove).
  std::cout << "\nStep 5 after filtering, full recompute vs incremental "
               "refactorization (comm-aware extension, filter 0.05, 256 B "
               "lines):\n";
  TextTable refactor({"Matrix", "Level", "rows.solved.full", "rows.solved.incr",
                      "rows.reused", "full.s", "incr.s", "identical"});
  for (const auto& c : cases) {
    for (int level = 1; level <= 2; ++level) {
      const Layout layout = Layout::blocked(c.a.rows(), 4);
      FsaiOptions opts;
      opts.sparsity_level = level;
      opts.extension = ExtensionMode::CommAware;
      opts.cache_line_bytes = 256;
      opts.filter = 0.05;
      opts.filter_strategy = FilterStrategy::Static;
      const FsaiBuildResult build = build_fsai_preconditioner(c.a, layout, opts);
      const CsrMatrix g_pre = compute_fsai_factor(c.a, build.extended_pattern);

      FsaiFactorStats full_stats;
      FsaiFactorStats incr_stats;
      auto t0 = clock::now();
      const CsrMatrix full =
          compute_fsai_factor(c.a, build.final_pattern, &full_stats);
      auto t1 = clock::now();
      const CsrMatrix incr =
          refine_fsai_factor(c.a, g_pre, build.final_pattern, &incr_stats);
      auto t2 = clock::now();
      const double full_s = std::chrono::duration<double>(t1 - t0).count();
      const double incr_s = std::chrono::duration<double>(t2 - t1).count();
      const bool identical =
          factors_identical(full, incr) && factors_identical(incr, build.g);
      if (!identical) ++mismatches;

      refactor.add_row({c.name, std::to_string(level),
                        std::to_string(full_stats.rows_solved),
                        std::to_string(incr_stats.rows_solved),
                        std::to_string(incr_stats.rows_reused), sci2(full_s),
                        sci2(incr_s), identical ? "yes" : "NO"});
      if (report != nullptr) {
        JsonValue rec = JsonValue::object();
        rec["kind"] = "setup_refactor";
        rec["matrix"] = c.name;
        rec["level"] = level;
        rec["rows"] = c.a.rows();
        rec["rows_solved_full"] = full_stats.rows_solved;
        rec["rows_solved_incr"] = incr_stats.rows_solved;
        rec["rows_reused"] = incr_stats.rows_reused;
        rec["full_s"] = full_s;
        rec["incr_s"] = incr_s;
        rec["identical"] = identical;
        report->write(rec);
      }
    }
  }
  refactor.print(std::cout);

  if (report != nullptr) {
    std::cout << "\nreport: " << report->records_written() << " records -> "
              << std::getenv("FSAIC_REPORT") << "\n";
  }
  if (mismatches > 0) {
    std::cout << "\nERROR: " << mismatches
              << " configurations produced non-identical factors\n";
    return 1;
  }
  return 0;
}

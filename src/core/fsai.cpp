#include "core/fsai.hpp"

#include <algorithm>
#include <cmath>

#include "dense/dense_matrix.hpp"
#include "dense/factorizations.hpp"
#include "exec/executor.hpp"
#include "sparse/ops.hpp"

namespace fsaic {

namespace {

// Per-thread scratch reused across rows: grow-only dense systems and the
// epoch-tagged position markers of the gather assembly. Each parallel_for
// slot owns one instance; stats accumulate lock-free and are summed after
// the loop's barrier.
struct RowScratch {
  DenseMatrix gram;  ///< lower-triangle Gram, Cholesky-factored in place
  DenseMatrix full;  ///< both triangles, re-gathered for fallback rows
  std::vector<value_t> rhs;
  /// pos[c] = position of column c in the current pattern row, valid iff
  /// stamp[c] == epoch. Bumping the epoch invalidates all markers in O(1),
  /// so no per-row clearing pass is needed.
  std::vector<index_t> pos;
  std::vector<std::uint64_t> stamp;
  std::uint64_t epoch = 0;
  FsaiFactorStats stats;
};

/// Publish the pattern row's columns in the marker array (one epoch bump).
void mark_pattern_row(std::span<const index_t> cols, index_t n, RowScratch& s) {
  if (s.pos.size() < static_cast<std::size_t>(n)) {
    s.pos.resize(static_cast<std::size_t>(n));
    s.stamp.assign(static_cast<std::size_t>(n), 0);
    s.epoch = 0;
  }
  ++s.epoch;
  for (std::size_t c = 0; c < cols.size(); ++c) {
    s.pos[static_cast<std::size_t>(cols[c])] = static_cast<index_t>(c);
    s.stamp[static_cast<std::size_t>(cols[c])] = s.epoch;
  }
}

/// Gather-assemble A(cols, cols) into `out`: one streaming pass over the CSR
/// rows A(cols[r], :), entries landing via the position markers. Entries of
/// the pattern absent from A stay 0, exactly like the at()-based reference.
/// Requires mark_pattern_row to have been called for `cols`.
void gather_gram(const CsrMatrix& a, std::span<const index_t> cols,
                 bool lower_only, DenseMatrix& out, RowScratch& s) {
  const auto m = static_cast<index_t>(cols.size());
  out.resize(m, m);
  for (index_t r = 0; r < m; ++r) {
    const auto acols = a.row_cols(cols[static_cast<std::size_t>(r)]);
    const auto avals = a.row_vals(cols[static_cast<std::size_t>(r)]);
    for (std::size_t k = 0; k < acols.size(); ++k) {
      const auto j = static_cast<std::size_t>(acols[k]);
      if (s.stamp[j] != s.epoch) continue;
      const index_t c = s.pos[j];
      if (lower_only && c > r) continue;
      out(r, c) = avals[k];
      ++s.stats.gram_entries_gathered;
    }
  }
}

/// The dense solve of one row system, gather-assembled. Returns whether the
/// system was solved; the solution is left in s.rhs.
bool solve_local_system_gather(const CsrMatrix& a, std::span<const index_t> cols,
                               index_t diag_pos, RowScratch& s) {
  const auto m = static_cast<index_t>(cols.size());
  mark_pattern_row(cols, a.cols(), s);
  gather_gram(a, cols, /*lower_only=*/true, s.gram, s);
  s.rhs.assign(static_cast<std::size_t>(m), 0.0);
  s.rhs[static_cast<std::size_t>(diag_pos)] = 1.0;
  // Factor in place: only the lower triangle was assembled, and Cholesky
  // reads nothing else.
  if (cholesky_factor(s.gram)) {
    cholesky_solve(s.gram, s.rhs);
    return true;
  }
  ++s.stats.fallback_rows;
  // The LDL^T/LU fallback chain reads the full matrix; re-gather both
  // triangles so it sees exactly what the reference path assembles.
  gather_gram(a, cols, /*lower_only=*/false, s.full, s);
  s.rhs.assign(static_cast<std::size_t>(m), 0.0);
  s.rhs[static_cast<std::size_t>(diag_pos)] = 1.0;
  return solve_spd_system(s.full, s.rhs);
}

/// The pre-gather reference: entrywise at() assembly with per-row
/// allocations, kept verbatim so differential tests and the setup-speed
/// bench measure the real historic cost profile.
bool solve_local_system_reference(const CsrMatrix& a,
                                  std::span<const index_t> cols,
                                  index_t diag_pos, RowScratch& s) {
  const auto m = static_cast<index_t>(cols.size());
  DenseMatrix local(m, m);
  for (index_t r = 0; r < m; ++r) {
    for (index_t c = 0; c < m; ++c) {
      local(r, c) = a.at(cols[static_cast<std::size_t>(r)],
                         cols[static_cast<std::size_t>(c)]);
    }
  }
  s.rhs.assign(static_cast<std::size_t>(m), 0.0);
  s.rhs[static_cast<std::size_t>(diag_pos)] = 1.0;
  {
    DenseMatrix chol = local;
    if (cholesky_factor(chol)) {
      cholesky_solve(chol, s.rhs);
      return true;
    }
  }
  ++s.stats.fallback_rows;
  s.rhs.assign(static_cast<std::size_t>(m), 0.0);
  s.rhs[static_cast<std::size_t>(diag_pos)] = 1.0;
  return solve_spd_system(local, s.rhs);
}

/// Solve one pattern row and write the normalized G row into `out`.
void solve_fsai_row(const CsrMatrix& a, index_t i, std::span<const index_t> cols,
                    std::span<value_t> out, bool reference, RowScratch& s) {
  const auto m = static_cast<index_t>(cols.size());
  // The diagonal is the last pattern entry of a sorted lower-triangular row.
  FSAIC_CHECK(cols.back() == i, "diagonal must close each pattern row");
  const index_t diag_pos = m - 1;
  ++s.stats.rows_solved;

  const bool solved = reference
                          ? solve_local_system_reference(a, cols, diag_pos, s)
                          : solve_local_system_gather(a, cols, diag_pos, s);

  const value_t ghat_ii =
      solved ? s.rhs[static_cast<std::size_t>(diag_pos)] : 0.0;
  if (!solved || !(ghat_ii > 0.0) || !std::isfinite(ghat_ii)) {
    // Degenerate local system: degrade this row to Jacobi scaling, which
    // keeps G well defined (and SPD as a preconditioner).
    ++s.stats.degenerate_rows;
    const value_t aii = a.at(i, i);
    const value_t scale = aii > 0.0 ? 1.0 / std::sqrt(aii) : 1.0;
    for (index_t k = 0; k < m; ++k) {
      out[static_cast<std::size_t>(k)] = (k == diag_pos) ? scale : 0.0;
    }
    return;
  }
  const value_t inv_sqrt = 1.0 / std::sqrt(ghat_ii);
  for (index_t k = 0; k < m; ++k) {
    out[static_cast<std::size_t>(k)] =
        s.rhs[static_cast<std::size_t>(k)] * inv_sqrt;
  }
}

/// The shared row loop of compute/refine: every row either reuses its
/// provisional values (refine only, pattern row unchanged) or is solved.
/// Rows are independent — each writes only its own value range of `g` — so
/// any parallel_for schedule produces identical bits. `reference` selects
/// the entrywise assembly of compute_fsai_factor_reference.
void run_setup_rows(const CsrMatrix& a, const SparsityPattern& s, CsrMatrix& g,
                    const CsrMatrix* reuse_from, FsaiFactorStats* stats,
                    const FsaiComputeOptions& options, bool reference) {
  Executor& exec = resolve_executor(options.exec);
  const int width = std::max(1, exec.parallel_for_width());
  std::vector<RowScratch> scratch(static_cast<std::size_t>(width));

  exec.parallel_for(a.rows(), [&](index_t i, int slot) {
    RowScratch& st = scratch[static_cast<std::size_t>(slot)];
    const auto cols = s.row(i);
    auto out = g.row_vals(i);
    if (reuse_from != nullptr) {
      const auto pre_cols = reuse_from->row_cols(i);
      if (pre_cols.size() == cols.size() &&
          std::equal(cols.begin(), cols.end(), pre_cols.begin())) {
        const auto pre_vals = reuse_from->row_vals(i);
        std::copy(pre_vals.begin(), pre_vals.end(), out.begin());
        ++st.stats.rows_reused;
        return;
      }
    }
    solve_fsai_row(a, i, cols, out, reference, st);
  });

  if (stats != nullptr) {
    *stats = {};
    for (const RowScratch& st : scratch) {
      stats->fallback_rows += st.stats.fallback_rows;
      stats->degenerate_rows += st.stats.degenerate_rows;
      stats->rows_solved += st.stats.rows_solved;
      stats->rows_reused += st.stats.rows_reused;
      stats->gram_entries_gathered += st.stats.gram_entries_gathered;
    }
  }
}

void validate_fsai_inputs(const CsrMatrix& a, const SparsityPattern& s) {
  FSAIC_REQUIRE(a.rows() == a.cols(), "FSAI requires a square matrix");
  FSAIC_REQUIRE(s.rows() == a.rows() && s.cols() == a.cols(),
                "pattern shape mismatch");
  FSAIC_REQUIRE(s.is_lower_triangular(), "FSAI pattern must be lower triangular");
  FSAIC_REQUIRE(s.has_full_diagonal(), "FSAI pattern must contain the diagonal");
}

}  // namespace

CsrMatrix compute_fsai_factor(const CsrMatrix& a, const SparsityPattern& s,
                              FsaiFactorStats* stats,
                              const FsaiComputeOptions& options) {
  validate_fsai_inputs(a, s);
  CsrMatrix g{s};
  run_setup_rows(a, s, g, nullptr, stats, options, /*reference=*/false);
  return g;
}

CsrMatrix compute_fsai_factor_reference(const CsrMatrix& a,
                                        const SparsityPattern& s,
                                        FsaiFactorStats* stats,
                                        const FsaiComputeOptions& options) {
  validate_fsai_inputs(a, s);
  CsrMatrix g{s};
  run_setup_rows(a, s, g, nullptr, stats, options, /*reference=*/true);
  return g;
}

CsrMatrix refine_fsai_factor(const CsrMatrix& a, const CsrMatrix& g_pre,
                             const SparsityPattern& s_final,
                             FsaiFactorStats* stats,
                             const FsaiComputeOptions& options) {
  validate_fsai_inputs(a, s_final);
  FSAIC_REQUIRE(g_pre.rows() == a.rows() && g_pre.cols() == a.cols(),
                "provisional factor shape mismatch");
  CsrMatrix g{s_final};
  run_setup_rows(a, s_final, g, &g_pre, stats, options, /*reference=*/false);
  return g;
}

SparsityPattern fsai_base_pattern(const CsrMatrix& a, int sparsity_level,
                                  value_t prefilter_threshold) {
  FSAIC_REQUIRE(sparsity_level >= 1, "sparsity level must be >= 1");
  const CsrMatrix filtered =
      prefilter_threshold > 0.0 ? threshold(a, prefilter_threshold) : a;
  SparsityPattern p = filtered.pattern();
  if (sparsity_level > 1) {
    p = p.symbolic_power(sparsity_level);
  }
  return p.lower_triangle().with_full_diagonal();
}

}  // namespace fsaic

#include "core/pattern_extend.hpp"

#include <algorithm>

#include "exec/executor.hpp"

namespace fsaic {

const char* to_string(ExtensionMode mode) {
  switch (mode) {
    case ExtensionMode::None:
      return "fsai";
    case ExtensionMode::LocalOnly:
      return "fsaie";
    case ExtensionMode::CommAware:
      return "fsaie-comm";
    case ExtensionMode::FullHalo:
      return "fsaie-full";
  }
  return "?";
}

namespace {

/// Algorithm 3 for one rank p: its base rows and, under CommAware, the
/// rank-local form of the admission rule.
class RankExtension {
 public:
  RankExtension(const SparsityPattern& s, const Layout& layout, rank_t p,
                index_t entries_per_line, ExtensionMode mode)
      : s_(s), layout_(layout), p_(p), line_(entries_per_line), mode_(mode) {
    if (mode_ != ExtensionMode::CommAware) return;
    // Under the scheme of G x, p receives exactly the ghost columns of its
    // base rows.
    for (index_t i = layout_.begin(p_); i < layout_.end(p_); ++i) {
      for (const index_t j : s_.row(i)) {
        if (!layout_.owns(p_, j)) ghosts_.push_back(j);
      }
    }
    std::sort(ghosts_.begin(), ghosts_.end());
    ghosts_.erase(std::unique(ghosts_.begin(), ghosts_.end()), ghosts_.end());
  }

  /// emit(k) for every column of extended row i, ascending, counting the
  /// entries added on owned and on halo columns. Base columns are sorted,
  /// so their cache lines are visited in ascending order, each once, and
  /// every base column lies in a visited line: scanning the lines' columns
  /// in order and merging with the base row emits the row sorted.
  template <typename Emit>
  void row(index_t i, Emit&& emit) {
    const auto base = s_.row(i);
    const index_t n = s_.rows();
    std::size_t next = 0;  // next base column not yet emitted
    index_t prev_block = -1;
    // Owner of the candidate's column and whether row i has a column there,
    // kept across the candidates of a line, which nearly always share it.
    rank_t q = -1;
    bool row_touches_q = false;
    for (const index_t j : base) {
      const index_t block = j / line_;
      if (block == prev_block) continue;  // Alg. 3 line 6: block already done
      prev_block = block;
      const index_t k_begin = block * line_;
      const index_t k_end = std::min<index_t>(k_begin + line_, n);
      for (index_t k = k_begin; k < k_end && k <= i; ++k) {  // G stays lower
        if (next < base.size() && base[next] == k) {
          ++next;
          emit(k);
          continue;
        }
        if (layout_.owns(p_, k)) {
          ++local_added;  // Alg. 3 line 12: local entries are always free
          emit(k);
          continue;
        }
        bool admit = mode_ == ExtensionMode::FullHalo;
        if (mode_ == ExtensionMode::CommAware &&
            std::binary_search(ghosts_.begin(), ghosts_.end(), k)) {
          // Alg. 3 line 13 for both products (Section 3): x_k already
          // flows to p for G x (k is a ghost of p's rows), and x_i already
          // flows to owner(k) for G^T x, which holds exactly when row i has
          // a column that owner(k) owns.
          const rank_t owner = layout_.owner(k);
          if (owner != q) {
            q = owner;
            const auto it = std::lower_bound(base.begin(), base.end(),
                                             layout_.begin(q));
            row_touches_q = it != base.end() && *it < layout_.end(q);
          }
          admit = row_touches_q;
        }
        if (admit) {
          ++halo_added;
          emit(k);
        }
      }
    }
  }

  offset_t local_added = 0;
  offset_t halo_added = 0;

 private:
  const SparsityPattern& s_;
  const Layout& layout_;
  rank_t p_;
  index_t line_;
  ExtensionMode mode_;
  std::vector<index_t> ghosts_;  ///< sorted ghost columns of p's base rows
};

}  // namespace

ExtensionResult extend_pattern(const SparsityPattern& s, const Layout& layout,
                               int cache_line_bytes, ExtensionMode mode,
                               Executor* exec) {
  FSAIC_REQUIRE(s.rows() == s.cols(), "pattern must be square");
  FSAIC_REQUIRE(s.rows() == layout.global_size(), "layout size mismatch");
  FSAIC_REQUIRE(s.is_lower_triangular(), "pattern of G must be lower triangular");
  FSAIC_REQUIRE(cache_line_bytes >= static_cast<int>(sizeof(value_t)) &&
                    cache_line_bytes % static_cast<int>(sizeof(value_t)) == 0,
                "cache line must hold a whole number of values");

  if (mode == ExtensionMode::None) {
    return {s, 0, 0};
  }

  const auto entries_per_line =
      static_cast<index_t>(cache_line_bytes / sizeof(value_t));
  const index_t n = s.rows();
  const auto nranks = static_cast<std::size_t>(layout.nranks());
  Executor& ex = resolve_executor(exec);

  // Rank by rank: a count pass sizes every row, a fill pass writes the
  // rows in place. Each rank writes only its own rows and counters.
  std::vector<offset_t> row_ptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<offset_t> local(nranks, 0);
  std::vector<offset_t> halo(nranks, 0);
  ex.parallel_for(layout.nranks(), [&](index_t pi, int /*slot*/) {
    const auto p = static_cast<rank_t>(pi);
    RankExtension ext(s, layout, p, entries_per_line, mode);
    for (index_t i = layout.begin(p); i < layout.end(p); ++i) {
      offset_t len = 0;
      ext.row(i, [&](index_t) { ++len; });
      row_ptr[static_cast<std::size_t>(i) + 1] = len;
    }
    local[static_cast<std::size_t>(p)] = ext.local_added;
    halo[static_cast<std::size_t>(p)] = ext.halo_added;
  });
  for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
    row_ptr[i + 1] += row_ptr[i];
  }
  std::vector<index_t> col_idx(static_cast<std::size_t>(row_ptr.back()));
  ex.parallel_for(layout.nranks(), [&](index_t pi, int /*slot*/) {
    const auto p = static_cast<rank_t>(pi);
    RankExtension ext(s, layout, p, entries_per_line, mode);
    for (index_t i = layout.begin(p); i < layout.end(p); ++i) {
      auto pos = static_cast<std::size_t>(row_ptr[static_cast<std::size_t>(i)]);
      ext.row(i, [&](index_t k) { col_idx[pos++] = k; });
    }
  });

  ExtensionResult result;
  for (std::size_t p = 0; p < nranks; ++p) {
    result.local_added += local[p];
    result.halo_added += halo[p];
  }
  result.extended =
      SparsityPattern(n, n, std::move(row_ptr), std::move(col_idx));
  FSAIC_CHECK(result.extended.nnz() == s.nnz() + result.total_added(),
              "extension bookkeeping mismatch");
  return result;
}

}  // namespace fsaic

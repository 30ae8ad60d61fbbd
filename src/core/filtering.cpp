#include "core/filtering.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace fsaic {

namespace {

/// The filter's scale of entry (i, j): sqrt(|g_ii * g_jj|).
value_t entry_scale(std::span<const value_t> diag, index_t i, index_t j) {
  return std::sqrt(std::abs(diag[static_cast<std::size_t>(i)] *
                            diag[static_cast<std::size_t>(j)]));
}

/// Does a droppable entry of magnitude `mag` and scale `scale` survive f?
bool survives(value_t mag, value_t scale, value_t f) {
  return f <= 0.0 || mag >= f * scale;
}

/// The entries of g_ext split into those the filter may drop and those
/// every filter keeps: the diagonal and, when only added entries are
/// candidates, the entries of `base`.
struct EntryClasses {
  /// Per entry of g_ext, in its storage order: may the filter drop it?
  std::vector<std::uint8_t> droppable;
  /// Per rank: entries no filter drops.
  std::vector<offset_t> kept;
};

/// One linear pass that merges each row of g_ext with its base row.
EntryClasses classify(const CsrMatrix& g_ext, const SparsityPattern& base,
                      const Layout& layout, const FilterOptions& options) {
  EntryClasses c;
  c.droppable.assign(static_cast<std::size_t>(g_ext.nnz()), 0);
  c.kept.assign(static_cast<std::size_t>(layout.nranks()), 0);
  const auto row_ptr = g_ext.row_ptr();
  for (rank_t p = 0; p < layout.nranks(); ++p) {
    offset_t kept = 0;
    for (index_t i = layout.begin(p); i < layout.end(p); ++i) {
      const auto cols = g_ext.row_cols(i);
      const auto protected_cols =
          options.only_added_entries ? base.row(i) : std::span<const index_t>{};
      auto b = protected_cols.begin();
      const auto k0 = static_cast<std::size_t>(row_ptr[static_cast<std::size_t>(i)]);
      for (std::size_t k = 0; k < cols.size(); ++k) {
        const index_t j = cols[k];
        while (b != protected_cols.end() && *b < j) ++b;
        if (j == i || (b != protected_cols.end() && *b == j)) {
          ++kept;
        } else {
          c.droppable[k0 + k] = 1;
        }
      }
    }
    c.kept[static_cast<std::size_t>(p)] = kept;
  }
  return c;
}

/// The largest filter at which a droppable entry of magnitude `mag` and
/// scale `scale` survives: the largest positive double f with
/// mag >= f * scale, or 0 when no positive f keeps it. The rounded product
/// f * scale never decreases as f grows, so for every f > 0 the entry
/// survives exactly when f <= threshold. Positive doubles order like their
/// bit patterns, so the search runs over those: it starts at mag / scale,
/// gallops away from it (an ulp or two when the operands are normal) and
/// bisects, which keeps zero, subnormal, infinite and NaN operands exact.
value_t survival_threshold(value_t mag, value_t scale) {
  constexpr std::uint64_t kInfBits = 0x7FF0000000000000ULL;
  const auto survives_at = [&](std::uint64_t bits) {
    return mag >= std::bit_cast<value_t>(bits) * scale;
  };
  const std::uint64_t start =
      std::clamp(std::bit_cast<std::uint64_t>(mag / scale), std::uint64_t{1},
                 kInfBits);
  std::uint64_t lo = 0;             // survives at lo, or lo == 0
  std::uint64_t hi = kInfBits + 1;  // dropped at hi, or hi == past +inf
  if (survives_at(start)) {
    lo = start;
    for (std::uint64_t step = 1; lo < kInfBits; step *= 2) {
      const std::uint64_t next = kInfBits - lo < step ? kInfBits : lo + step;
      if (!survives_at(next)) {
        hi = next;
        break;
      }
      lo = next;
    }
  } else {
    hi = start;
    for (std::uint64_t step = 1; hi > 1; step *= 2) {
      const std::uint64_t next = hi - 1 < step ? 1 : hi - step;
      if (survives_at(next)) {
        lo = next;
        break;
      }
      hi = next;
    }
  }
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    (survives_at(mid) ? lo : hi) = mid;
  }
  return std::bit_cast<value_t>(lo);
}

/// Surviving entries of each rank as a function of the rank's filter. A
/// rank is counted by a linear pass over its droppable entries, remembered
/// for the filter last asked, until it first bisects. Then its droppable
/// entries' survival thresholds are sorted once, and every later count is a
/// binary search in that order.
class SurvivorCounter {
 public:
  SurvivorCounter(const CsrMatrix& g_ext, const EntryClasses& classes,
                  const Layout& layout, std::span<const value_t> diag)
      : g_ext_(g_ext),
        classes_(classes),
        layout_(layout),
        diag_(diag),
        ranks_(static_cast<std::size_t>(layout.nranks())) {}

  offset_t count(rank_t p, value_t f) {
    RankState& r = ranks_[static_cast<std::size_t>(p)];
    const offset_t kept = classes_.kept[static_cast<std::size_t>(p)];
    if (r.sorted) {
      const auto& t = r.thresholds;
      if (f <= 0.0) return kept + static_cast<offset_t>(t.size());
      if (!(f > 0.0)) return kept;  // NaN: nothing droppable survives
      return kept + (t.end() - std::lower_bound(t.begin(), t.end(), f));
    }
    if (f == r.f) return r.count;
    offset_t count = kept;
    for_each_droppable(p, [&](value_t mag, value_t scale) {
      if (survives(mag, scale, f)) ++count;
    });
    r.f = f;
    r.count = count;
    return count;
  }

  void sort_thresholds(rank_t p) {
    RankState& r = ranks_[static_cast<std::size_t>(p)];
    if (r.sorted) return;
    for_each_droppable(p, [&](value_t mag, value_t scale) {
      r.thresholds.push_back(survival_threshold(mag, scale));
    });
    std::sort(r.thresholds.begin(), r.thresholds.end());
    r.sorted = true;
  }

 private:
  struct RankState {
    value_t f = std::numeric_limits<value_t>::quiet_NaN();
    offset_t count = 0;
    bool sorted = false;
    std::vector<value_t> thresholds;
  };

  template <typename Fn>
  void for_each_droppable(rank_t p, Fn&& fn) const {
    const auto row_ptr = g_ext_.row_ptr();
    for (index_t i = layout_.begin(p); i < layout_.end(p); ++i) {
      const auto cols = g_ext_.row_cols(i);
      const auto vals = g_ext_.row_vals(i);
      const auto k0 = static_cast<std::size_t>(row_ptr[static_cast<std::size_t>(i)]);
      for (std::size_t k = 0; k < cols.size(); ++k) {
        if (classes_.droppable[k0 + k] != 0) {
          fn(std::abs(vals[k]), entry_scale(diag_, i, cols[k]));
        }
      }
    }
  }

  const CsrMatrix& g_ext_;
  const EntryClasses& classes_;
  const Layout& layout_;
  std::span<const value_t> diag_;
  std::vector<RankState> ranks_;
};

/// Assemble the surviving pattern given per-rank filters.
FilterOutcome assemble(const CsrMatrix& g_ext, const EntryClasses& classes,
                       const Layout& layout, std::vector<value_t> rank_filter,
                       std::span<const value_t> diag) {
  const index_t n = g_ext.rows();
  const auto g_row_ptr = g_ext.row_ptr();
  std::vector<offset_t> row_ptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<index_t> col_idx;
  col_idx.reserve(static_cast<std::size_t>(g_ext.nnz()));
  FilterOutcome out;
  out.rank_entries.assign(static_cast<std::size_t>(layout.nranks()), 0);
  for (rank_t p = 0; p < layout.nranks(); ++p) {
    const value_t f = rank_filter[static_cast<std::size_t>(p)];
    for (index_t i = layout.begin(p); i < layout.end(p); ++i) {
      const auto cols = g_ext.row_cols(i);
      const auto vals = g_ext.row_vals(i);
      const auto k0 = static_cast<std::size_t>(g_row_ptr[static_cast<std::size_t>(i)]);
      for (std::size_t k = 0; k < cols.size(); ++k) {
        if (classes.droppable[k0 + k] == 0 ||
            survives(std::abs(vals[k]), entry_scale(diag, i, cols[k]), f)) {
          col_idx.push_back(cols[k]);
        }
      }
      row_ptr[static_cast<std::size_t>(i) + 1] = static_cast<offset_t>(col_idx.size());
    }
    out.rank_entries[static_cast<std::size_t>(p)] =
        row_ptr[static_cast<std::size_t>(layout.end(p))] -
        row_ptr[static_cast<std::size_t>(layout.begin(p))];
  }
  out.pattern = SparsityPattern(n, n, std::move(row_ptr), std::move(col_idx));
  out.rank_filter = std::move(rank_filter);
  return out;
}

}  // namespace

FilterOutcome static_filter(const CsrMatrix& g_ext, const SparsityPattern& base,
                            const Layout& layout, const FilterOptions& options) {
  FSAIC_REQUIRE(g_ext.rows() == layout.global_size(), "layout mismatch");
  const auto diag = g_ext.diagonal();
  std::vector<value_t> filters(static_cast<std::size_t>(layout.nranks()),
                               options.filter);
  return assemble(g_ext, classify(g_ext, base, layout, options), layout,
                  std::move(filters), diag);
}

FilterOutcome dynamic_filter(const CsrMatrix& g_ext, const SparsityPattern& base,
                             const Layout& layout, const FilterOptions& options,
                             CommStats* stats) {
  FSAIC_REQUIRE(g_ext.rows() == layout.global_size(), "layout mismatch");
  const auto diag = g_ext.diagonal();
  const EntryClasses classes = classify(g_ext, base, layout, options);
  SurvivorCounter counter(g_ext, classes, layout, diag);
  const rank_t nranks = layout.nranks();
  std::vector<value_t> filters(static_cast<std::size_t>(nranks), options.filter);
  std::vector<offset_t> counts(static_cast<std::size_t>(nranks), 0);
  int bisections = 0;

  for (int round = 0; round < options.rebalance_rounds; ++round) {
    // Each process computes its share, then the totals are exchanged with
    // one allreduce (Algorithm 4 line 3).
    offset_t total = 0;
    for (rank_t p = 0; p < nranks; ++p) {
      counts[static_cast<std::size_t>(p)] =
          counter.count(p, filters[static_cast<std::size_t>(p)]);
      total += counts[static_cast<std::size_t>(p)];
    }
    if (stats != nullptr) stats->record_allreduce(sizeof(offset_t));

    const double avg = static_cast<double>(total) / static_cast<double>(nranks);
    const double target_hi = avg * (1.0 + options.imbalance_tolerance);
    bool any_overloaded = false;

    for (rank_t p = 0; p < nranks; ++p) {
      if (static_cast<double>(counts[static_cast<std::size_t>(p)]) <= target_hi) {
        continue;
      }
      any_overloaded = true;
      counter.sort_thresholds(p);
      // Doubling phase (Algorithm 4 line 8): grow the filter until the
      // process's share is at or below the tolerated maximum.
      value_t lo = filters[static_cast<std::size_t>(p)];
      value_t hi = lo > 0.0 ? lo : 1e-8;
      int steps = 0;
      offset_t hi_count = counts[static_cast<std::size_t>(p)];
      while (steps < options.max_bisection_steps) {
        hi *= 2.0;
        ++steps;
        ++bisections;
        hi_count = counter.count(p, hi);
        if (static_cast<double>(hi_count) <= target_hi) break;
      }
      // Bisection phase (Algorithm 4 line 10): shrink back toward the
      // smallest filter that still meets the target, so no more entries are
      // dropped than balance requires.
      while (steps < options.max_bisection_steps && hi - lo > 1e-12 * hi) {
        const value_t mid = 0.5 * (lo + hi);
        ++steps;
        ++bisections;
        const offset_t mid_count = counter.count(p, mid);
        if (static_cast<double>(mid_count) <= target_hi) {
          hi = mid;
          hi_count = mid_count;
        } else {
          lo = mid;
        }
      }
      filters[static_cast<std::size_t>(p)] = hi;
      counts[static_cast<std::size_t>(p)] = hi_count;
    }
    if (!any_overloaded) break;
  }

  FilterOutcome out = assemble(g_ext, classes, layout, std::move(filters), diag);
  out.bisection_iterations = bisections;
  return out;
}

double imbalance_index(std::span<const offset_t> rank_entries) {
  if (rank_entries.empty()) return 1.0;
  offset_t total = 0;
  offset_t maxval = 0;
  for (offset_t c : rank_entries) {
    total += c;
    maxval = std::max(maxval, c);
  }
  if (maxval == 0) return 1.0;
  const double avg =
      static_cast<double>(total) / static_cast<double>(rank_entries.size());
  return avg / static_cast<double>(maxval);
}

std::vector<offset_t> rank_entry_counts(const SparsityPattern& p,
                                        const Layout& layout) {
  FSAIC_REQUIRE(p.rows() == layout.global_size(), "layout mismatch");
  std::vector<offset_t> counts(static_cast<std::size_t>(layout.nranks()), 0);
  for (rank_t r = 0; r < layout.nranks(); ++r) {
    for (index_t i = layout.begin(r); i < layout.end(r); ++i) {
      counts[static_cast<std::size_t>(r)] += p.row_nnz(i);
    }
  }
  return counts;
}

}  // namespace fsaic

// Algorithm 3 of the paper: cache-friendly sparse-pattern extension with the
// communication-aware halo admission rule.
//
// For every entry (i, j) of the lower-triangular pattern S, the SpMV already
// fetches the cache line of x_j; every other column k whose x coefficient
// shares that line can be added to row i "for free" from the memory-traffic
// point of view. Locally owned k are always admissible. A halo k (owned by
// another rank) is admissible only under the communication-aware rule:
//
//   * owner(i) must already receive x_k under the scheme of  G x   (S), and
//   * owner(k) must already receive x_i under the scheme of  G^T x (S^T),
//
// so that neither product's halo exchange grows by a single coefficient.
// Both conditions read only rank-local data (docs/algorithms.md): owner(i)
// receives x_k exactly when k is a ghost column of its own base rows, and
// owner(k) receives x_i exactly when base row i has a column owner(k) owns.
// So each rank extends its own rows independently, as in the paper, where
// every MPI process runs Algorithm 3 for its rows.
// The FullHalo mode deliberately drops that rule — it is the naive strawman
// the benches use to show why communication awareness matters.
#pragma once

#include "dist/layout.hpp"
#include "sparse/pattern.hpp"

namespace fsaic {

class Executor;

enum class ExtensionMode {
  None,       ///< plain FSAI: no extension
  LocalOnly,  ///< FSAIE: extend only with locally owned columns
  CommAware,  ///< FSAIE-Comm: local + communication-neutral halo columns
  FullHalo,   ///< naive strawman: local + every cache-line halo column
};

[[nodiscard]] const char* to_string(ExtensionMode mode);

struct ExtensionResult {
  SparsityPattern extended;
  /// Entries added on locally owned columns.
  offset_t local_added = 0;
  /// Entries added on halo columns.
  offset_t halo_added = 0;

  [[nodiscard]] offset_t total_added() const { return local_added + halo_added; }
};

/// Extend lower-triangular pattern `s` (the pattern of G) under `layout`.
/// `cache_line_bytes` must be a multiple of sizeof(value_t); the x vector is
/// assumed line-aligned, so the line of x_j covers columns
/// [j - j % L, j - j % L + L) with L = cache_line_bytes / sizeof(value_t).
/// Ranks extend their rows in parallel on `exec` (null -> the process-wide
/// default executor); the result is the same for every executor and thread
/// count.
[[nodiscard]] ExtensionResult extend_pattern(const SparsityPattern& s,
                                             const Layout& layout,
                                             int cache_line_bytes,
                                             ExtensionMode mode,
                                             Executor* exec = nullptr);

}  // namespace fsaic

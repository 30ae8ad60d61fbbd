// Weak-scaling study over rank-local generated operators (see
// docs/workload-generation.md). Emits BENCH_weakscale.json, gated in CI by
// tools/bench_diff.py --mode weakscale.
//
// Two series:
//
//  * fixed: one ~1M-row stencil operator generated at several rank counts,
//    each under the flat and the node-aware comm scheme. The artifact
//    records, per cell, the operator's content fingerprint (must be
//    identical everywhere — the generator's determinism contract), an
//    FNV-1a digest of the Jacobi-CG residual history (flat and node-aware
//    must match bit-exactly per rank count), the intra/inter byte split of
//    the solve (must sum to the flat total), and the per-rank nnz balance.
//    No global matrix is materialized anywhere in this series.
//
//  * weak: fixed rows/rank with the rank count growing. The plane size is
//    deliberately not a multiple of the cache-line width, so the naive
//    full-halo pattern extension must admit new communication columns while
//    the communication-aware rule admits exactly zero — the paper's central
//    claim, now checked at weak-scaling sizes. The artifact also records
//    the maximum per-rank halo recv bytes, which must stay exactly flat
//    (+-0%) as ranks grow at fixed rows/rank.
//
// Environment knobs:
//   FSAIC_WEAKSCALE_OUT             artifact path (default BENCH_weakscale.json)
//   FSAIC_WEAKSCALE_MAX_ITERATIONS  CG iteration budget per solve (default 50)
//   FSAIC_WEAKSCALE_FIXED_SPEC      override the fixed-series workload spec
//   FSAIC_WEAKSCALE_WEAK_SPEC       override the weak-series workload spec
#include "bench_common.hpp"

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "core/pattern_extend.hpp"
#include "dist/comm_scheme.hpp"
#include "dist/dist_csr.hpp"
#include "obs/exposition.hpp"
#include "obs/json.hpp"
#include "pipeline/solve_pipeline.hpp"
#include "solver/pcg.hpp"
#include "solver/preconditioner.hpp"
#include "sparse/fingerprint.hpp"
#include "wgen/wgen.hpp"

namespace {

using namespace fsaic;

std::string env_string(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return (v == nullptr || *v == '\0') ? fallback : v;
}

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return (v == nullptr || *v == '\0') ? fallback : std::atoi(v);
}

std::uint64_t history_digest(const SolveResult& r) {
  Fnv1a64Stream h;
  h.update(r.residual_history.data(),
           r.residual_history.size() * sizeof(value_t));
  return h.digest();
}

std::int64_t max_rank_halo_recv_bytes(const DistCsr& d) {
  std::int64_t best = 0;
  for (rank_t p = 0; p < d.nranks(); ++p) {
    std::int64_t bytes = 0;
    for (const auto& nb : d.block(p).recv) {
      bytes += static_cast<std::int64_t>(nb.gids.size()) *
               static_cast<std::int64_t>(sizeof(value_t));
    }
    best = std::max(best, bytes);
  }
  return best;
}

/// Per rank, the sorted set of off-rank vector coefficients it must receive
/// to apply both S x and S^T x under `layout`: entry (i, j) with different
/// owners makes owner(i) receive x_j (for S x) and owner(j) receive x_i
/// (for S^T x). Comparing this set before/after a pattern extension counts
/// exactly the *new* communication columns the extension would cost.
std::vector<std::vector<index_t>> comm_needs(const SparsityPattern& pat,
                                             const Layout& layout) {
  std::vector<std::vector<index_t>> need(
      static_cast<std::size_t>(layout.nranks()));
  for (index_t i = 0; i < pat.rows(); ++i) {
    const rank_t pi = layout.owner(i);
    for (const index_t j : pat.row(i)) {
      const rank_t pj = layout.owner(j);
      if (pi == pj) continue;
      need[static_cast<std::size_t>(pi)].push_back(j);
      need[static_cast<std::size_t>(pj)].push_back(i);
    }
  }
  for (auto& v : need) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
  return need;
}

std::int64_t new_comm_cols(const std::vector<std::vector<index_t>>& base,
                           const std::vector<std::vector<index_t>>& ext) {
  std::int64_t added = 0;
  for (std::size_t p = 0; p < base.size(); ++p) {
    std::vector<index_t> fresh;
    std::set_difference(ext[p].begin(), ext[p].end(), base[p].begin(),
                        base[p].end(), std::back_inserter(fresh));
    added += static_cast<std::int64_t>(fresh.size());
  }
  return added;
}

}  // namespace

int main() {
  using fsaic::bench::print_header;
  print_header("Weak scaling — rank-local generation, comm-neutral patterns",
               "HPDC'22 Section 3 at weak-scaling sizes (docs/workload-"
               "generation.md)");

  const std::string out_path =
      env_string("FSAIC_WEAKSCALE_OUT", "BENCH_weakscale.json");
  const int max_iterations = env_int("FSAIC_WEAKSCALE_MAX_ITERATIONS", 50);
  const std::string fixed_spec =
      env_string("FSAIC_WEAKSCALE_FIXED_SPEC", "stencil3d:nx=64,ny=64,nz=256");
  const std::string weak_spec = env_string(
      "FSAIC_WEAKSCALE_WEAK_SPEC", "stencil3d:nx=61,ny=61,rows_per_rank=59536");

  JsonValue doc = JsonValue::object();
  doc["schema"] = "fsaic.bench.weakscale/v1";

  // ---- fixed series: same operator, growing rank counts, both schemes ----
  JsonValue fixed = JsonValue::object();
  fixed["spec"] = fixed_spec;
  JsonValue fixed_cells = JsonValue::array();
  TextTable fixed_table({"ranks", "comm", "fingerprint", "balance", "iters",
                         "resid.digest", "halo.B", "intra.B", "inter.B"});
  for (const rank_t nranks : {1, 4, 16}) {
    for (const bool node_aware : {false, true}) {
      const int rpn = node_aware ? std::min<rank_t>(4, nranks) : 1;
      const CommConfig comm{node_aware ? CommMode::NodeAware : CommMode::Flat,
                            rpn};
      wgen::WgenStats stats;
      const SolveSystem sys =
          generate_system(fixed_spec, nranks, comm, nullptr, &stats);
      const DistCsr& a = sys.a_dist;
      const MatrixFingerprint fp = sys.fingerprint();

      const DistVector b = sys.to_layout(synthesize_rhs(2022, stats.rows));
      DistVector x(sys.layout());
      const JacobiPreconditioner jacobi(a);
      const SolveResult r =
          pcg_solve(a, b, x, jacobi,
                    {.rel_tol = 1e-10, .max_iterations = max_iterations,
                     .track_residual_history = true});
      const std::uint64_t digest = history_digest(r);

      JsonValue cell = JsonValue::object();
      cell["ranks"] = nranks;
      cell["comm"] = node_aware ? "node-aware" : "flat";
      cell["ranks_per_node"] = rpn;
      cell["rows"] = stats.rows;
      cell["nnz"] = stats.nnz;
      cell["fingerprint"] = hash_hex(fp.content_hash);
      cell["max_rank_rows"] = stats.max_rank_rows;
      cell["max_rank_nnz"] = stats.max_rank_nnz;
      cell["balance"] = stats.balance();
      cell["generate_seconds"] = stats.generate_seconds;
      cell["iterations"] = r.iterations;
      cell["residual_digest"] = hash_hex(digest);
      cell["halo_bytes"] = r.comm.halo_bytes;
      cell["halo_intra_bytes"] = r.comm.halo_intra_bytes;
      cell["halo_inter_bytes"] = r.comm.halo_inter_bytes;
      cell["halo_messages"] = r.comm.halo_messages;
      cell["max_rank_halo_recv_bytes"] = max_rank_halo_recv_bytes(a);
      fixed_cells.push_back(std::move(cell));

      fixed_table.add_row(
          {std::to_string(nranks), node_aware ? "node-aware" : "flat",
           hash_hex(fp.content_hash), strformat("%.3f", stats.balance()),
           std::to_string(r.iterations), hash_hex(digest),
           std::to_string(r.comm.halo_bytes),
           std::to_string(r.comm.halo_intra_bytes),
           std::to_string(r.comm.halo_inter_bytes)});
    }
  }
  fixed["cells"] = std::move(fixed_cells);
  doc["fixed"] = std::move(fixed);
  std::cout << "fixed series (" << fixed_spec << "):\n";
  fixed_table.print(std::cout);

  // ---- weak series: fixed rows/rank, growing ranks, comm neutrality ----
  JsonValue weak = JsonValue::object();
  weak["spec"] = weak_spec;
  JsonValue weak_cells = JsonValue::array();
  TextTable weak_table({"ranks", "rows", "max.halo.recv.B", "new.cols.comm",
                        "new.cols.full", "added.comm", "added.full"});
  // 256 B lines (a64fx): the widest extension reach, the strongest test of
  // the admission rule.
  constexpr int kLineBytes = 256;
  for (const rank_t nranks : {4, 8, 16}) {
    const wgen::ResolvedWorkload w =
        wgen::resolve_workload(wgen::parse_workload_spec(weak_spec), nranks);
    wgen::WgenStats stats;
    const DistCsr a = wgen::generate_dist(w, nranks, CommConfig{}, &stats);
    const Layout& layout = a.row_layout();
    const MatrixFingerprint fp = fingerprint_rank_local(a);

    // The lower-triangular structure of the operator — the seed pattern S
    // of G. Structure only: values are never materialized globally.
    const RankLocalRows rows = wgen::generate_rows(w, 0, w.rows);
    std::vector<offset_t> lp(static_cast<std::size_t>(w.rows) + 1, 0);
    std::vector<index_t> lc;
    for (index_t i = 0; i < w.rows; ++i) {
      for (offset_t e = rows.row_ptr[static_cast<std::size_t>(i)];
           e < rows.row_ptr[static_cast<std::size_t>(i) + 1]; ++e) {
        const index_t j = rows.col_gids[static_cast<std::size_t>(e)];
        if (j <= i) lc.push_back(j);
      }
      lp[static_cast<std::size_t>(i) + 1] =
          static_cast<offset_t>(lc.size());
    }
    const SparsityPattern s(w.rows, w.rows, std::move(lp), std::move(lc));

    const ExtensionResult ext_comm =
        extend_pattern(s, layout, kLineBytes, ExtensionMode::CommAware);
    const ExtensionResult ext_full =
        extend_pattern(s, layout, kLineBytes, ExtensionMode::FullHalo);
    const auto base_need = comm_needs(s, layout);
    const std::int64_t fresh_comm =
        new_comm_cols(base_need, comm_needs(ext_comm.extended, layout));
    const std::int64_t fresh_full =
        new_comm_cols(base_need, comm_needs(ext_full.extended, layout));

    JsonValue cell = JsonValue::object();
    cell["ranks"] = nranks;
    cell["rows"] = stats.rows;
    cell["nnz"] = stats.nnz;
    cell["fingerprint"] = hash_hex(fp.content_hash);
    cell["balance"] = stats.balance();
    cell["max_rank_halo_recv_bytes"] = max_rank_halo_recv_bytes(a);
    cell["new_comm_cols_comm_aware"] = fresh_comm;
    cell["new_comm_cols_full_halo"] = fresh_full;
    cell["halo_added_comm_aware"] = ext_comm.halo_added;
    cell["halo_added_full_halo"] = ext_full.halo_added;
    weak_cells.push_back(std::move(cell));

    weak_table.add_row({std::to_string(nranks), std::to_string(stats.rows),
                        std::to_string(max_rank_halo_recv_bytes(a)),
                        std::to_string(fresh_comm),
                        std::to_string(fresh_full),
                        std::to_string(ext_comm.halo_added),
                        std::to_string(ext_full.halo_added)});
  }
  weak["cells"] = std::move(weak_cells);
  doc["weak"] = std::move(weak);
  std::cout << "\nweak series (" << weak_spec << ", " << kLineBytes
            << " B lines):\n";
  weak_table.print(std::cout);

  atomic_write_file(out_path, doc.dump() + "\n");
  std::cout << "\nartifact -> " << out_path
            << " (gate: tools/bench_diff.py --mode weakscale)\n";
  return 0;
}

#include "dist/dist_csr.hpp"

#include <algorithm>
#include <exception>
#include <limits>

#include "exec/executor.hpp"
#include "exec/halo.hpp"
#include "obs/trace.hpp"
#include "sparse/ops.hpp"
#include "sparse/vector_ops.hpp"

namespace fsaic {

namespace {

/// SELL chunk widths the autotuner scores — exactly the compile-time
/// specializations of SellMatrix::spmv (anything else takes the slower
/// generic shape, so there is no point padding for it).
constexpr index_t kAutotuneChunks[] = {4, 8, 16, 32};
/// Padding overhead beyond which the SIMD format stops paying for its
/// wasted loads and the scalar CSR reference wins.
constexpr double kAutotunePaddingLimit = 1.25;

/// Resolve `autotune` into a concrete format/chunk for this matrix: the
/// least-padded candidate chunk over every block's interior+boundary row
/// subsets (the exact SellMatrix builds use_kernel performs), ties to the
/// wider chunk; Csr when even the best candidate pads more than the limit.
KernelConfig resolve_autotune(const KernelConfig& requested,
                              std::span<const RankBlock> blocks) {
  KernelConfig resolved = requested;
  resolved.autotune = false;
  offset_t nnz = 0;
  for (const auto& blk : blocks) nnz += blk.matrix.nnz();
  if (nnz == 0) {
    resolved.format = OperatorFormat::Csr;
    return resolved;
  }
  index_t best_chunk = 0;
  offset_t best_padded = 0;
  for (const index_t chunk : kAutotuneChunks) {
    const index_t sigma =
        std::max(chunk, requested.sell_sigma / chunk * chunk);
    offset_t padded = 0;
    for (const auto& blk : blocks) {
      padded += sell_padded_entries(blk.matrix, blk.interior_rows, chunk, sigma);
      padded += sell_padded_entries(blk.matrix, blk.boundary_rows, chunk, sigma);
    }
    // `<=` prefers the widest chunk among equals: same stored slots, more
    // SIMD lanes per iteration.
    if (best_chunk == 0 || padded <= best_padded) {
      best_chunk = chunk;
      best_padded = padded;
    }
  }
  const double ratio =
      static_cast<double>(best_padded) / static_cast<double>(nnz);
  if (ratio > kAutotunePaddingLimit) {
    resolved.format = OperatorFormat::Csr;
  } else {
    resolved.format = OperatorFormat::Sell;
    resolved.sell_chunk = best_chunk;
    resolved.sell_sigma =
        std::max(best_chunk, requested.sell_sigma / best_chunk * best_chunk);
  }
  return resolved;
}

/// One row of global-column input to build_rank_block.
struct RowView {
  std::span<const index_t> cols;
  std::span<const value_t> vals;
};

/// Build rank p's RankBlock from its rows of the conceptual global matrix
/// (`row(li)` yields local row li with GLOBAL column ids, sorted). This is
/// the one remapping code path shared by distribute() and from_rank_local(),
/// so both produce bit-identical blocks from the same rows. Pure per-rank
/// work — safe to run for distinct ranks concurrently.
template <typename RowFn>
void build_rank_block(const Layout& layout, rank_t p, RowFn&& row,
                      RankBlock& blk) {
  const index_t row0 = layout.begin(p);
  const index_t row1 = layout.end(p);
  const index_t nloc = layout.local_size(p);

  // Pass 1: collect ghost column ids and size the rows.
  std::vector<index_t> ghosts;
  std::vector<offset_t> row_ptr(static_cast<std::size_t>(nloc) + 1, 0);
  for (index_t li = 0; li < nloc; ++li) {
    const auto cols = row(li).cols;
    for (index_t j : cols) {
      if (j < row0 || j >= row1) ghosts.push_back(j);
    }
    row_ptr[static_cast<std::size_t>(li) + 1] =
        row_ptr[static_cast<std::size_t>(li)] + static_cast<offset_t>(cols.size());
  }
  std::sort(ghosts.begin(), ghosts.end());
  ghosts.erase(std::unique(ghosts.begin(), ghosts.end()), ghosts.end());
  blk.ghost_gids = ghosts;

  // Pass 2: write the local CSR with remapped columns in place. A sorted
  // global row is three runs: ghosts below row0, owned columns, ghosts at
  // or above row1. Local order puts the owned run (local ids 0..nloc)
  // first, then the ghosts by ascending gid, so the row is already sorted
  // as owned run, lower ghost run, upper ghost run.
  std::vector<index_t> col_idx(static_cast<std::size_t>(row_ptr.back()));
  std::vector<value_t> values(col_idx.size());
  const auto ghost_index = [&](index_t j) {
    return nloc + static_cast<index_t>(
                      std::lower_bound(ghosts.begin(), ghosts.end(), j) -
                      ghosts.begin());
  };
  for (index_t li = 0; li < nloc; ++li) {
    const RowView rv = row(li);
    const auto lo = static_cast<std::size_t>(
        std::lower_bound(rv.cols.begin(), rv.cols.end(), row0) - rv.cols.begin());
    const auto hi = static_cast<std::size_t>(
        std::lower_bound(rv.cols.begin() + static_cast<std::ptrdiff_t>(lo),
                         rv.cols.end(), row1) -
        rv.cols.begin());
    auto pos = static_cast<std::size_t>(row_ptr[static_cast<std::size_t>(li)]);
    const auto put = [&](std::size_t k, index_t lj) {
      col_idx[pos] = lj;
      values[pos] = rv.vals[k];
      ++pos;
    };
    for (std::size_t k = lo; k < hi; ++k) put(k, rv.cols[k] - row0);
    for (std::size_t k = 0; k < lo; ++k) put(k, ghost_index(rv.cols[k]));
    for (std::size_t k = hi; k < rv.cols.size(); ++k) {
      put(k, ghost_index(rv.cols[k]));
    }
    blk.local_entries += static_cast<offset_t>(hi - lo);
    blk.halo_entries += static_cast<offset_t>(rv.cols.size() - (hi - lo));
  }
  blk.matrix = CsrMatrix(nloc, nloc + static_cast<index_t>(ghosts.size()),
                         std::move(row_ptr), std::move(col_idx),
                         std::move(values));

  // Interior/boundary row split for the overlap-capable SpMV: a row is
  // boundary iff it touches any ghost column.
  for (index_t li = 0; li < nloc; ++li) {
    const auto cols = blk.matrix.row_cols(li);
    (!cols.empty() && cols.back() >= nloc ? blk.boundary_rows
                                          : blk.interior_rows)
        .push_back(li);
  }

  // Recv map: ghosts grouped by owning rank (ascending rank, sorted gids —
  // ghosts are globally sorted and ranks own ascending ranges, so a single
  // sweep groups them).
  rank_t current = -1;
  for (index_t gid : ghosts) {
    const rank_t q = layout.owner(gid);
    if (q != current) {
      blk.recv.push_back({q, {}});
      current = q;
    }
    blk.recv.back().gids.push_back(gid);
  }
}

/// emit(gid, value) for every entry of block row li, in ascending global
/// column order: the row's owned run (gid = row0 + c) merged with its ghost
/// run (ascending ghost_gids). Sorting by local index put every owned
/// column before every ghost, so each run is already sorted.
template <typename Emit>
void for_each_global_entry(const RankBlock& blk, index_t row0, index_t li,
                           Emit&& emit) {
  constexpr index_t kDone = std::numeric_limits<index_t>::max();
  const index_t nloc = blk.matrix.rows();
  const auto cols = blk.matrix.row_cols(li);
  const auto vals = blk.matrix.row_vals(li);
  const auto split = static_cast<std::size_t>(
      std::lower_bound(cols.begin(), cols.end(), nloc) - cols.begin());
  std::size_t il = 0;
  std::size_t ig = split;
  while (il < split || ig < cols.size()) {
    const index_t gl = il < split ? row0 + cols[il] : kDone;
    const index_t gg =
        ig < cols.size() ? blk.ghost_gids[static_cast<std::size_t>(cols[ig] - nloc)]
                         : kDone;
    if (gl < gg) {
      emit(gl, vals[il]);
      ++il;
    } else {
      emit(gg, vals[ig]);
      ++ig;
    }
  }
}

/// Rank q's block of the transpose of the matrix whose finished blocks
/// (send maps included) are `src`. Row r of q's block collects column i of
/// every row i that has an entry in column row0 + r: q's own rows give the
/// owned columns, in ascending row order; the boundary rows of each rank p
/// that q sends to give the ghost columns, ascending by p and then by row,
/// which is ascending gid. So every row comes out sorted by local column
/// index, ghosts and recv maps come out sorted, and the block equals
/// build_rank_block's of the transposed global rows. Count pass, then fill
/// pass, straight into the CSR arrays.
void build_transpose_block(const Layout& layout, std::span<const RankBlock> src,
                           rank_t q, RankBlock& blk) {
  const index_t row0 = layout.begin(q);
  const index_t nloc = layout.local_size(q);
  const RankBlock& own = src[static_cast<std::size_t>(q)];

  // In the block of a rank p that q sends to, the ghost columns q owns are
  // one contiguous local column range (ghosts are sorted by gid and q owns
  // a contiguous gid range).
  struct Source {
    rank_t p;
    index_t col_lo;
    index_t col_hi;
  };
  std::vector<Source> sources;
  sources.reserve(own.send.size());
  for (const auto& nb : own.send) {
    const RankBlock& pb = src[static_cast<std::size_t>(nb.rank)];
    const index_t pnloc = pb.matrix.rows();
    const auto lo =
        std::lower_bound(pb.ghost_gids.begin(), pb.ghost_gids.end(), row0);
    sources.push_back(
        {nb.rank, pnloc + static_cast<index_t>(lo - pb.ghost_gids.begin()),
         pnloc + static_cast<index_t>(lo - pb.ghost_gids.begin()) +
             static_cast<index_t>(nb.gids.size())});
  }
  // emit(row r of the transpose, column of p's block, value) for the
  // entries of p's boundary row lr that q owns.
  const auto for_each_q_entry = [&](const Source& s, index_t lr, auto&& emit) {
    const RankBlock& pb = src[static_cast<std::size_t>(s.p)];
    const index_t pnloc = pb.matrix.rows();
    const auto cols = pb.matrix.row_cols(lr);
    const auto vals = pb.matrix.row_vals(lr);
    const auto b = std::lower_bound(cols.begin(), cols.end(), s.col_lo);
    const auto e = std::lower_bound(b, cols.end(), s.col_hi);
    for (auto it = b; it != e; ++it) {
      const auto k = static_cast<std::size_t>(it - cols.begin());
      emit(pb.ghost_gids[static_cast<std::size_t>(cols[k] - pnloc)] - row0,
           vals[k]);
    }
    return b != e;
  };

  // Count pass.
  std::vector<offset_t> row_ptr(static_cast<std::size_t>(nloc) + 1, 0);
  for (index_t li = 0; li < nloc; ++li) {
    for (const index_t c : own.matrix.row_cols(li)) {
      if (c >= nloc) break;
      ++row_ptr[static_cast<std::size_t>(c) + 1];
    }
  }
  for (const Source& s : sources) {
    for (const index_t lr : src[static_cast<std::size_t>(s.p)].boundary_rows) {
      for_each_q_entry(s, lr, [&](index_t r, value_t) {
        ++row_ptr[static_cast<std::size_t>(r) + 1];
      });
    }
  }
  for (std::size_t r = 0; r < static_cast<std::size_t>(nloc); ++r) {
    row_ptr[r + 1] += row_ptr[r];
  }

  // Fill pass: owned columns first, then ghosts in ascending gid.
  std::vector<index_t> col_idx(static_cast<std::size_t>(row_ptr.back()));
  std::vector<value_t> values(col_idx.size());
  std::vector<offset_t> cursor(row_ptr.begin(), row_ptr.end() - 1);
  const auto put = [&](index_t r, index_t col, value_t v) {
    const auto at = static_cast<std::size_t>(cursor[static_cast<std::size_t>(r)]++);
    col_idx[at] = col;
    values[at] = v;
  };
  for (index_t li = 0; li < nloc; ++li) {
    const auto cols = own.matrix.row_cols(li);
    const auto vals = own.matrix.row_vals(li);
    for (std::size_t k = 0; k < cols.size() && cols[k] < nloc; ++k) {
      put(cols[k], li, vals[k]);
      ++blk.local_entries;
    }
  }
  for (const Source& s : sources) {
    const index_t prow0 = layout.begin(s.p);
    for (const index_t lr : src[static_cast<std::size_t>(s.p)].boundary_rows) {
      const auto ghost = nloc + static_cast<index_t>(blk.ghost_gids.size());
      const bool touched = for_each_q_entry(s, lr, [&](index_t r, value_t v) {
        put(r, ghost, v);
        ++blk.halo_entries;
      });
      if (!touched) continue;
      blk.ghost_gids.push_back(prow0 + lr);
      if (blk.recv.empty() || blk.recv.back().rank != s.p) {
        blk.recv.push_back({s.p, {}});
      }
      blk.recv.back().gids.push_back(prow0 + lr);
    }
  }
  blk.matrix = CsrMatrix(nloc, nloc + static_cast<index_t>(blk.ghost_gids.size()),
                         std::move(row_ptr), std::move(col_idx),
                         std::move(values));
  for (index_t r = 0; r < nloc; ++r) {
    const auto cols = blk.matrix.row_cols(r);
    (!cols.empty() && cols.back() >= nloc ? blk.boundary_rows
                                          : blk.interior_rows)
        .push_back(r);
  }
}

}  // namespace

DistCsr DistCsr::distribute(const CsrMatrix& global, Layout layout,
                            const CommConfig& comm, Executor* exec) {
  FSAIC_REQUIRE(global.rows() == global.cols(),
                "DistCsr distributes square operators");
  FSAIC_REQUIRE(global.rows() == layout.global_size(),
                "layout size must match matrix");
  DistCsr d;
  d.row_layout_ = layout;
  d.col_layout_ = layout;
  std::vector<RankBlock> blocks(static_cast<std::size_t>(layout.nranks()));
  const auto build = [&](index_t pi, int /*slot*/) {
    const auto p = static_cast<rank_t>(pi);
    const index_t row0 = layout.begin(p);
    build_rank_block(
        layout, p,
        [&](index_t li) {
          return RowView{global.row_cols(row0 + li), global.row_vals(row0 + li)};
        },
        blocks[static_cast<std::size_t>(p)]);
  };
  if (exec != nullptr) {
    exec->parallel_for(static_cast<index_t>(layout.nranks()), build);
  } else {
    for (rank_t p = 0; p < layout.nranks(); ++p) build(p, 0);
  }
  d.finish_build(std::move(blocks), comm);
  return d;
}

DistCsr DistCsr::from_rank_local(
    Layout layout, const std::function<RankLocalRows(rank_t)>& rank_rows,
    const CommConfig& comm, Executor* exec) {
  DistCsr d;
  d.row_layout_ = layout;
  d.col_layout_ = layout;
  std::vector<RankBlock> blocks(static_cast<std::size_t>(layout.nranks()));

  // Each rank's block is a pure function of its generated rows; build them
  // in parallel. Exceptions (e.g. a generator handing back malformed rows)
  // are captured per rank and the first one in rank order rethrown after,
  // so the error reported does not depend on which thread failed first.
  std::vector<std::exception_ptr> errors(
      static_cast<std::size_t>(layout.nranks()));
  resolve_executor(exec).parallel_for(
      static_cast<index_t>(layout.nranks()), [&](index_t pi, int /*slot*/) {
        try {
          const auto p = static_cast<rank_t>(pi);
          const RankLocalRows rows = rank_rows(p);
          const index_t nloc = layout.local_size(p);
          FSAIC_REQUIRE(
              rows.row_ptr.size() == static_cast<std::size_t>(nloc) + 1 &&
                  rows.row_ptr.front() == 0,
              "rank rows must cover exactly the layout's local range");
          const auto nnz = static_cast<std::size_t>(rows.row_ptr.back());
          FSAIC_REQUIRE(
              rows.col_gids.size() == nnz && rows.values.size() == nnz,
              "rank rows arrays disagree with row_ptr");
          for (std::size_t li = 0; li < static_cast<std::size_t>(nloc); ++li) {
            const auto b = static_cast<std::size_t>(rows.row_ptr[li]);
            const auto e = static_cast<std::size_t>(rows.row_ptr[li + 1]);
            FSAIC_REQUIRE(b <= e, "rank rows row_ptr must be non-decreasing");
            for (std::size_t k = b; k < e; ++k) {
              const index_t j = rows.col_gids[k];
              FSAIC_REQUIRE(j >= 0 && j < layout.global_size(),
                            "rank rows column id out of range");
              FSAIC_REQUIRE(k == b || rows.col_gids[k - 1] < j,
                            "rank rows columns must be sorted and unique");
            }
          }
          build_rank_block(
              layout, p,
              [&](index_t li) {
                const auto b = static_cast<std::size_t>(
                    rows.row_ptr[static_cast<std::size_t>(li)]);
                const auto e = static_cast<std::size_t>(
                    rows.row_ptr[static_cast<std::size_t>(li) + 1]);
                return RowView{
                    std::span<const index_t>(rows.col_gids).subspan(b, e - b),
                    std::span<const value_t>(rows.values).subspan(b, e - b)};
              },
              blocks[static_cast<std::size_t>(p)]);
        } catch (...) {
          errors[static_cast<std::size_t>(pi)] = std::current_exception();
        }
      });
  for (const auto& err : errors) {
    if (err != nullptr) std::rethrow_exception(err);
  }

  d.finish_build(std::move(blocks), comm);
  return d;
}

DistCsr DistCsr::transposed(Executor* exec) const {
  FSAIC_REQUIRE(blocks_ != nullptr, "DistCsr was not built by distribute()");
  DistCsr t;
  t.row_layout_ = row_layout_;
  t.col_layout_ = col_layout_;
  std::vector<RankBlock> out(static_cast<std::size_t>(nranks()));
  resolve_executor(exec).parallel_for(
      static_cast<index_t>(nranks()), [&](index_t q, int /*slot*/) {
        build_transpose_block(row_layout_, blocks(), static_cast<rank_t>(q),
                              out[static_cast<std::size_t>(q)]);
      });
  t.finish_build(std::move(out), comm_);
  return t;
}

void DistCsr::finish_build(std::vector<RankBlock> blocks,
                           const CommConfig& comm) {
  // Send maps mirror the recv maps: rank q sends to p what p receives from q.
  for (rank_t p = 0; p < row_layout_.nranks(); ++p) {
    for (const auto& nb : blocks[static_cast<std::size_t>(p)].recv) {
      auto& sender = blocks[static_cast<std::size_t>(nb.rank)];
      sender.send.push_back({p, nb.gids});
    }
  }
  for (auto& blk : blocks) {
    std::sort(blk.send.begin(), blk.send.end(),
              [](const RankBlock::Neighbor& a, const RankBlock::Neighbor& b) {
                return a.rank < b.rank;
              });
  }
  blocks_ = std::make_shared<const std::vector<RankBlock>>(std::move(blocks));

  // Materialize the comm scheme as halo plans and realize them under the
  // requested comm config (shared by copies).
  comm_ = comm;
  halo_ = make_halo_exchanger(row_layout_, build_halo_plans(), comm);

  // Rank-local kernel backend: FSAIC_FORMAT selects the process-wide
  // default format; precision always starts Double (use_kernel opts in).
  use_kernel(KernelConfig::from_env());
}

void DistCsr::use_kernel(const KernelConfig& kernel) {
  kernel_ = kernel.autotune ? resolve_autotune(kernel, blocks()) : kernel;
  ops_.clear();
  ops_.reserve(blocks().size());
  for (const auto& blk : blocks()) {
    ops_.emplace_back(blk.matrix, blk.interior_rows, blk.boundary_rows,
                      kernel_);
  }
}

offset_t DistCsr::padded_entries() const {
  offset_t total = 0;
  for (std::size_t p = 0; p < blocks().size(); ++p) {
    total += ops_[p].padded_entries(blocks()[p].matrix);
  }
  return total;
}

double DistCsr::padding_ratio() const {
  const offset_t n = nnz();
  return n > 0 ? static_cast<double>(padded_entries()) / static_cast<double>(n)
               : 1.0;
}

std::vector<HaloPlan> DistCsr::build_halo_plans() const {
  std::vector<HaloPlan> plans(static_cast<std::size_t>(nranks()));
  for (rank_t p = 0; p < nranks(); ++p) {
    const RankBlock& blk = block(p);
    auto& plan = plans[static_cast<std::size_t>(p)];
    for (const auto& nb : blk.send) {
      plan.send.push_back({nb.rank, nb.gids});
    }
    for (const auto& nb : blk.recv) {
      plan.recv.push_back({nb.rank, nb.gids});
    }
  }
  return plans;
}

void DistCsr::use_comm(const CommConfig& comm) {
  FSAIC_REQUIRE(halo_ != nullptr, "DistCsr was not built by distribute()");
  if (comm == comm_) return;
  comm_ = comm;
  halo_ = make_halo_exchanger(row_layout_, build_halo_plans(), comm);
}

std::vector<double> DistCsr::halo_wait_us() const {
  return halo_ != nullptr ? halo_->wait_us_per_rank()
                          : std::vector<double>(static_cast<std::size_t>(nranks()), 0.0);
}

offset_t DistCsr::nnz() const {
  offset_t total = 0;
  for (const auto& blk : blocks()) {
    total += blk.matrix.nnz();
  }
  return total;
}

offset_t DistCsr::max_rank_nnz() const {
  offset_t m = 0;
  for (const auto& blk : blocks()) {
    m = std::max(m, blk.matrix.nnz());
  }
  return m;
}

std::int64_t DistCsr::halo_update_bytes() const {
  std::int64_t bytes = 0;
  for (const auto& blk : blocks()) {
    for (const auto& nb : blk.recv) {
      bytes += static_cast<std::int64_t>(nb.gids.size()) *
               static_cast<std::int64_t>(sizeof(value_t));
    }
  }
  return bytes;
}

std::int64_t DistCsr::halo_update_messages() const {
  FSAIC_REQUIRE(halo_ != nullptr, "DistCsr was not built by distribute()");
  return halo_->update_messages();
}

std::int64_t DistCsr::halo_update_intra_messages() const {
  FSAIC_REQUIRE(halo_ != nullptr, "DistCsr was not built by distribute()");
  return halo_->update_messages(CommLevel::Intra);
}

std::int64_t DistCsr::halo_update_inter_messages() const {
  FSAIC_REQUIRE(halo_ != nullptr, "DistCsr was not built by distribute()");
  return halo_->update_messages(CommLevel::Inter);
}

void DistCsr::spmv(const DistVector& x, DistVector& y, CommStats* stats,
                   TraceRecorder* trace, Executor* exec) const {
  FSAIC_REQUIRE(x.layout() == col_layout_, "x layout mismatch");
  FSAIC_REQUIRE(y.layout() == row_layout_, "y layout mismatch");
  FSAIC_REQUIRE(halo_ != nullptr, "DistCsr was not built by distribute()");
  Executor& ex = resolve_executor(exec);
  const rank_t n = nranks();
  // Per-rank private accounting, merged in rank order after the superstep:
  // contention-safe under the threaded executor, identical totals under
  // the sequential one.
  std::vector<CommStats> rank_stats(
      stats != nullptr ? static_cast<std::size_t>(n) : 0);

  if (halo_->overlap_capable()) {
    // One phased superstep: every thread posts all its ranks' sends (never
    // blocking), then works its ranks — interior rows compute while the
    // exchange is in flight, the drain blocks only for what is still
    // missing, boundary rows finish after it. Row sums are performed in the
    // same per-row order as the flat path, so y is bit-identical.
    ex.parallel_ranks_phased(
        n, [&](rank_t p) { halo_->post_sends(p, x); },
        [&](rank_t p) {
          const RankBlock& blk = block(p);
          const auto nloc = static_cast<std::size_t>(row_layout_.local_size(p));
          const double t0 = trace != nullptr ? trace->now_us() : 0.0;
          std::vector<value_t> x_ext(nloc + blk.ghost_gids.size());
          const auto x_loc = x.block(p);
          std::copy(x_loc.begin(), x_loc.end(), x_ext.begin());
          ops_[static_cast<std::size_t>(p)].spmv_interior(
              blk.matrix, blk.interior_rows, x_ext, y.block(p));
          const double t1 = trace != nullptr ? trace->now_us() : 0.0;
          if (trace != nullptr) {
            trace->complete("spmv_interior", "compute", t0, t1 - t0);
          }
          halo_->drain_recvs(p, std::span<value_t>(x_ext).subspan(nloc),
                             stats != nullptr
                                 ? &rank_stats[static_cast<std::size_t>(p)]
                                 : nullptr);
          const double t2 = trace != nullptr ? trace->now_us() : 0.0;
          if (trace != nullptr) {
            trace->complete("halo_exchange", "comm", t1, t2 - t1);
          }
          ops_[static_cast<std::size_t>(p)].spmv_boundary(
              blk.matrix, blk.boundary_rows, x_ext, y.block(p));
          if (trace != nullptr) {
            trace->complete("spmv_boundary", "compute", t2,
                            trace->now_us() - t2);
          }
        });
  } else {
    // Superstep 1: every rank deposits its owned coefficients into the
    // neighbors' mailboxes (the simulated wire transfer).
    ex.parallel_ranks(n, [&](rank_t p) { halo_->post_sends(p, x); });

    // Superstep 2: every rank assembles its extended local x [owned |
    // ghosts] by draining its mailboxes, then runs the rank-local SpMV.
    ex.parallel_ranks(n, [&](rank_t p) {
      const RankBlock& blk = block(p);
      const auto nloc = static_cast<std::size_t>(row_layout_.local_size(p));
      const double t0 = trace != nullptr ? trace->now_us() : 0.0;
      std::vector<value_t> x_ext(nloc + blk.ghost_gids.size());
      const auto x_loc = x.block(p);
      std::copy(x_loc.begin(), x_loc.end(), x_ext.begin());
      halo_->drain_recvs(
          p, std::span<value_t>(x_ext).subspan(nloc),
          stats != nullptr ? &rank_stats[static_cast<std::size_t>(p)] : nullptr);
      const double t1 = trace != nullptr ? trace->now_us() : 0.0;
      if (trace != nullptr) trace->complete("halo_exchange", "comm", t0, t1 - t0);
      ops_[static_cast<std::size_t>(p)].spmv_all(
          blk.matrix, blk.interior_rows, blk.boundary_rows, x_ext, y.block(p));
      if (trace != nullptr) {
        trace->complete("spmv_local", "compute", t1, trace->now_us() - t1);
      }
    });
  }

  if (stats != nullptr) {
    for (const auto& rs : rank_stats) {
      stats->merge(rs);
    }
  }
}

CsrMatrix DistCsr::to_global() const {
  const index_t n = row_layout_.global_size();
  std::vector<offset_t> row_ptr(static_cast<std::size_t>(n) + 1, 0);
  for (rank_t p = 0; p < nranks(); ++p) {
    const auto rp = block(p).matrix.row_ptr();
    const auto row0 = static_cast<std::size_t>(row_layout_.begin(p));
    for (std::size_t li = 0; li + 1 < rp.size(); ++li) {
      row_ptr[row0 + li + 1] = row_ptr[row0 + li] + rp[li + 1] - rp[li];
    }
  }
  std::vector<index_t> col_idx(static_cast<std::size_t>(row_ptr.back()));
  std::vector<value_t> values(col_idx.size());
  std::size_t pos = 0;
  for (rank_t p = 0; p < nranks(); ++p) {
    const RankBlock& blk = block(p);
    for (index_t li = 0; li < blk.matrix.rows(); ++li) {
      for_each_global_entry(blk, row_layout_.begin(p), li,
                            [&](index_t gid, value_t v) {
                              col_idx[pos] = gid;
                              // Summed onto +0.0 so that a -0.0 entry reads
                              // +0.0, the bits a COO assembly of the blocks
                              // gives.
                              values[pos] = value_t{0} + v;
                              ++pos;
                            });
    }
  }
  return CsrMatrix(n, col_layout_.global_size(), std::move(row_ptr),
                   std::move(col_idx), std::move(values));
}

MatrixFingerprint fingerprint_rank_local(const DistCsr& a) {
  const Layout& layout = a.row_layout();
  MatrixFingerprint fp;
  fp.rows = layout.global_size();
  fp.cols = layout.global_size();
  fp.nnz = a.nnz();

  // fingerprint_of() hashes the global CSR's row_ptr bytes, then col_idx
  // bytes, then value bytes; reproduce those exact streams from the rank
  // blocks. Row pointers are the running global nnz prefix; columns and
  // values come out per row in global column order (for_each_global_entry).
  Fnv1a64Stream h;
  offset_t acc = 0;
  h.update(&acc, sizeof(acc));
  for (rank_t p = 0; p < a.nranks(); ++p) {
    const auto rp = a.block(p).matrix.row_ptr();
    for (std::size_t li = 0; li + 1 < rp.size(); ++li) {
      acc += rp[li + 1] - rp[li];
      h.update(&acc, sizeof(acc));
    }
  }

  const auto scan = [&](auto&& emit) {
    for (rank_t p = 0; p < a.nranks(); ++p) {
      const RankBlock& blk = a.block(p);
      for (index_t li = 0; li < blk.matrix.rows(); ++li) {
        for_each_global_entry(blk, layout.begin(p), li, emit);
      }
    }
  };
  scan([&](index_t gid, value_t) { h.update(&gid, sizeof(gid)); });
  scan([&](index_t, value_t v) { h.update(&v, sizeof(v)); });
  fp.content_hash = h.digest();
  return fp;
}

value_t dist_dot(const DistVector& x, const DistVector& y, CommStats* stats,
                 TraceRecorder* trace, Executor* exec) {
  FSAIC_REQUIRE(x.layout() == y.layout(), "dot layout mismatch");
  Executor& ex = resolve_executor(exec);
  const double t0 = trace != nullptr ? trace->now_us() : 0.0;
  const rank_t n = x.nranks();
  std::vector<value_t> partials(static_cast<std::size_t>(n));
  ex.parallel_ranks(n, [&](rank_t p) {
    partials[static_cast<std::size_t>(p)] = dot(x.block(p), y.block(p));
  });
  value_t sum = 0.0;
  ex.allreduce_sum(partials, 1, std::span<value_t>(&sum, 1));
  if (stats != nullptr) stats->record_allreduce(sizeof(value_t));
  if (trace != nullptr) {
    trace->complete("allreduce", "comm", t0, trace->now_us() - t0);
  }
  return sum;
}

value_t dist_norm2(const DistVector& x, CommStats* stats, TraceRecorder* trace,
                   Executor* exec) {
  return std::sqrt(dist_dot(x, x, stats, trace, exec));
}

void dist_axpy(value_t alpha, const DistVector& x, DistVector& y,
               Executor* exec) {
  FSAIC_REQUIRE(x.layout() == y.layout(), "axpy layout mismatch");
  resolve_executor(exec).parallel_ranks(x.nranks(), [&](rank_t p) {
    axpy(alpha, x.block(p), y.block(p));
  });
}

void dist_xpby(const DistVector& x, value_t beta, DistVector& y,
               Executor* exec) {
  FSAIC_REQUIRE(x.layout() == y.layout(), "xpby layout mismatch");
  resolve_executor(exec).parallel_ranks(x.nranks(), [&](rank_t p) {
    xpby(x.block(p), beta, y.block(p));
  });
}

void dist_fused_cg_sweep(const DistVector& u, const DistVector& w, value_t beta,
                         value_t malpha, DistVector& p, DistVector& s,
                         DistVector& r, Executor* exec) {
  FSAIC_REQUIRE(u.layout() == p.layout() && w.layout() == s.layout() &&
                    r.layout() == p.layout() && s.layout() == p.layout(),
                "fused_cg_sweep layout mismatch");
  resolve_executor(exec).parallel_ranks(u.nranks(), [&](rank_t rank) {
    fused_cg_sweep(u.block(rank), w.block(rank), beta, malpha, p.block(rank),
                   s.block(rank), r.block(rank));
  });
}

void dist_fused_axpy_pair(value_t alpha, const DistVector& d, value_t malpha,
                          const DistVector& q, DistVector& x, DistVector& r,
                          Executor* exec) {
  FSAIC_REQUIRE(d.layout() == x.layout() && q.layout() == r.layout() &&
                    x.layout() == r.layout(),
                "fused_axpy_pair layout mismatch");
  resolve_executor(exec).parallel_ranks(d.nranks(), [&](rank_t p) {
    fused_axpy_pair(alpha, d.block(p), malpha, q.block(p), x.block(p),
                    r.block(p));
  });
}

void dist_copy(const DistVector& x, DistVector& y, Executor* exec) {
  FSAIC_REQUIRE(x.layout() == y.layout(), "copy layout mismatch");
  resolve_executor(exec).parallel_ranks(x.nranks(), [&](rank_t p) {
    const auto src = x.block(p);
    auto dst = y.block(p);
    std::copy(src.begin(), src.end(), dst.begin());
  });
}

}  // namespace fsaic

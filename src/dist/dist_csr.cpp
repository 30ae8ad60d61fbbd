#include "dist/dist_csr.hpp"

#include <algorithm>
#include <exception>
#include <limits>

#include "exec/executor.hpp"
#include "exec/halo.hpp"
#include "obs/trace.hpp"
#include "sparse/coo.hpp"
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
/// (`row(li)` yields local row li with GLOBAL column ids). This is the one
/// remapping code path shared by distribute() and from_rank_local(), so
/// both produce bit-identical blocks from the same rows. Pure per-rank
/// work — safe to run for distinct ranks concurrently.
template <typename RowFn>
void build_rank_block(const Layout& layout, rank_t p, RowFn&& row,
                      RankBlock& blk) {
  const index_t row0 = layout.begin(p);
  const index_t nloc = layout.local_size(p);

  // Pass 1: collect ghost column ids.
  std::vector<index_t> ghosts;
  for (index_t li = 0; li < nloc; ++li) {
    for (index_t j : row(li).cols) {
      if (!layout.owns(p, j)) ghosts.push_back(j);
    }
  }
  std::sort(ghosts.begin(), ghosts.end());
  ghosts.erase(std::unique(ghosts.begin(), ghosts.end()), ghosts.end());
  blk.ghost_gids = ghosts;

  // Pass 2: build the local CSR with remapped columns.
  std::vector<offset_t> row_ptr(static_cast<std::size_t>(nloc) + 1, 0);
  std::vector<index_t> col_idx;
  std::vector<value_t> values;
  // Owned columns keep relative order; ghosts are appended per row then the
  // row is re-sorted by the remapped index so CSR invariants hold.
  std::vector<std::pair<index_t, value_t>> entries;
  for (index_t li = 0; li < nloc; ++li) {
    const RowView rv = row(li);
    entries.clear();
    for (std::size_t k = 0; k < rv.cols.size(); ++k) {
      const index_t j = rv.cols[k];
      index_t lj;
      if (layout.owns(p, j)) {
        lj = j - row0;
        ++blk.local_entries;
      } else {
        const auto it = std::lower_bound(ghosts.begin(), ghosts.end(), j);
        lj = nloc + static_cast<index_t>(it - ghosts.begin());
        ++blk.halo_entries;
      }
      entries.emplace_back(lj, rv.vals[k]);
    }
    std::sort(entries.begin(), entries.end());
    for (const auto& [lj, v] : entries) {
      col_idx.push_back(lj);
      values.push_back(v);
    }
    row_ptr[static_cast<std::size_t>(li) + 1] = static_cast<offset_t>(col_idx.size());
  }
  blk.matrix = CsrMatrix(nloc, nloc + static_cast<index_t>(ghosts.size()),
                         std::move(row_ptr), std::move(col_idx),
                         std::move(values));

  // Interior/boundary row split for the overlap-capable SpMV: a row is
  // boundary iff it touches any ghost column.
  for (index_t li = 0; li < nloc; ++li) {
    const auto cols = blk.matrix.row_cols(li);
    const bool boundary =
        std::any_of(cols.begin(), cols.end(),
                    [nloc](index_t c) { return c >= nloc; });
    (boundary ? blk.boundary_rows : blk.interior_rows).push_back(li);
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
  d.blocks_.resize(static_cast<std::size_t>(layout.nranks()));

  const auto build = [&](index_t pi, int /*slot*/) {
    const auto p = static_cast<rank_t>(pi);
    const index_t row0 = layout.begin(p);
    build_rank_block(
        layout, p,
        [&](index_t li) {
          return RowView{global.row_cols(row0 + li), global.row_vals(row0 + li)};
        },
        d.blocks_[static_cast<std::size_t>(p)]);
  };
  if (exec != nullptr) {
    exec->parallel_for(static_cast<index_t>(layout.nranks()), build);
  } else {
    for (rank_t p = 0; p < layout.nranks(); ++p) build(p, 0);
  }

  d.finish_build(comm);
  return d;
}

DistCsr DistCsr::from_rank_local(
    Layout layout, const std::function<RankLocalRows(rank_t)>& rank_rows,
    const CommConfig& comm, Executor* exec) {
  DistCsr d;
  d.row_layout_ = layout;
  d.col_layout_ = layout;
  d.blocks_.resize(static_cast<std::size_t>(layout.nranks()));

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
          for (const index_t j : rows.col_gids) {
            FSAIC_REQUIRE(j >= 0 && j < layout.global_size(),
                          "rank rows column id out of range");
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
              d.blocks_[static_cast<std::size_t>(p)]);
        } catch (...) {
          errors[static_cast<std::size_t>(pi)] = std::current_exception();
        }
      });
  for (const auto& err : errors) {
    if (err != nullptr) std::rethrow_exception(err);
  }

  d.finish_build(comm);
  return d;
}

void DistCsr::finish_build(const CommConfig& comm) {
  // Send maps mirror the recv maps: rank q sends to p what p receives from q.
  for (rank_t p = 0; p < row_layout_.nranks(); ++p) {
    for (const auto& nb : blocks_[static_cast<std::size_t>(p)].recv) {
      auto& sender = blocks_[static_cast<std::size_t>(nb.rank)];
      sender.send.push_back({p, nb.gids});
    }
  }
  for (auto& blk : blocks_) {
    std::sort(blk.send.begin(), blk.send.end(),
              [](const RankBlock::Neighbor& a, const RankBlock::Neighbor& b) {
                return a.rank < b.rank;
              });
  }

  // Materialize the comm scheme as halo plans and realize them under the
  // requested comm config (shared by copies).
  comm_ = comm;
  halo_ = make_halo_exchanger(row_layout_, build_halo_plans(), comm);

  // Rank-local kernel backend: FSAIC_FORMAT selects the process-wide
  // default format; precision always starts Double (use_kernel opts in).
  use_kernel(KernelConfig::from_env());
}

void DistCsr::use_kernel(const KernelConfig& kernel) {
  kernel_ = kernel.autotune ? resolve_autotune(kernel, blocks_) : kernel;
  ops_.clear();
  ops_.reserve(blocks_.size());
  for (const auto& blk : blocks_) {
    ops_.emplace_back(blk.matrix, blk.interior_rows, blk.boundary_rows,
                      kernel_);
  }
}

offset_t DistCsr::padded_entries() const {
  offset_t total = 0;
  for (std::size_t p = 0; p < blocks_.size(); ++p) {
    total += ops_[p].padded_entries(blocks_[p].matrix);
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
    const RankBlock& blk = blocks_[static_cast<std::size_t>(p)];
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
  for (const auto& blk : blocks_) {
    total += blk.matrix.nnz();
  }
  return total;
}

offset_t DistCsr::max_rank_nnz() const {
  offset_t m = 0;
  for (const auto& blk : blocks_) {
    m = std::max(m, blk.matrix.nnz());
  }
  return m;
}

std::int64_t DistCsr::halo_update_bytes() const {
  std::int64_t bytes = 0;
  for (const auto& blk : blocks_) {
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
          const RankBlock& blk = blocks_[static_cast<std::size_t>(p)];
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
      const RankBlock& blk = blocks_[static_cast<std::size_t>(p)];
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
  CooBuilder builder(row_layout_.global_size(), col_layout_.global_size());
  for (rank_t p = 0; p < nranks(); ++p) {
    const RankBlock& blk = blocks_[static_cast<std::size_t>(p)];
    const index_t row0 = row_layout_.begin(p);
    const index_t nloc = row_layout_.local_size(p);
    for (index_t li = 0; li < nloc; ++li) {
      const auto cols = blk.matrix.row_cols(li);
      const auto vals = blk.matrix.row_vals(li);
      for (std::size_t k = 0; k < cols.size(); ++k) {
        const index_t lj = cols[k];
        const index_t gj = lj < nloc
                               ? row0 + lj
                               : blk.ghost_gids[static_cast<std::size_t>(lj - nloc)];
        builder.add(row0 + li, gj, vals[k]);
      }
    }
  }
  return builder.to_csr();
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
  // values come out per row by merging the block row's local run (ascending
  // gid = row0 + c) with its ghost run (ascending ghost_gids) — sorting by
  // local index put every owned column before every ghost, so each run is
  // already sorted and a two-pointer merge restores global column order.
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
    constexpr index_t kDone = std::numeric_limits<index_t>::max();
    for (rank_t p = 0; p < a.nranks(); ++p) {
      const RankBlock& blk = a.block(p);
      const index_t row0 = layout.begin(p);
      const index_t nloc = blk.matrix.rows();
      for (index_t li = 0; li < nloc; ++li) {
        const auto cols = blk.matrix.row_cols(li);
        const auto vals = blk.matrix.row_vals(li);
        std::size_t split = 0;
        while (split < cols.size() && cols[split] < nloc) ++split;
        std::size_t il = 0;
        std::size_t ig = split;
        while (il < split || ig < cols.size()) {
          const index_t gl = il < split ? row0 + cols[il] : kDone;
          const index_t gg =
              ig < cols.size()
                  ? blk.ghost_gids[static_cast<std::size_t>(cols[ig]) -
                                   static_cast<std::size_t>(nloc)]
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

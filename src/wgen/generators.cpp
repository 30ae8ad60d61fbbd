// Rank-local deterministic operator generation. Every row of the global
// operator is a pure function of (ResolvedWorkload, row index): stencil rows
// come straight from grid geometry, rgg rows from counter-seeded per-cell
// point streams (the KaGen trick: a deterministic recursive split assigns
// point counts to cells, so any rank can reconstruct any cell's points
// without a global list), and rmat rows from a per-edge counter-seeded
// quadrant descent. No generator draws from shared RNG state, which is what
// makes the output independent of how rows are split across ranks, threads,
// or executors.
#include "wgen/wgen.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <span>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "exec/executor.hpp"

namespace fsaic::wgen {

namespace {

/// Stream tags keep the cell-split, point-coordinate and edge streams of
/// one seed disjoint.
constexpr std::uint64_t kSplitTag = 0x73706c6974ull;   // "split"
constexpr std::uint64_t kPointTag = 0x706f696e74ull;   // "point"
constexpr std::uint64_t kEdgeTag = 0x65646765ull;      // "edge"

/// SplitMix64 finalizer — the bit mixer behind all counter-based seeding.
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t hash_combine(std::uint64_t h, std::uint64_t v) {
  return mix64(h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2)));
}

/// Sorted (gid, value) entries of one row -> appended CSR row.
void append_row(std::vector<std::pair<index_t, value_t>>& entries,
                RankLocalRows& out) {
  std::sort(entries.begin(), entries.end());
  for (const auto& [gid, v] : entries) {
    out.col_gids.push_back(gid);
    out.values.push_back(v);
  }
  out.row_ptr.push_back(static_cast<offset_t>(out.col_gids.size()));
  entries.clear();
}

// ---- structured stencils ------------------------------------------------

RankLocalRows stencil_rows(const ResolvedWorkload& w, index_t row0,
                           index_t row1) {
  RankLocalRows out;
  out.row_ptr.reserve(static_cast<std::size_t>(row1 - row0) + 1);
  out.row_ptr.push_back(0);
  const index_t nx = w.nx;
  const index_t ny = w.ny;
  const offset_t plane = static_cast<offset_t>(nx) * ny;
  std::vector<std::pair<index_t, value_t>> entries;
  for (index_t gi = row0; gi < row1; ++gi) {
    const auto z = static_cast<index_t>(gi / plane);
    const auto rem = static_cast<index_t>(gi % plane);
    const index_t y = rem / nx;
    const index_t x = rem % nx;
    if (w.family == Family::Stencil27) {
      for (index_t dz = -1; dz <= 1; ++dz) {
        for (index_t dy = -1; dy <= 1; ++dy) {
          for (index_t dx = -1; dx <= 1; ++dx) {
            if (dx == 0 && dy == 0 && dz == 0) continue;
            const index_t X = x + dx;
            const index_t Y = y + dy;
            const index_t Z = z + dz;
            if (X < 0 || X >= nx || Y < 0 || Y >= ny || Z < 0 || Z >= w.nz) {
              continue;
            }
            entries.emplace_back(
                static_cast<index_t>((static_cast<offset_t>(Z) * ny + Y) * nx +
                                     X),
                -1.0);
          }
        }
      }
      entries.emplace_back(gi, 26.0 + w.shift);
    } else {
      const bool three_d = w.family == Family::Stencil3D;
      if (x > 0) entries.emplace_back(gi - 1, -1.0);
      if (x + 1 < nx) entries.emplace_back(gi + 1, -1.0);
      if (y > 0) entries.emplace_back(gi - nx, -1.0);
      if (y + 1 < ny) entries.emplace_back(gi + nx, -1.0);
      if (three_d) {
        if (z > 0) entries.emplace_back(static_cast<index_t>(gi - plane), -1.0);
        if (z + 1 < w.nz) {
          entries.emplace_back(static_cast<index_t>(gi + plane), -1.0);
        }
        entries.emplace_back(gi, 6.0 + w.shift);
      } else {
        entries.emplace_back(gi, 4.0 + w.shift);
      }
    }
    append_row(entries, out);
  }
  return out;
}

// ---- random geometric graphs --------------------------------------------

/// Deterministic distribution of `npoints` over `ncells` linearized cells
/// via recursive binary splits of the cell index range: the left half of
/// [lo, hi) gets a normal-approximated binomial share drawn from an Rng
/// seeded by (seed, lo, hi). A prefix/locate query replays the O(log
/// ncells) splits on its root-to-leaf path, and counts() replays the splits
/// over one cell range — no O(ncells) state, so every rank answers queries
/// about every cell independently and identically.
class CellSplit {
 public:
  CellSplit(std::uint64_t seed, offset_t ncells, index_t npoints)
      : seed_(seed), ncells_(ncells), npoints_(npoints) {}

  /// Point counts of cells [first, last) into out[0, last - first): one
  /// descent through the split nodes that overlap the range, each split
  /// drawn once.
  void counts(offset_t first, offset_t last, std::span<index_t> out) const {
    std::fill(out.begin(), out.end(), 0);
    fill_counts(0, ncells_, npoints_, first, last, out);
  }

  /// Points in cells [0, cell).
  [[nodiscard]] index_t prefix(offset_t cell) const {
    if (cell >= ncells_) return npoints_;
    offset_t lo = 0;
    offset_t hi = ncells_;
    index_t cnt = npoints_;
    index_t acc = 0;
    while (hi - lo > 1 && cnt > 0) {
      const offset_t mid = lo + (hi - lo) / 2;
      const index_t left = left_of(lo, hi, cnt);
      if (cell < mid) {
        hi = mid;
        cnt = left;
      } else {
        acc += left;
        lo = mid;
        cnt -= left;
      }
    }
    return cell <= lo ? acc : acc + cnt;
  }

  /// Cell and in-cell offset of global point id `gid` (cell-major point
  /// numbering).
  void locate(index_t gid, offset_t* cell, index_t* off) const {
    offset_t lo = 0;
    offset_t hi = ncells_;
    index_t cnt = npoints_;
    index_t g = gid;
    while (hi - lo > 1) {
      const offset_t mid = lo + (hi - lo) / 2;
      const index_t left = left_of(lo, hi, cnt);
      if (g < left) {
        hi = mid;
        cnt = left;
      } else {
        g -= left;
        lo = mid;
        cnt -= left;
      }
    }
    *cell = lo;
    *off = g;
  }

 private:
  /// Left-half share of `cnt` points at split node [lo, hi): binomial
  /// (cnt, |left|/|range|) via the normal approximation with an Irwin-Hall
  /// normal deviate (sum of 12 uniforms) — O(1), exact conservation, and a
  /// pure function of (seed, lo, hi, cnt).
  [[nodiscard]] index_t left_of(offset_t lo, offset_t hi, index_t cnt) const {
    const offset_t mid = lo + (hi - lo) / 2;
    const double f = static_cast<double>(mid - lo) / static_cast<double>(hi - lo);
    Rng rng(hash_combine(hash_combine(seed_ ^ kSplitTag,
                                      static_cast<std::uint64_t>(lo)),
                         static_cast<std::uint64_t>(hi)));
    double z = -6.0;
    for (int k = 0; k < 12; ++k) z += rng.next_uniform();
    const double mean = static_cast<double>(cnt) * f;
    const double sd = std::sqrt(static_cast<double>(cnt) * f * (1.0 - f));
    long long left = std::llround(mean + z * sd);
    if (left < 0) left = 0;
    if (left > cnt) left = cnt;
    return static_cast<index_t>(left);
  }

  void fill_counts(offset_t lo, offset_t hi, index_t cnt, offset_t first,
                   offset_t last, std::span<index_t> out) const {
    if (hi <= first || lo >= last || cnt == 0) return;
    if (hi - lo == 1) {
      out[static_cast<std::size_t>(lo - first)] = cnt;
      return;
    }
    const offset_t mid = lo + (hi - lo) / 2;
    const index_t left = left_of(lo, hi, cnt);
    fill_counts(lo, mid, left, first, last, out);
    fill_counts(mid, hi, cnt - left, first, last, out);
  }

  std::uint64_t seed_;
  offset_t ncells_;
  index_t npoints_;
};

struct Point {
  double x = 0.0, y = 0.0, z = 0.0;
};

/// Append all points of one cell, in point-id order.
void append_cell_points(const ResolvedWorkload& w, offset_t cell, index_t cnt,
                        std::vector<Point>& out) {
  const index_t cells = w.cells;
  const double width = 1.0 / static_cast<double>(cells);
  const auto cx = static_cast<index_t>(cell % cells);
  const auto cyz = cell / cells;
  const auto cy = static_cast<index_t>(cyz % cells);
  const auto cz = static_cast<index_t>(cyz / cells);
  for (index_t j = 0; j < cnt; ++j) {
    Rng rng(hash_combine(hash_combine(w.seed ^ kPointTag,
                                      static_cast<std::uint64_t>(cell)),
                         static_cast<std::uint64_t>(j)));
    Point p;
    p.x = (static_cast<double>(cx) + rng.next_uniform()) * width;
    p.y = (static_cast<double>(cy) + rng.next_uniform()) * width;
    if (w.family == Family::Rgg3D) {
      p.z = (static_cast<double>(cz) + rng.next_uniform()) * width;
    }
    out.push_back(p);
  }
}

RankLocalRows rgg_rows(const ResolvedWorkload& w, index_t row0, index_t row1) {
  RankLocalRows out;
  out.row_ptr.reserve(static_cast<std::size_t>(row1 - row0) + 1);
  out.row_ptr.push_back(0);
  if (row0 == row1) return out;
  const bool three_d = w.family == Family::Rgg3D;
  const index_t cells = w.cells;
  const offset_t ncells = three_d
                              ? static_cast<offset_t>(cells) * cells * cells
                              : static_cast<offset_t>(cells) * cells;
  const CellSplit split(w.seed, ncells, w.rows);
  const double r2 = w.radius * w.radius;

  // The rows' cells are [first, last]; their neighbours lie within `reach`
  // linear cells of them. Count the cells of that range once, then
  // generate each cell's points once: cell c's points are
  // pts[prefix[c - c0] - prefix[0], prefix[c + 1 - c0] - prefix[0]).
  offset_t first = 0;
  offset_t last = 0;
  index_t off = 0;
  split.locate(row0, &first, &off);
  split.locate(row1 - 1, &last, &off);
  const offset_t reach =
      three_d ? static_cast<offset_t>(cells) * cells + cells + 1 : cells + 1;
  const offset_t c0 = std::max<offset_t>(0, first - reach);
  const offset_t c1 = std::min<offset_t>(ncells, last + reach + 1);
  const auto span = static_cast<std::size_t>(c1 - c0);
  std::vector<index_t> count(span);
  split.counts(c0, c1, count);
  std::vector<index_t> prefix(span + 1);
  prefix[0] = split.prefix(c0);
  std::vector<Point> pts;
  for (std::size_t c = 0; c < span; ++c) {
    prefix[c + 1] = prefix[c] + count[c];
    append_cell_points(w, c0 + static_cast<offset_t>(c), count[c], pts);
  }

  struct NeighborCell {
    index_t prefix = 0;
    bool self = false;
    std::span<const Point> pts;
  };
  std::vector<NeighborCell> nbrs;
  std::vector<std::pair<index_t, value_t>> entries;
  const auto cell_of = [&](offset_t c) {
    const auto k = static_cast<std::size_t>(c - c0);
    return std::span<const Point>(pts).subspan(
        static_cast<std::size_t>(prefix[k] - prefix[0]),
        static_cast<std::size_t>(count[k]));
  };

  for (offset_t cell = first; cell <= last; ++cell) {
    const index_t cnt = count[static_cast<std::size_t>(cell - c0)];
    if (cnt == 0) continue;
    const index_t pre = prefix[static_cast<std::size_t>(cell - c0)];
    const std::span<const Point> own = cell_of(cell);

    // The 3^d surrounding cells (clamped at the domain boundary — no
    // wrap-around).
    nbrs.clear();
    const auto cx = static_cast<index_t>(cell % cells);
    const auto cyz = cell / cells;
    const auto cy = static_cast<index_t>(cyz % cells);
    const auto cz = static_cast<index_t>(cyz / cells);
    const index_t z_lo = three_d ? std::max<index_t>(0, cz - 1) : 0;
    const index_t z_hi = three_d ? std::min<index_t>(cells - 1, cz + 1) : 0;
    for (index_t zz = z_lo; zz <= z_hi; ++zz) {
      for (index_t yy = std::max<index_t>(0, cy - 1);
           yy <= std::min<index_t>(cells - 1, cy + 1); ++yy) {
        for (index_t xx = std::max<index_t>(0, cx - 1);
             xx <= std::min<index_t>(cells - 1, cx + 1); ++xx) {
          const offset_t nc =
              (static_cast<offset_t>(zz) * cells + yy) * cells + xx;
          nbrs.push_back({prefix[static_cast<std::size_t>(nc - c0)], nc == cell,
                          cell_of(nc)});
        }
      }
    }

    const index_t j_lo = std::max<index_t>(0, row0 - pre);
    const index_t j_hi = std::min<index_t>(cnt, row1 - pre);
    for (index_t j = j_lo; j < j_hi; ++j) {
      const index_t gid = pre + j;
      const Point& pj = own[static_cast<std::size_t>(j)];
      for (const NeighborCell& n : nbrs) {
        for (std::size_t k = 0; k < n.pts.size(); ++k) {
          if (n.self && static_cast<index_t>(k) == j) continue;
          const double dx = n.pts[k].x - pj.x;
          const double dy = n.pts[k].y - pj.y;
          const double dz = n.pts[k].z - pj.z;
          if (dx * dx + dy * dy + dz * dz <= r2) {
            entries.emplace_back(n.prefix + static_cast<index_t>(k), -1.0);
          }
        }
      }
      // Integer degree + shift: no accumulation-order sensitivity anywhere.
      entries.emplace_back(gid,
                           static_cast<value_t>(entries.size()) + w.shift);
      append_row(entries, out);
    }
  }
  FSAIC_REQUIRE(out.row_ptr.size() == static_cast<std::size_t>(row1 - row0) + 1,
                "rgg generation lost rows");
  return out;
}

// ---- R-MAT graph Laplacian ----------------------------------------------

/// Graph500 partition probabilities (a, b, c, d) = (.57, .19, .19, .05).
RankLocalRows rmat_rows(const ResolvedWorkload& w, index_t row0, index_t row1) {
  const index_t nloc = row1 - row0;
  // Every edge endpoint in [row0, row1), as (local row gid, neighbor gid).
  // Each rank rescans the full deterministic edge stream and keeps its own
  // endpoints: O(edges) compute but O(rows/rank) memory — the price of
  // rank-local generation for a family with no geometric locality.
  std::vector<std::pair<index_t, index_t>> incident;
  for (offset_t e = 0; e < w.edges; ++e) {
    Rng rng(hash_combine(w.seed ^ kEdgeTag, static_cast<std::uint64_t>(e)));
    index_t i = 0;
    index_t j = 0;
    for (int level = 0; level < w.scale; ++level) {
      const double u = rng.next_uniform();
      i <<= 1;
      j <<= 1;
      if (u < 0.57) {
        // top-left quadrant
      } else if (u < 0.76) {
        j |= 1;
      } else if (u < 0.95) {
        i |= 1;
      } else {
        i |= 1;
        j |= 1;
      }
    }
    if (i == j) continue;  // self-loops contribute nothing to the Laplacian
    if (i >= row0 && i < row1) incident.emplace_back(i, j);
    if (j >= row0 && j < row1) incident.emplace_back(j, i);
  }
  std::sort(incident.begin(), incident.end());

  RankLocalRows out;
  out.row_ptr.reserve(static_cast<std::size_t>(nloc) + 1);
  out.row_ptr.push_back(0);
  std::size_t k = 0;
  std::vector<std::pair<index_t, value_t>> entries;
  for (index_t li = 0; li < nloc; ++li) {
    const index_t gi = row0 + li;
    offset_t degree = 0;
    while (k < incident.size() && incident[k].first == gi) {
      // Duplicate edges collapse into one entry of weight -multiplicity.
      const index_t col = incident[k].second;
      offset_t mult = 0;
      while (k < incident.size() && incident[k].first == gi &&
             incident[k].second == col) {
        ++mult;
        ++k;
      }
      degree += mult;
      entries.emplace_back(col, -static_cast<value_t>(mult));
    }
    entries.emplace_back(gi, static_cast<value_t>(degree) + w.shift);
    append_row(entries, out);
  }
  return out;
}

}  // namespace

RankLocalRows generate_rows(const ResolvedWorkload& w, index_t row0,
                            index_t row1) {
  FSAIC_REQUIRE(row0 >= 0 && row0 <= row1 && row1 <= w.rows,
                "generate_rows range out of bounds");
  switch (w.family) {
    case Family::Stencil2D:
    case Family::Stencil3D:
    case Family::Stencil27:
      return stencil_rows(w, row0, row1);
    case Family::Rgg2D:
    case Family::Rgg3D:
      return rgg_rows(w, row0, row1);
    case Family::Rmat:
      return rmat_rows(w, row0, row1);
  }
  throw Error("unknown workload family");
}

DistCsr generate_dist(const ResolvedWorkload& w, rank_t nranks,
                      const CommConfig& comm, WgenStats* stats,
                      Executor* exec) {
  FSAIC_REQUIRE(nranks >= 1, "generate_dist needs >= 1 ranks");
  const Layout layout = Layout::blocked(w.rows, nranks);
  const auto t0 = std::chrono::steady_clock::now();
  DistCsr d = DistCsr::from_rank_local(
      layout,
      [&w, &layout](rank_t p) {
        return generate_rows(w, layout.begin(p), layout.end(p));
      },
      comm, exec);
  if (stats != nullptr) {
    stats->rows = w.rows;
    stats->nnz = d.nnz();
    stats->nranks = nranks;
    stats->max_rank_nnz = d.max_rank_nnz();
    stats->max_rank_rows = 0;
    for (rank_t p = 0; p < nranks; ++p) {
      stats->max_rank_rows =
          std::max(stats->max_rank_rows, layout.local_size(p));
    }
    stats->generate_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }
  return d;
}

CsrMatrix generate_global(const ResolvedWorkload& w) {
  RankLocalRows rows = generate_rows(w, 0, w.rows);
  return CsrMatrix(w.rows, w.rows, std::move(rows.row_ptr),
                   std::move(rows.col_gids), std::move(rows.values));
}

}  // namespace fsaic::wgen

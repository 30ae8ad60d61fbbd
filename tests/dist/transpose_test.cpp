// DistCsr::transposed against distribute(transpose(to_global())) block by
// block, to_global against the COO assembly it replaced, and copies that
// share their blocks but not their kernels.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <string>

#include "common/rng.hpp"
#include "core/fsai.hpp"
#include "dist/dist_csr.hpp"
#include "exec/executor.hpp"
#include "exec/threaded_executor.hpp"
#include "matgen/generators.hpp"
#include "sparse/coo.hpp"
#include "sparse/ops.hpp"

namespace fsaic {
namespace {

/// Bitwise equality of two matrices: pattern and value bits.
void expect_same_matrix(const CsrMatrix& got, const CsrMatrix& want,
                        const std::string& what) {
  EXPECT_EQ(got.pattern(), want.pattern()) << what;
  ASSERT_EQ(got.values().size(), want.values().size()) << what;
  for (std::size_t k = 0; k < got.values().size(); ++k) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.values()[k]),
              std::bit_cast<std::uint64_t>(want.values()[k]))
        << what << " value " << k;
  }
}

void expect_same_neighbors(const std::vector<RankBlock::Neighbor>& got,
                           const std::vector<RankBlock::Neighbor>& want,
                           const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].rank, want[k].rank) << what << " neighbor " << k;
    EXPECT_EQ(got[k].gids, want[k].gids) << what << " neighbor " << k;
  }
}

void expect_same_blocks(const DistCsr& got, const DistCsr& want,
                        const std::string& what) {
  ASSERT_EQ(got.row_layout(), want.row_layout()) << what;
  for (rank_t p = 0; p < want.nranks(); ++p) {
    const std::string at = what + " rank " + std::to_string(p);
    const RankBlock& g = got.block(p);
    const RankBlock& w = want.block(p);
    expect_same_matrix(g.matrix, w.matrix, at);
    EXPECT_EQ(g.ghost_gids, w.ghost_gids) << at;
    expect_same_neighbors(g.recv, w.recv, at + " recv");
    expect_same_neighbors(g.send, w.send, at + " send");
    EXPECT_EQ(g.interior_rows, w.interior_rows) << at;
    EXPECT_EQ(g.boundary_rows, w.boundary_rows) << at;
    EXPECT_EQ(g.local_entries, w.local_entries) << at;
    EXPECT_EQ(g.halo_entries, w.halo_entries) << at;
  }
  EXPECT_EQ(got.halo_update_bytes(), want.halo_update_bytes()) << what;
  EXPECT_EQ(got.halo_update_messages(), want.halo_update_messages()) << what;
}

/// A square nonsymmetric random matrix; explicit zeros included, a few
/// empty rows and columns.
CsrMatrix random_matrix(index_t n, index_t per_row, std::uint64_t seed) {
  Rng rng(seed);
  CooBuilder coo(n, n);
  for (index_t i = 0; i < n; ++i) {
    if (i % 11 == 5) continue;  // an empty row
    for (index_t k = 0; k < per_row; ++k) {
      const index_t j = rng.next_index(n);
      if (j % 13 == 7) continue;  // a column left empty
      coo.add(i, j, rng.next_index(5) == 0 ? 0.0 : rng.next_uniform(-1.0, 1.0));
    }
  }
  return coo.to_csr();
}

struct Case {
  std::string name;
  CsrMatrix a;
  Layout layout;
};

std::vector<Case> cases() {
  std::vector<Case> out;
  const CsrMatrix r = random_matrix(180, 6, 1);
  out.push_back({"random blocked", r, Layout::blocked(180, 5)});
  out.push_back({"random empty ranks", r, Layout({0, 0, 40, 40, 130, 180, 180})});
  out.push_back({"random one rank", r, Layout::blocked(180, 1)});
  // A lower-triangular factor, the matrix the build transposes.
  const CsrMatrix a = poisson2d(13, 12);
  out.push_back({"fsai factor", compute_fsai_factor(a, fsai_base_pattern(a, 1, 0.0)),
                 Layout({0, 30, 30, 100, a.rows()})});
  out.push_back({"empty matrix", CsrMatrix(SparsityPattern(9, 9)),
                 Layout::blocked(9, 3)});
  return out;
}

TEST(DistTransposeTest, MatchesDistributeOfTheGlobalTranspose) {
  SeqExecutor seq;
  ThreadedExecutor two(2);
  ThreadedExecutor three(3);
  const std::pair<const char*, Executor*> execs[] = {
      {"default", nullptr}, {"seq", &seq}, {"2 threads", &two},
      {"3 threads", &three}};
  for (const CommConfig comm : {CommConfig{}, CommConfig{CommMode::NodeAware, 2}}) {
    for (const Case& c : cases()) {
      const DistCsr d = DistCsr::distribute(c.a, c.layout, comm);
      const DistCsr want =
          DistCsr::distribute(transpose(d.to_global()), c.layout, comm);
      for (const auto& [ename, exec] : execs) {
        const DistCsr got = d.transposed(exec);
        EXPECT_EQ(got.comm_config(), comm);
        expect_same_blocks(got, want, c.name + " on " + ename);
      }
    }
  }
}

TEST(DistTransposeTest, TransposeOfTransposeIsTheMatrix) {
  for (const Case& c : cases()) {
    const DistCsr d = DistCsr::distribute(c.a, c.layout);
    expect_same_blocks(d.transposed().transposed(), d, c.name);
  }
}

/// The COO assembly to_global used before the row merge.
CsrMatrix coo_assembly(const DistCsr& d) {
  CooBuilder builder(d.row_layout().global_size(), d.col_layout().global_size());
  for (rank_t p = 0; p < d.nranks(); ++p) {
    const RankBlock& blk = d.block(p);
    const index_t row0 = d.row_layout().begin(p);
    const index_t nloc = d.row_layout().local_size(p);
    for (index_t li = 0; li < nloc; ++li) {
      const auto cols = blk.matrix.row_cols(li);
      const auto vals = blk.matrix.row_vals(li);
      for (std::size_t k = 0; k < cols.size(); ++k) {
        const index_t lj = cols[k];
        builder.add(row0 + li,
                    lj < nloc ? row0 + lj
                              : blk.ghost_gids[static_cast<std::size_t>(lj - nloc)],
                    vals[k]);
      }
    }
  }
  return builder.to_csr();
}

TEST(DistToGlobalTest, MatchesTheCooAssembly) {
  for (const Case& c : cases()) {
    const DistCsr d = DistCsr::distribute(c.a, c.layout);
    const CsrMatrix got = d.to_global();
    expect_same_matrix(got, coo_assembly(d), c.name);
    expect_same_matrix(got, c.a, c.name + " round trip");
    EXPECT_EQ(fingerprint_rank_local(d), fingerprint_of(got)) << c.name;
  }
  // -0.0 entries come back as +0.0, as the COO summation made them.
  const CsrMatrix z(3, 3, {0, 2, 3, 4}, {0, 2, 1, 2}, {-0.0, 1.0, -0.0, 2.0});
  const DistCsr dz = DistCsr::distribute(z, Layout::blocked(3, 2));
  expect_same_matrix(dz.to_global(), coo_assembly(dz), "negative zeros");
}

TEST(DistCopyTest, CopiesShareBlocksButNotKernels) {
  const CsrMatrix a = poisson2d(20, 17);
  const Layout layout = Layout::blocked(a.rows(), 4);
  const DistCsr original = DistCsr::distribute(a, layout);
  const KernelConfig before = original.kernel_config();
  DistVector x(layout);
  for (rank_t p = 0; p < layout.nranks(); ++p) {
    auto xb = x.block(p);
    for (std::size_t i = 0; i < xb.size(); ++i) {
      xb[i] = std::sin(0.3 * static_cast<double>(layout.begin(p) + i));
    }
  }
  DistVector y_before(layout);
  original.spmv(x, y_before);

  DistCsr copy = original;
  KernelConfig sell;
  sell.format = OperatorFormat::Sell;
  copy.use_kernel(sell);
  EXPECT_EQ(copy.kernel_config().format, OperatorFormat::Sell);
  EXPECT_EQ(original.kernel_config(), before);
  for (rank_t p = 0; p < layout.nranks(); ++p) {
    EXPECT_EQ(&copy.block(p), &original.block(p)) << "rank " << p;
  }

  DistVector y_after(layout);
  DistVector y_copy(layout);
  original.spmv(x, y_after);
  copy.spmv(x, y_copy);
  for (rank_t p = 0; p < layout.nranks(); ++p) {
    const auto b = y_before.block(p);
    const auto o = y_after.block(p);
    const auto s = y_copy.block(p);
    for (std::size_t i = 0; i < b.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(o[i]), std::bit_cast<std::uint64_t>(b[i]));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(s[i]), std::bit_cast<std::uint64_t>(b[i]));
    }
  }
}

}  // namespace
}  // namespace fsaic

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "dist/comm_scheme.hpp"
#include "dist/dist_csr.hpp"
#include "exec/exec_policy.hpp"
#include "exec/executor.hpp"
#include "exec/halo.hpp"
#include "matgen/generators.hpp"
#include "sparse/ops.hpp"
#include "sparse/vector_ops.hpp"

namespace fsaic {
namespace {

TEST(LayoutTest, BlockedSplitsEvenlyWithRemainder) {
  const Layout l = Layout::blocked(10, 3);
  EXPECT_EQ(l.nranks(), 3);
  EXPECT_EQ(l.global_size(), 10);
  EXPECT_EQ(l.local_size(0), 4);
  EXPECT_EQ(l.local_size(1), 3);
  EXPECT_EQ(l.local_size(2), 3);
  EXPECT_EQ(l.owner(0), 0);
  EXPECT_EQ(l.owner(3), 0);
  EXPECT_EQ(l.owner(4), 1);
  EXPECT_EQ(l.owner(9), 2);
}

TEST(LayoutTest, ToLocalAndOwns) {
  const Layout l = Layout::blocked(10, 2);
  EXPECT_TRUE(l.owns(1, 7));
  EXPECT_FALSE(l.owns(0, 7));
  EXPECT_EQ(l.to_local(1, 7), 2);
  EXPECT_THROW((void)l.to_local(0, 7), Error);
}

TEST(LayoutTest, FromPartSizes) {
  const Layout l = Layout::from_part_sizes(std::vector<index_t>{2, 0, 3});
  EXPECT_EQ(l.nranks(), 3);
  EXPECT_EQ(l.local_size(1), 0);
  EXPECT_EQ(l.owner(2), 2);
}

TEST(DistVectorTest, ScatterGatherRoundTrip) {
  const Layout l = Layout::blocked(7, 3);
  std::vector<value_t> global{0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  const DistVector v(l, global);
  EXPECT_EQ(v.to_global(), global);
  EXPECT_DOUBLE_EQ(v.block(1)[0], 3.0);
}

TEST(DistCsrTest, ToGlobalRoundTrip) {
  const auto a = poisson2d(6, 6);
  const auto d = DistCsr::distribute(a, Layout::blocked(a.rows(), 4));
  const auto back = d.to_global();
  ASSERT_EQ(back.nnz(), a.nnz());
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j : a.row_cols(i)) {
      EXPECT_DOUBLE_EQ(back.at(i, j), a.at(i, j));
    }
  }
}

TEST(DistCsrTest, LocalAndHaloEntryCountsAddUp) {
  const auto a = poisson2d(6, 6);
  const auto d = DistCsr::distribute(a, Layout::blocked(a.rows(), 3));
  offset_t local = 0;
  offset_t halo = 0;
  for (rank_t p = 0; p < d.nranks(); ++p) {
    local += d.block(p).local_entries;
    halo += d.block(p).halo_entries;
  }
  EXPECT_EQ(local + halo, a.nnz());
  EXPECT_GT(halo, 0);
}

TEST(DistCsrTest, SendRecvMapsAreMirrored) {
  const auto a = poisson3d(4, 4, 4);
  const auto d = DistCsr::distribute(a, Layout::blocked(a.rows(), 5));
  for (rank_t p = 0; p < d.nranks(); ++p) {
    for (const auto& nb : d.block(p).recv) {
      // Find the matching send on the neighbor.
      bool found = false;
      for (const auto& snd : d.block(nb.rank).send) {
        if (snd.rank == p) {
          EXPECT_EQ(snd.gids, nb.gids);
          found = true;
        }
      }
      EXPECT_TRUE(found) << "rank " << nb.rank << " missing send to " << p;
      // Every received gid must be owned by the sender.
      for (index_t gid : nb.gids) {
        EXPECT_EQ(d.row_layout().owner(gid), nb.rank);
      }
    }
  }
}

void expect_same_blocks(const DistCsr& got, const DistCsr& want) {
  ASSERT_EQ(got.nranks(), want.nranks());
  for (rank_t p = 0; p < want.nranks(); ++p) {
    const RankBlock& g = got.block(p);
    const RankBlock& w = want.block(p);
    EXPECT_EQ(g.matrix.rows(), w.matrix.rows()) << "rank " << p;
    EXPECT_EQ(g.matrix.cols(), w.matrix.cols()) << "rank " << p;
    EXPECT_EQ(g.matrix.pattern(), w.matrix.pattern()) << "rank " << p;
    EXPECT_TRUE(std::ranges::equal(g.matrix.values(), w.matrix.values()))
        << "rank " << p;
    EXPECT_EQ(g.ghost_gids, w.ghost_gids) << "rank " << p;
    ASSERT_EQ(g.recv.size(), w.recv.size()) << "rank " << p;
    for (std::size_t k = 0; k < w.recv.size(); ++k) {
      EXPECT_EQ(g.recv[k].rank, w.recv[k].rank) << "rank " << p;
      EXPECT_EQ(g.recv[k].gids, w.recv[k].gids) << "rank " << p;
    }
    ASSERT_EQ(g.send.size(), w.send.size()) << "rank " << p;
    for (std::size_t k = 0; k < w.send.size(); ++k) {
      EXPECT_EQ(g.send[k].rank, w.send[k].rank) << "rank " << p;
      EXPECT_EQ(g.send[k].gids, w.send[k].gids) << "rank " << p;
    }
    EXPECT_EQ(g.local_entries, w.local_entries) << "rank " << p;
    EXPECT_EQ(g.halo_entries, w.halo_entries) << "rank " << p;
    EXPECT_EQ(g.interior_rows, w.interior_rows) << "rank " << p;
    EXPECT_EQ(g.boundary_rows, w.boundary_rows) << "rank " << p;
  }
}

TEST(DistCsrTest, ThreadedDistributeBuildsIdenticalBlocks) {
  // Random couplings reach across every rank boundary; the layouts are
  // uneven and outnumber the threads.
  const auto a = random_spd(600, 6, 17);
  const auto threaded = make_executor({.nthreads = 3});
  SeqExecutor seq;
  for (const Layout& layout :
       {Layout::blocked(a.rows(), 7), Layout({0, 5, 250, 251, 420, 600})}) {
    const DistCsr serial = DistCsr::distribute(a, layout);
    expect_same_blocks(DistCsr::distribute(a, layout, {}, &seq), serial);
    expect_same_blocks(DistCsr::distribute(a, layout, {}, threaded.get()),
                       serial);
  }
}

TEST(DistDotTest, MatchesSerialDot) {
  const Layout l = Layout::blocked(100, 7);
  Rng rng(5);
  std::vector<value_t> xg(100);
  std::vector<value_t> yg(100);
  for (std::size_t i = 0; i < 100; ++i) {
    xg[i] = rng.next_uniform(-1.0, 1.0);
    yg[i] = rng.next_uniform(-1.0, 1.0);
  }
  const DistVector x(l, xg);
  const DistVector y(l, yg);
  CommStats stats;
  EXPECT_NEAR(dist_dot(x, y, &stats), dot(xg, yg), 1e-12);
  EXPECT_EQ(stats.allreduce_count, 1);
}

TEST(DistAxpyTest, MatchesSerial) {
  const Layout l = Layout::blocked(50, 4);
  std::vector<value_t> xg(50, 2.0);
  std::vector<value_t> yg(50, 1.0);
  const DistVector x(l, xg);
  DistVector y(l, yg);
  dist_axpy(3.0, x, y);
  for (value_t v : y.to_global()) {
    EXPECT_DOUBLE_EQ(v, 7.0);
  }
  dist_xpby(x, 0.5, y);
  for (value_t v : y.to_global()) {
    EXPECT_DOUBLE_EQ(v, 5.5);
  }
}

TEST(CommSchemeTest, TracksHaloCoefficients) {
  // Tridiagonal 6x6 over 2 ranks: rank 0 owns 0-2, rank 1 owns 3-5.
  const auto a = poisson2d(6, 1);
  const Layout l = Layout::blocked(6, 2);
  const auto scheme = CommScheme::from_pattern(a.pattern(), l);
  EXPECT_TRUE(scheme.receives(0, 3));   // row 2 needs column 3
  EXPECT_TRUE(scheme.receives(1, 2));   // row 3 needs column 2
  EXPECT_FALSE(scheme.receives(0, 4));
  EXPECT_FALSE(scheme.receives(1, 0));
  EXPECT_EQ(scheme.exchange_count(), 2u);
  EXPECT_EQ(scheme.message_count(), 2u);
}

TEST(CommSchemeTest, SubsetRelation) {
  const auto a = poisson2d(8, 1);
  const Layout l = Layout::blocked(8, 2);
  const auto dense_scheme = CommScheme::from_pattern(a.pattern().symbolic_power(2), l);
  const auto sparse_scheme = CommScheme::from_pattern(a.pattern(), l);
  EXPECT_TRUE(sparse_scheme.subset_of(dense_scheme));
  EXPECT_FALSE(dense_scheme.subset_of(sparse_scheme));
  EXPECT_TRUE(sparse_scheme.subset_of(sparse_scheme));
}

TEST(CommStatsTest, PairBytesAccumulate) {
  CommStats s;
  s.record_halo_message(0, 1, 64);
  s.record_halo_message(0, 1, 64);
  s.record_halo_message(1, 0, 32);
  EXPECT_EQ(s.halo_messages, 3);
  EXPECT_EQ(s.halo_bytes, 160);
  EXPECT_EQ(s.neighbor_pair_count(), 2u);
  EXPECT_EQ((s.pair_bytes.at({0, 1})), 128);
  s.reset();
  EXPECT_EQ(s.halo_messages, 0);
}

class DistSpmvProperty : public ::testing::TestWithParam<rank_t> {};

TEST_P(DistSpmvProperty, MatchesSerialSpmvAndCountsTraffic) {
  const rank_t nranks = GetParam();
  const auto a = poisson2d(9, 8);
  const Layout l = Layout::blocked(a.rows(), nranks);
  const auto d = DistCsr::distribute(a, l);

  Rng rng(17);
  std::vector<value_t> xg(static_cast<std::size_t>(a.rows()));
  for (auto& v : xg) v = rng.next_uniform(-1.0, 1.0);
  const DistVector x(l, xg);
  DistVector y(l);
  CommStats stats;
  d.spmv(x, y, &stats);

  std::vector<value_t> ref(static_cast<std::size_t>(a.rows()));
  spmv(a, xg, ref);
  const auto yg = y.to_global();
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(yg[i], ref[i], 1e-12);
  }
  EXPECT_EQ(stats.halo_bytes, d.halo_update_bytes());
  EXPECT_EQ(stats.halo_messages, d.halo_update_messages());
  if (nranks > 1) {
    EXPECT_GT(stats.halo_bytes, 0);
  } else {
    EXPECT_EQ(stats.halo_bytes, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, DistSpmvProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 16));

// ---- node-aware communication layer -------------------------------------

class NodeAwareSpmv : public ::testing::TestWithParam<int> {};

TEST_P(NodeAwareSpmv, BitIdenticalToFlatWithByteExactSplit) {
  const int rpn = GetParam();
  const auto a = poisson2d(9, 8);
  const Layout l = Layout::blocked(a.rows(), 8);
  const auto flat = DistCsr::distribute(a, l, CommConfig{});
  const auto aware =
      DistCsr::distribute(a, l, CommConfig{CommMode::NodeAware, rpn});

  Rng rng(23);
  std::vector<value_t> xg(static_cast<std::size_t>(a.rows()));
  for (auto& v : xg) v = rng.next_uniform(-1.0, 1.0);
  const DistVector x(l, xg);
  DistVector y_flat(l);
  DistVector y_aware(l);
  CommStats s_flat;
  CommStats s_aware;
  flat.spmv(x, y_flat, &s_flat);
  aware.spmv(x, y_aware, &s_aware);

  // Same bits, not just the same values.
  EXPECT_EQ(y_flat.to_global(), y_aware.to_global());

  // Payload accounting is invariant: totals, the per-level sum, and the
  // per-logical-pair map all match the flat exchange byte-exactly.
  EXPECT_EQ(s_aware.halo_bytes, s_flat.halo_bytes);
  EXPECT_EQ(s_aware.halo_intra_bytes + s_aware.halo_inter_bytes,
            s_flat.halo_bytes);
  EXPECT_EQ(s_aware.pair_bytes, s_flat.pair_bytes);

  // Wire messages coalesce: never more than flat, strictly fewer once
  // several ranks of one node talk to the same peer node.
  EXPECT_LE(s_aware.halo_messages, s_flat.halo_messages);
  if (rpn >= 4) {
    EXPECT_LT(s_aware.halo_inter_messages, s_flat.halo_messages);
  }

  // Counters match the static per-update predictions of each matrix.
  EXPECT_EQ(s_aware.halo_messages, aware.halo_update_messages());
  EXPECT_EQ(s_aware.halo_intra_messages, aware.halo_update_intra_messages());
  EXPECT_EQ(s_aware.halo_inter_messages, aware.halo_update_inter_messages());
}

INSTANTIATE_TEST_SUITE_P(RanksPerNode, NodeAwareSpmv,
                         ::testing::Values(1, 2, 4, 8));

TEST(NodeAwareSpmvTest, UseCommRebuildsTheExchanger) {
  const auto a = poisson3d(5, 5, 5);
  const Layout l = Layout::blocked(a.rows(), 8);
  auto d = DistCsr::distribute(a, l, CommConfig{});
  EXPECT_EQ(d.comm_config(), CommConfig{});
  const auto flat_msgs = d.halo_update_messages();
  const auto flat_bytes = d.halo_update_bytes();

  d.use_comm(CommConfig{CommMode::NodeAware, 4});
  EXPECT_EQ(d.comm_config().mode, CommMode::NodeAware);
  EXPECT_TRUE(d.halo().overlap_capable());
  EXPECT_LT(d.halo_update_messages(), flat_msgs);
  EXPECT_EQ(d.halo_update_bytes(), flat_bytes);
  EXPECT_EQ(d.halo_update_intra_messages() + d.halo_update_inter_messages(),
            d.halo_update_messages());

  // Round-trip back to flat restores the historic counters.
  d.use_comm(CommConfig{});
  EXPECT_FALSE(d.halo().overlap_capable());
  EXPECT_EQ(d.halo_update_messages(), flat_msgs);
}

TEST(NodeAwareSpmvTest, InteriorBoundarySplitCoversAllRows) {
  const auto a = poisson2d(9, 8);
  const Layout l = Layout::blocked(a.rows(), 6);
  const auto d = DistCsr::distribute(a, l);
  for (rank_t p = 0; p < d.nranks(); ++p) {
    const RankBlock& blk = d.block(p);
    const auto nloc = l.local_size(p);
    std::vector<bool> seen(static_cast<std::size_t>(nloc), false);
    for (index_t i : blk.interior_rows) {
      for (index_t c : blk.matrix.row_cols(i)) {
        EXPECT_LT(c, nloc) << "interior row " << i << " touches a ghost";
      }
      seen[static_cast<std::size_t>(i)] = true;
    }
    for (index_t i : blk.boundary_rows) {
      bool has_ghost = false;
      for (index_t c : blk.matrix.row_cols(i)) has_ghost |= c >= nloc;
      EXPECT_TRUE(has_ghost) << "boundary row " << i << " is interior";
      EXPECT_FALSE(seen[static_cast<std::size_t>(i)]);
      seen[static_cast<std::size_t>(i)] = true;
    }
    for (bool b : seen) EXPECT_TRUE(b);
  }
}

}  // namespace
}  // namespace fsaic

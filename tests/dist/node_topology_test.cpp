#include <gtest/gtest.h>

#include <cstdlib>

#include "dist/comm_scheme.hpp"
#include "dist/comm_stats.hpp"
#include "dist/node_topology.hpp"
#include "matgen/generators.hpp"

namespace fsaic {
namespace {

TEST(NodeTopologyTest, TrivialTopologyIsAllInterNode) {
  const NodeTopology t = NodeTopology::trivial(5);
  EXPECT_EQ(t.nranks(), 5);
  EXPECT_EQ(t.nnodes(), 5);
  EXPECT_EQ(t.ranks_per_node(), 1);
  for (rank_t p = 0; p < 5; ++p) {
    EXPECT_EQ(t.node_of(p), p);
    EXPECT_TRUE(t.is_leader(p));
  }
  EXPECT_EQ(t.level_of(0, 1), CommLevel::Inter);
}

TEST(NodeTopologyTest, GroupedTopologyMath) {
  // 10 ranks in nodes of 4: {0-3}, {4-7}, {8-9}.
  const NodeTopology t = NodeTopology::grouped(10, 4);
  EXPECT_EQ(t.nnodes(), 3);
  EXPECT_EQ(t.node_of(0), 0);
  EXPECT_EQ(t.node_of(3), 0);
  EXPECT_EQ(t.node_of(4), 1);
  EXPECT_EQ(t.node_of(9), 2);
  EXPECT_EQ(t.leader_of(1), 4);
  EXPECT_TRUE(t.is_leader(8));
  EXPECT_FALSE(t.is_leader(9));
  EXPECT_TRUE(t.same_node(4, 7));
  EXPECT_FALSE(t.same_node(3, 4));
  EXPECT_EQ(t.level_of(0, 3), CommLevel::Intra);
  EXPECT_EQ(t.level_of(3, 4), CommLevel::Inter);
  EXPECT_EQ(t.node_begin(2), 8);
  EXPECT_EQ(t.node_end(2), 10);  // clamped: last node holds only 2 ranks
  EXPECT_EQ(t.node_size(2), 2);
  EXPECT_EQ(t.node_size(0), 4);
}

TEST(NodeTopologyTest, GroupedRejectsBadArguments) {
  EXPECT_THROW((void)NodeTopology::grouped(4, 0), Error);
  EXPECT_THROW((void)NodeTopology::grouped(-1, 2), Error);
}

TEST(CommConfigTest, ModeNamesRoundTrip) {
  EXPECT_EQ(to_string(CommMode::Flat), "flat");
  EXPECT_EQ(to_string(CommMode::NodeAware), "node-aware");
  EXPECT_EQ(comm_mode_from_string("flat"), CommMode::Flat);
  EXPECT_EQ(comm_mode_from_string("node-aware"), CommMode::NodeAware);
  EXPECT_THROW((void)comm_mode_from_string("smoke-signals"), Error);
}

TEST(CommStatsLevelTest, RecordsAndMergesPerLevel) {
  CommStats a;
  a.record_halo_message(0, 1, 64, CommLevel::Intra);
  a.record_halo_message(2, 0, 32, CommLevel::Inter);
  // Payload and wire message recorded separately (the aggregated path).
  a.record_halo_payload(3, 0, 16, CommLevel::Inter);
  a.record_halo_wire(CommLevel::Inter);
  EXPECT_EQ(a.halo_messages, 3);
  EXPECT_EQ(a.halo_bytes, 112);
  EXPECT_EQ(a.halo_intra_messages, 1);
  EXPECT_EQ(a.halo_intra_bytes, 64);
  EXPECT_EQ(a.halo_inter_messages, 2);
  EXPECT_EQ(a.halo_inter_bytes, 48);
  EXPECT_EQ(a.halo_intra_bytes + a.halo_inter_bytes, a.halo_bytes);

  CommStats b;
  b.record_halo_message(1, 0, 8, CommLevel::Intra);
  b.record_async_allreduce(24);
  a.merge(b);
  EXPECT_EQ(a.halo_intra_messages, 2);
  EXPECT_EQ(a.halo_intra_bytes, 72);
  EXPECT_EQ(a.halo_inter_messages, 2);
  EXPECT_EQ(a.halo_bytes, 120);
  EXPECT_EQ(a.async_allreduce_count, 1);
  EXPECT_EQ(a.async_allreduce_bytes, 24);

  a.reset();
  EXPECT_EQ(a.halo_intra_messages, 0);
  EXPECT_EQ(a.halo_inter_bytes, 0);
  EXPECT_EQ(a.async_allreduce_count, 0);
}

TEST(CommStatsLevelTest, DefaultLevelIsInterForHistoricCallers) {
  CommStats s;
  s.record_halo_message(0, 1, 64);
  EXPECT_EQ(s.halo_inter_messages, 1);
  EXPECT_EQ(s.halo_inter_bytes, 64);
  EXPECT_EQ(s.halo_intra_messages, 0);
}

TEST(CommSchemeTopologyTest, NodePairsCoalesceCrossNodeMessages) {
  // Tridiagonal chain over 4 ranks: directed rank pairs (0,1),(1,0),(1,2),
  // (2,1),(2,3),(3,2) — 6 flat messages.
  const auto a = poisson2d(8, 1);
  const Layout l = Layout::blocked(8, 4);
  const auto scheme = CommScheme::from_pattern(a.pattern(), l);
  EXPECT_EQ(scheme.message_count(), 6u);
  // Trivial topology must reproduce the flat count.
  EXPECT_EQ(scheme.message_count(NodeTopology::trivial(4)), 6u);
  // Nodes {0,1} and {2,3}: pairs (0,1),(1,0),(2,3),(3,2) stay intra; the
  // cross-node pairs (1,2),(2,1) become one channel each.
  EXPECT_EQ(scheme.message_count(NodeTopology::grouped(4, 2)), 6u);
  // One node: everything intra, still point-to-point.
  EXPECT_EQ(scheme.message_count(NodeTopology::grouped(4, 4)), 6u);
}

TEST(CommSchemeTopologyTest, DenserSchemeAggregatesStrictly) {
  // A 2-D Poisson operator over 8 ranks has multi-edge node pairs under
  // nodes of 4, so aggregation must strictly reduce the message count.
  const auto a = poisson2d(12, 12);
  const Layout l = Layout::blocked(a.rows(), 8);
  const auto scheme = CommScheme::from_pattern(a.pattern().symbolic_power(2), l);
  const std::size_t flat = scheme.message_count();
  EXPECT_EQ(scheme.message_count(NodeTopology::trivial(8)), flat);
  EXPECT_LT(scheme.message_count(NodeTopology::grouped(8, 4)), flat);
}

}  // namespace
}  // namespace fsaic

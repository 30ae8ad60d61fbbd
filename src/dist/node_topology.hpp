// Two-level topology of the simulated machine: ranks grouped into "nodes".
//
// The flat runtime treats every rank pair alike; real clusters do not. A
// node groups `ranks_per_node` consecutive ranks that share an intra-node
// fabric (shared memory in this simulation), while traffic between nodes
// crosses the slower inter-node network. Following the node-aware SpMV of
// Bienz/Gropp/Olson, the node-aware halo exchanger aggregates all inter-node
// payloads of one (source node, destination node) pair into a single wire
// message funneled through the source node's leader rank.
//
// Grouping is contiguous — node(p) = p / ranks_per_node — matching how MPI
// ranks are laid out under a block distribution, so on-node neighbors are
// exactly the near-diagonal couplings a banded operator produces.
#pragma once

#include <string>

#include "common/types.hpp"

namespace fsaic {

/// Which level of the two-level fabric a message crosses.
enum class CommLevel { Intra, Inter };

class NodeTopology {
 public:
  NodeTopology() = default;

  /// Every rank its own node (the flat baseline: all traffic is inter-node).
  static NodeTopology trivial(rank_t nranks);

  /// Consecutive groups of `ranks_per_node` ranks; the last node may be
  /// smaller when nranks is not a multiple.
  static NodeTopology grouped(rank_t nranks, int ranks_per_node);

  [[nodiscard]] rank_t nranks() const { return nranks_; }
  [[nodiscard]] int ranks_per_node() const { return ranks_per_node_; }
  [[nodiscard]] rank_t nnodes() const;

  [[nodiscard]] rank_t node_of(rank_t p) const {
    return p / static_cast<rank_t>(ranks_per_node_);
  }
  /// First rank of a node — the designated aggregation leader.
  [[nodiscard]] rank_t leader_of(rank_t node) const {
    return node * static_cast<rank_t>(ranks_per_node_);
  }
  [[nodiscard]] bool is_leader(rank_t p) const {
    return leader_of(node_of(p)) == p;
  }
  [[nodiscard]] bool same_node(rank_t a, rank_t b) const {
    return node_of(a) == node_of(b);
  }
  [[nodiscard]] CommLevel level_of(rank_t a, rank_t b) const {
    return same_node(a, b) ? CommLevel::Intra : CommLevel::Inter;
  }
  [[nodiscard]] rank_t node_begin(rank_t node) const { return leader_of(node); }
  [[nodiscard]] rank_t node_end(rank_t node) const;
  [[nodiscard]] rank_t node_size(rank_t node) const {
    return node_end(node) - node_begin(node);
  }

  bool operator==(const NodeTopology& other) const = default;

 private:
  rank_t nranks_ = 0;
  int ranks_per_node_ = 1;
};

/// How distributed operators realize their communication scheme.
enum class CommMode {
  Flat,       ///< one mailbox message per rank pair (the original exchanger)
  NodeAware,  ///< inter-node messages coalesced per node pair via the leader
};

/// Selected communication scheme of a run: the mode plus the simulated node
/// width. A flat config with ranks_per_node > 1 still exchanges per rank
/// pair but classifies CommStats per level, which is what lets CI compare
/// the two schedules cell by cell.
struct CommConfig {
  CommMode mode = CommMode::Flat;
  int ranks_per_node = 1;

  /// Topology this config induces over `nranks` ranks.
  [[nodiscard]] NodeTopology topology(rank_t nranks) const;

  bool operator==(const CommConfig& other) const = default;
};

[[nodiscard]] std::string to_string(CommMode mode);

/// "flat" or "node-aware"; anything else throws.
[[nodiscard]] CommMode comm_mode_from_string(const std::string& name);

}  // namespace fsaic

#include "dist/node_topology.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace fsaic {

NodeTopology NodeTopology::trivial(rank_t nranks) {
  return grouped(nranks, 1);
}

NodeTopology NodeTopology::grouped(rank_t nranks, int ranks_per_node) {
  FSAIC_REQUIRE(nranks >= 0, "rank count must be non-negative");
  FSAIC_REQUIRE(ranks_per_node >= 1, "ranks_per_node must be positive");
  NodeTopology t;
  t.nranks_ = nranks;
  t.ranks_per_node_ = ranks_per_node;
  return t;
}

rank_t NodeTopology::nnodes() const {
  if (nranks_ == 0) return 0;
  return (nranks_ + static_cast<rank_t>(ranks_per_node_) - 1) /
         static_cast<rank_t>(ranks_per_node_);
}

rank_t NodeTopology::node_end(rank_t node) const {
  return std::min(nranks_,
                  (node + 1) * static_cast<rank_t>(ranks_per_node_));
}

NodeTopology CommConfig::topology(rank_t nranks) const {
  return NodeTopology::grouped(nranks, ranks_per_node);
}

std::string to_string(CommMode mode) {
  return mode == CommMode::NodeAware ? "node-aware" : "flat";
}

CommMode comm_mode_from_string(const std::string& name) {
  if (name == "flat") return CommMode::Flat;
  if (name == "node-aware") return CommMode::NodeAware;
  FSAIC_REQUIRE(false, "unknown comm mode: " + name + " (flat | node-aware)");
  return CommMode::Flat;
}

}  // namespace fsaic

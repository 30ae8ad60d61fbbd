#include "pipeline/solve_pipeline.hpp"

#include <numeric>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sparse/mm_io.hpp"
#include "sparse/ops.hpp"

namespace fsaic {

SolveSystem::SolveSystem(DistCsr a_dist, std::vector<index_t> perm,
                         offset_t edge_cut, CsrMatrix assembled)
    : a_dist(std::move(a_dist)),
      perm(std::move(perm)),
      edge_cut(edge_cut),
      assembled_(std::move(assembled)) {}

DistVector SolveSystem::to_layout(std::span<const value_t> input) const {
  FSAIC_REQUIRE(input.size() == perm.size(),
                "vector length does not match the system");
  std::vector<value_t> placed(input.size());
  for (std::size_t i = 0; i < input.size(); ++i) {
    placed[static_cast<std::size_t>(perm[i])] = input[i];
  }
  return DistVector(layout(), placed);
}

std::vector<value_t> SolveSystem::from_layout(const DistVector& x) const {
  const std::vector<value_t> placed = x.to_global();
  std::vector<value_t> out(perm.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = placed[static_cast<std::size_t>(perm[i])];
  }
  return out;
}

void SolveSystem::renumber_input(std::span<const index_t> order) {
  FSAIC_REQUIRE(order.size() == perm.size(),
                "renumbering length does not match the system");
  std::vector<index_t> composed(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    composed[i] = perm[static_cast<std::size_t>(order[i])];
  }
  perm = std::move(composed);
}

MatrixFingerprint SolveSystem::fingerprint() const {
  return assembled_.rows() > 0 ? fingerprint_of(assembled_)
                               : fingerprint_rank_local(a_dist);
}

const CsrMatrix& SolveSystem::assembled() const {
  if (assembled_.rows() == 0) assembled_ = a_dist.to_global();
  return assembled_;
}

SolveSystem distribute_system(const CsrMatrix& matrix, rank_t ranks,
                              const CommConfig& comm, std::uint64_t seed) {
  FSAIC_REQUIRE(matrix.rows() == matrix.cols(), "matrix must be square");
  FSAIC_REQUIRE(matrix.is_symmetric(1e-10 * matrix.max_abs()),
                "matrix must be symmetric (CG requires SPD)");
  PartitionedSystem part = partition_system(matrix, ranks, seed);
  DistCsr a_dist = DistCsr::distribute(part.matrix, part.layout, comm);
  return {std::move(a_dist), std::move(part.perm), part.edge_cut,
          std::move(part.matrix)};
}

SolveSystem generate_system(const std::string& spec, rank_t ranks,
                            const CommConfig& comm, Executor* exec,
                            wgen::WgenStats* stats) {
  const wgen::ResolvedWorkload w =
      wgen::resolve_workload(wgen::parse_workload_spec(spec), ranks);
  std::vector<index_t> identity(static_cast<std::size_t>(w.rows));
  std::iota(identity.begin(), identity.end(), index_t{0});
  return {wgen::generate_dist(w, ranks, comm, stats, exec),
          std::move(identity), 0};
}

FsaiOptions fsai_method_options(const std::string& method, value_t filter,
                                FilterStrategy strategy) {
  static constexpr std::pair<const char*, ExtensionMode> kMethods[] = {
      {"fsai", ExtensionMode::None},
      {"fsaie", ExtensionMode::LocalOnly},
      {"fsaie-comm", ExtensionMode::CommAware},
      {"fsaie-full", ExtensionMode::FullHalo},
  };
  for (const auto& [name, extension] : kMethods) {
    if (method != name) continue;
    FsaiOptions opts;
    opts.extension = extension;
    // Plain FSAI adds no entries, so there is nothing to filter.
    opts.filter = extension == ExtensionMode::None ? value_t{0} : filter;
    opts.filter_strategy = strategy;
    return opts;
  }
  throw Error("unsupported method \"" + method +
              "\" (FSAI methods: fsai|fsaie|fsaie-comm|fsaie-full)");
}

std::vector<value_t> synthesize_rhs(std::uint64_t seed, index_t n) {
  Rng rng(seed);
  std::vector<value_t> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.next_uniform(-1.0, 1.0);
  return b;
}

std::vector<value_t> read_rhs(const std::string& path, index_t n) {
  std::vector<value_t> b = read_matrix_market_vector_file(path);
  FSAIC_REQUIRE(b.size() == static_cast<std::size_t>(n),
                "right-hand side length " + std::to_string(b.size()) +
                    " does not match matrix rows " + std::to_string(n));
  return b;
}

std::unique_ptr<FactorizedPreconditioner> stored_factor_preconditioner(
    const CsrMatrix& g, const Layout& layout, const CommConfig& comm,
    std::string label) {
  return std::make_unique<FactorizedPreconditioner>(
      DistCsr::distribute(g, layout, comm),
      DistCsr::distribute(transpose(g), layout, comm), std::move(label));
}

}  // namespace fsaic

#include "core/fsai_driver.hpp"

#include "exec/executor.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "sparse/ops.hpp"

namespace fsaic {

const char* to_string(FilterStrategy strategy) {
  return strategy == FilterStrategy::Static ? "static" : "dynamic";
}

FsaiBuildResult build_fsai_preconditioner(const CsrMatrix& a, const Layout& layout,
                                          const FsaiOptions& options) {
  FSAIC_REQUIRE(a.rows() == layout.global_size(),
                "layout must cover the matrix rows");
  FsaiBuildResult result;
  TraceRecorder* const trace = options.trace;
  Executor& exec = resolve_executor(options.exec);

  // Steps 1-2: a-priori pattern.
  {
    ScopedPhase phase(trace, "pattern_build", "setup");
    result.base_pattern = fsai_base_pattern(a, options.sparsity_level,
                                            options.prefilter_threshold, &exec);
  }

  // Step 3: cache-line extension.
  {
    ScopedPhase phase(trace, "pattern_extension", "setup");
    ExtensionResult ext =
        extend_pattern(result.base_pattern, layout, options.cache_line_bytes,
                       options.extension, &exec);
    result.extended_pattern = std::move(ext.extended);
  }

  // Step 4: provisional values + filtering of added entries.
  const FsaiComputeOptions copts{&exec};
  const bool filtering_active =
      options.filter > 0.0 && result.extended_pattern.nnz() > result.base_pattern.nnz();
  CsrMatrix g_pre;
  if (filtering_active) {
    {
      ScopedPhase phase(trace, "provisional_factor", "setup");
      g_pre = compute_fsai_factor(a, result.extended_pattern,
                                  &result.provisional_factor_stats, copts);
    }
    ScopedPhase phase(trace, "filtering", "setup");
    FilterOptions fopts;
    fopts.filter = options.filter;
    fopts.only_added_entries = options.filter_only_added;
    FilterOutcome outcome =
        options.filter_strategy == FilterStrategy::Static
            ? static_filter(g_pre, result.base_pattern, layout, fopts, &exec)
            : dynamic_filter(g_pre, result.base_pattern, layout, fopts,
                             &result.setup_comm, &exec);
    result.final_pattern = std::move(outcome.pattern);
    result.rank_filter = std::move(outcome.rank_filter);
    result.dynamic_bisection_iterations = outcome.bisection_iterations;
  } else {
    ScopedPhase phase(trace, "filtering", "setup");
    result.final_pattern = result.extended_pattern;
    result.rank_filter.assign(static_cast<std::size_t>(layout.nranks()),
                              options.filter);
  }

  // Step 5: recompute values on the surviving pattern. When a provisional
  // factor exists, rows whose pattern filtering left untouched are copied
  // from it verbatim (each row solve depends only on that row's pattern, so
  // the result is bit-identical to a full recompute).
  {
    ScopedPhase phase(trace, "factorization", "setup");
    result.g = filtering_active
                   ? refine_fsai_factor(a, g_pre, result.final_pattern,
                                        &result.factor_stats, copts)
                   : compute_fsai_factor(a, result.final_pattern,
                                         &result.factor_stats, copts);
  }
  g_pre = CsrMatrix{};  // release the provisional factor before distributing

  result.nnz_increase_pct =
      100.0 *
      static_cast<double>(result.final_pattern.nnz() - result.base_pattern.nnz()) /
      static_cast<double>(result.base_pattern.nnz());

  // Distribute G, and build G^T's rank blocks from G's; measure the load
  // balance of both. Both keep every entry, so each rank's block holds
  // exactly its rows' entries of G and of G^T.
  {
    ScopedPhase phase(trace, "distribute_factors", "setup");
    result.g_dist = DistCsr::distribute(result.g, layout, {}, &exec);
    result.gt_dist = result.g_dist.transposed(&exec);
  }
  std::vector<offset_t> g_counts(static_cast<std::size_t>(layout.nranks()));
  std::vector<offset_t> gt_counts(g_counts.size());
  for (rank_t p = 0; p < layout.nranks(); ++p) {
    g_counts[static_cast<std::size_t>(p)] = result.g_dist.block(p).matrix.nnz();
    gt_counts[static_cast<std::size_t>(p)] = result.gt_dist.block(p).matrix.nnz();
  }
  result.imbalance_g = imbalance_index(g_counts);
  result.imbalance_gt = imbalance_index(gt_counts);
  return result;
}

std::unique_ptr<FactorizedPreconditioner> make_factorized_preconditioner(
    const FsaiBuildResult& build, const std::string& label) {
  return std::make_unique<FactorizedPreconditioner>(build.g_dist, build.gt_dist,
                                                    label);
}

PartitionedSystem partition_system(const CsrMatrix& a, rank_t nranks,
                                   std::uint64_t seed) {
  FSAIC_REQUIRE(a.rows() == a.cols(), "system matrix must be square");
  FSAIC_REQUIRE(nranks >= 1, "need at least one rank");
  PartitionedSystem sys;
  const Graph graph = Graph::from_pattern(a.pattern());
  PartitionOptions popts;
  popts.seed = seed;
  const auto part = partition_graph(graph, nranks, popts);
  const auto metrics = evaluate_partition(graph, part, nranks);
  sys.partition_imbalance = metrics.imbalance;
  sys.edge_cut = metrics.edge_cut;
  sys.perm = partition_permutation(part, nranks);
  sys.matrix = permute_symmetric(a, sys.perm);
  sys.layout = Layout::from_part_sizes(partition_sizes(part, nranks));
  return sys;
}

}  // namespace fsaic

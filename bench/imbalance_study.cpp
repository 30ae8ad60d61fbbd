// Section 5.3.3 reproduction: the dynamic filtering-out case study. The
// paper reports (matrix 17, consph) a partition whose G/G^T imbalance index
// of 0.88 drops to 0.75 under an unfiltered extension and recovers to 0.82
// with the dynamic filter, converting the iteration gain into a real time
// gain.
//
// The synthetic recreation: a heterogeneous system whose first region is a
// sparse 5-point 2D grid and whose second region is a denser 7-point 3D
// grid, partitioned so the nonzeros of A are balanced. The sparse rows gain
// relatively more entries under a 256 B cache-line extension than the dense
// rows, so the extension unbalances the factor exactly as in the paper's
// case — and Algorithm 4 trims the overloaded rank back.
#include "bench_common.hpp"

#include "matgen/generators.hpp"
#include "pipeline/solve_pipeline.hpp"
#include "solver/pcg.hpp"
#include "sparse/coo.hpp"

namespace {

using namespace fsaic;

/// Sparse 5-point region (rows [0, n5)) weakly coupled to a denser 7-point
/// region (rows [n5, n5+n7^3)).
CsrMatrix heterogeneous_system(index_t nx5, index_t ny5, index_t n7) {
  const CsrMatrix sparse_region = poisson2d(nx5, ny5);
  const CsrMatrix dense_region = poisson3d(n7, n7, n7);
  const index_t n5 = sparse_region.rows();
  const index_t n = n5 + dense_region.rows();
  CooBuilder c(n, n);
  for (index_t i = 0; i < n5; ++i) {
    const auto cols = sparse_region.row_cols(i);
    const auto vals = sparse_region.row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      c.add(i, cols[k], vals[k]);
    }
  }
  for (index_t i = 0; i < dense_region.rows(); ++i) {
    const auto cols = dense_region.row_cols(i);
    const auto vals = dense_region.row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      c.add(n5 + i, n5 + cols[k], vals[k]);
    }
  }
  // Weak bridge keeps the operator connected (and SPD: diagonal compensated).
  c.add_symmetric(n5 - 1, n5, -0.01);
  c.add(n5 - 1, n5 - 1, 0.01);
  c.add(n5, n5, 0.01);
  return c.to_csr();
}

}  // namespace

int main() {
  using namespace fsaic::bench;
  print_header("Imbalance case study — dynamic vs static filtering",
               "HPDC'22 Section 5.3.3 (imbalance 0.88 → 0.75 → 0.82)");

  // Rank 0 owns the sparse 2D region; ranks 1-3 split the 3D region. The
  // 5-point rows triple under a 256 B extension while the 7-point rows grow
  // less, so the extension unbalances a decomposition that was acceptable
  // for A.
  const CsrMatrix a = heterogeneous_system(54, 40, 14);
  const index_t n5 = 54 * 40;
  const index_t n = a.rows();
  std::vector<index_t> begin{0, n5};
  for (rank_t p = 1; p <= 3; ++p) {
    begin.push_back(n5 + (n - n5) * p / 3);
  }
  const Layout layout(std::move(begin));
  const DistCsr a_dist = DistCsr::distribute(a, layout);

  const DistVector b(layout, synthesize_rhs(5333, n));
  const CostModel cost(machine_a64fx(), {.threads_per_rank = 8});

  TextTable table({"method", "imb.G(avg/max)", "iters", "iter.dec%",
                   "modeled.time", "time.dec%"});
  double base_time = 0.0;
  int base_iters = 0;
  const auto run_case = [&](const std::string& label, const FsaiOptions& opts) {
    const auto build = build_fsai_preconditioner(a, layout, opts);
    const auto precond = make_factorized_preconditioner(build, label);
    DistVector x(layout);
    const auto r = pcg_solve(a_dist, b, x, *precond,
                             {.rel_tol = 1e-8, .max_iterations = 10000});
    const double t =
        r.iterations *
        cost.pcg_iteration_cost(a_dist, build.g_dist, build.gt_dist).total();
    if (label == "fsai") {
      base_time = t;
      base_iters = r.iterations;
    }
    table.add_row(
        {label, strformat("%.3f", build.imbalance_avg()),
         std::to_string(r.iterations),
         pct2(100.0 * (base_iters - r.iterations) / base_iters),
         sci2(t), pct2(100.0 * (base_time - t) / base_time)});
  };

  FsaiOptions opts;
  opts.cache_line_bytes = 256;
  opts.extension = ExtensionMode::None;
  run_case("fsai", opts);

  opts.extension = ExtensionMode::CommAware;
  opts.filter = 0.0;
  run_case("fsaie-comm unfiltered", opts);

  opts.filter = 0.01;
  opts.filter_strategy = FilterStrategy::Static;
  run_case("fsaie-comm static 0.01", opts);

  opts.filter_strategy = FilterStrategy::Dynamic;
  run_case("fsaie-comm dynamic 0.01", opts);

  table.print(std::cout);
  std::cout << "\nExpected shape (paper Section 5.3.3): the unfiltered "
               "extension worsens the imbalance index, static filtering only "
               "partially recovers it, and the dynamic filter restores "
               "balance and delivers the best modeled time decrease.\n";
  return 0;
}

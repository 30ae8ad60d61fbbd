// The solve pipeline: the stages every solve path of the library repeats.
//
// The paper measures FSAIE-Comm inside one fixed protocol (Section 5.1):
// partition the graph, build the pattern, extend and filter it, distribute
// G and G^T, then run PCG from x0 = 0 on a random right-hand side. The
// stages below are that protocol's shared plumbing, called by `fsaic
// solve`, the solve service, the experiment harness, the weak-scaling bench
// and the examples:
//
//   system          distribute_system() / generate_system() -> SolveSystem
//   method          fsai_method_options(): FSAI variant name -> FsaiOptions
//   right-hand side synthesize_rhs() / read_rhs(), then
//                   SolveSystem::to_layout() into the distributed numbering
//   stored factor   stored_factor_preconditioner(): a saved or cached G back
//                   into the G^T G preconditioner
//
// Callers keep their own config sources, timers and solver dispatch.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/fsai_driver.hpp"
#include "dist/dist_csr.hpp"
#include "dist/dist_vector.hpp"
#include "sparse/fingerprint.hpp"
#include "wgen/wgen.hpp"

namespace fsaic {

/// A linear system distributed over simulated ranks, with the map between
/// the caller's row numbering (the "input" numbering of the matrix file,
/// suite generator or workload spec) and the distributed one.
struct SolveSystem {
  SolveSystem() = default;
  SolveSystem(DistCsr a_dist, std::vector<index_t> perm, offset_t edge_cut,
              CsrMatrix assembled = {});

  /// The operator, one contiguous row block per rank.
  DistCsr a_dist;
  /// Input row i is distributed row perm[i].
  std::vector<index_t> perm;
  /// Edge cut of the graph partition (0 for generated operators, which are
  /// born in blocked order and never partitioned).
  offset_t edge_cut = 0;

  [[nodiscard]] const Layout& layout() const { return a_dist.row_layout(); }

  /// A vector in input numbering, placed into the distributed numbering.
  [[nodiscard]] DistVector to_layout(std::span<const value_t> input) const;
  /// The inverse of to_layout().
  [[nodiscard]] std::vector<value_t> from_layout(const DistVector& x) const;

  /// Record a renumbering applied to the input before distribution: input
  /// row i is row order[i] of the matrix that was distributed.
  void renumber_input(std::span<const index_t> order);

  /// Content identity of the operator in distributed numbering. Equal to
  /// fingerprint_of(assembled()) however the system was built, so factor
  /// caches and factor files written by earlier builds keep their keys.
  [[nodiscard]] MatrixFingerprint fingerprint() const;

  /// The operator as one global matrix in distributed numbering, which the
  /// FSAI and Schwarz setups build from. Systems from distribute_system()
  /// hold it from the start; generated systems assemble it on first call
  /// (the solve path's only DistCsr::to_global()), so that first call must
  /// not race another call on the same system.
  [[nodiscard]] const CsrMatrix& assembled() const;

 private:
  mutable CsrMatrix assembled_;
};

/// Check that `matrix` is square and symmetric (CG needs SPD), partition
/// its graph into `ranks` parts (the METIS step) and distribute the
/// permuted system under `comm`.
[[nodiscard]] SolveSystem distribute_system(const CsrMatrix& matrix, rank_t ranks,
                                            const CommConfig& comm,
                                            std::uint64_t seed = 12345);

/// Generate a workload spec ("stencil3d:nx=64,...", docs/workload-
/// generation.md) rank-locally over `ranks`: no global matrix exists until
/// assembled() is called, and input and distributed numbering coincide.
/// `exec` runs the rank blocks (nullptr -> the process-wide default);
/// `stats`, when non-null, receives the generator's footprint accounting.
[[nodiscard]] SolveSystem generate_system(const std::string& spec, rank_t ranks,
                                          const CommConfig& comm,
                                          Executor* exec = nullptr,
                                          wgen::WgenStats* stats = nullptr);

/// Build options of an FSAI-family method: fsai (no extension, never
/// filtered), fsaie (local extension), fsaie-comm (the communication-aware
/// extension) or fsaie-full (extension into every halo column). Any other
/// name throws fsaic::Error ("unsupported method ...").
[[nodiscard]] FsaiOptions fsai_method_options(
    const std::string& method, value_t filter = 0.0,
    FilterStrategy strategy = FilterStrategy::Static);

/// The synthesized right-hand side: n draws uniform in [-1, 1) from
/// Rng(seed), in input numbering.
[[nodiscard]] std::vector<value_t> synthesize_rhs(std::uint64_t seed, index_t n);

/// A right-hand side read from a MatrixMarket vector file; throws unless it
/// has exactly n entries.
[[nodiscard]] std::vector<value_t> read_rhs(const std::string& path, index_t n);

/// A saved or cached factor G as the z = G^T (G r) preconditioner, with G
/// and G^T distributed over `layout` under `comm`; G^T is built from G's
/// rank blocks (DistCsr::transposed). Both build their blocks in parallel
/// on `exec` (null -> the process-wide default executor).
[[nodiscard]] std::unique_ptr<FactorizedPreconditioner>
stored_factor_preconditioner(const CsrMatrix& g, const Layout& layout,
                             const CommConfig& comm, std::string label,
                             Executor* exec = nullptr);

}  // namespace fsaic

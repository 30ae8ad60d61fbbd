// Non-factorized Sparse Approximate Inverse (SAI/SPAI, Section 2.2 of the
// paper): M ≈ A^{-1} minimizing ||I - A M||_F column by column over a fixed
// pattern. Provided as the family baseline the factorized methods improve
// on for SPD systems — M is not symmetric in general, so the CG-compatible
// application symmetrizes it as (M + M^T)/2, which loses the SPD guarantee
// FSAI's G^T G form keeps (one of the reasons the paper uses FSAI).
#pragma once

#include "solver/preconditioner.hpp"
#include "sparse/csr.hpp"
#include "sparse/pattern.hpp"

namespace fsaic {

struct SpaiComputeOptions {
  /// Column-loop engine (null -> the process-wide default executor).
  Executor* exec = nullptr;
};

/// Compute M on pattern `s` minimizing ||e_j - A m_j||_2 per column j
/// (dense normal equations on the gathered submatrix; the classical SPAI
/// least-squares step). The Gram/rhs assembly is a scatter-stream gather:
/// one pass over the CSR rows, no per-entry binary searches.
[[nodiscard]] CsrMatrix compute_spai(const CsrMatrix& a, const SparsityPattern& s,
                                     const SpaiComputeOptions& options = {});

/// compute_spai with the historic merge-join + at() assembly. Bit-identical
/// columns; kept for differential testing.
[[nodiscard]] CsrMatrix compute_spai_reference(
    const CsrMatrix& a, const SparsityPattern& s,
    const SpaiComputeOptions& options = {});

/// z = M_sym r with M_sym = (M + M^T)/2 distributed over the layout.
class SpaiPreconditioner final : public Preconditioner {
 public:
  /// Builds M on the pattern of A restricted by `layout`.
  SpaiPreconditioner(const CsrMatrix& a, const Layout& layout);

  void apply(const DistVector& r, DistVector& z, CommStats* stats = nullptr,
             Executor* exec = nullptr) const override;
  [[nodiscard]] std::string name() const override { return "spai"; }

  [[nodiscard]] const DistCsr& m() const { return m_dist_; }

 private:
  DistCsr m_dist_;
};

}  // namespace fsaic

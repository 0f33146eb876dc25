// Compressed-sparse-row complex matrices.
//
// Used for the finite-difference substrate (Section V-C): operator assembly
// and matrix-free verification of the SCB decompositions.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "ops/linear_op.hpp"

namespace gecos {

/// One explicit entry of a sparse matrix in coordinate form.
struct Triplet {
  std::size_t row = 0;  ///< row index
  std::size_t col = 0;  ///< column index
  cplx value;           ///< entry value (duplicates are summed on build)
};

/// Immutable CSR matrix built from triplets (duplicates are summed). Also a
/// LinearOperator: square matrices plug into StateVector/Trotter workloads,
/// with dim() == rows() (rows need not be a power of two for the standalone
/// CSR uses; n_qubits() throws when rows() is not a power of two).
class CsrMatrix : public LinearOperator {
 public:
  /// Empty 0x0 matrix.
  CsrMatrix() = default;
  /// Build from coordinate triplets; duplicates are summed. O(nnz log nnz).
  CsrMatrix(std::size_t rows, std::size_t cols, std::vector<Triplet> entries);

  /// Sparsify a dense matrix, keeping entries with |value| > tol.
  static CsrMatrix from_dense(const Matrix& m, double tol = 0.0);

  /// Shape and stored-entry count.
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return vals_.size(); }

  /// log2(rows()); throws std::invalid_argument when rows() is not a power
  /// of two (non-statevector-shaped matrices are fine as plain CSR but not
  /// as LinearOperators on qubit registers).
  std::size_t n_qubits() const override;
  /// Statevector dimension = rows() (overrides the 2^n default).
  std::size_t dim() const override { return rows_; }

  /// Allocation-returning matrix-vector product A v; O(nnz). The
  /// two-argument span form comes from LinearOperator.
  using LinearOperator::apply;
  /// Matrix-vector product A v; O(nnz).
  std::vector<cplx> apply(std::span<const cplx> v) const;
  /// Two-argument accumulate shorthand from the base class.
  using LinearOperator::apply_add;
  /// y += s * (A x), parallel over row blocks; x and y must be distinct
  /// buffers (asserted).
  void apply_add(std::span<const cplx> x, std::span<cplx> y,
                 cplx s) const override;

  /// Conjugate transpose as a new CSR matrix.
  CsrMatrix dagger() const;
  /// Entrywise ||A - A^dagger||_max <= tol.
  bool is_hermitian(double tol = 1e-12) const;
  /// Max absolute stored entry.
  double norm_max() const;

  /// Stored entries in row-major order.
  std::span<const cplx> values() const { return vals_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> rowptr_;
  std::vector<std::size_t> cols_idx_;
  std::vector<cplx> vals_;
};

}  // namespace gecos

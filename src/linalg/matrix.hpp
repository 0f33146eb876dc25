// Dense complex matrices and vectors.
//
// Small, dependency-free linear algebra used as the *ground truth* layer of
// GECOS: every circuit the library emits is verified against dense matrix
// exponentials and matrix-vector products built here. Matrices are row-major
// with value-semantics (Rule of Zero); sizes stay small (<= 2^12) because the
// verification layer only ever touches few-qubit unitaries.
#pragma once

#include <complex>
#include <cstddef>
#include <initializer_list>
#include <random>
#include <span>
#include <vector>

namespace gecos {

/// The scalar type of the whole library: double-precision complex.
using cplx = std::complex<double>;

/// Dense row-major complex matrix with value semantics.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() = default;
  /// Zero-initialized rows x cols matrix.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols) {}
  /// Construct from a nested initializer list; rows must be equal length.
  Matrix(std::initializer_list<std::initializer_list<cplx>> rows);

  /// n x n identity.
  static Matrix identity(std::size_t n);
  /// Explicit all-zero matrix (same as the sizing constructor).
  static Matrix zero(std::size_t rows, std::size_t cols);
  /// Haar-ish random unitary via Gram-Schmidt on a random Gaussian matrix.
  static Matrix random_unitary(std::size_t n, std::mt19937& rng);
  /// Random Hermitian with entries of magnitude O(1).
  static Matrix random_hermitian(std::size_t n, std::mt19937& rng);

  /// Shape accessors; empty() is true only for the default-constructed 0x0.
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  /// Unchecked element access (row-major).
  cplx& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  const cplx& operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }
  /// Contiguous view of one row.
  std::span<cplx> row(std::size_t r) { return {data_.data() + r * cols_, cols_}; }
  std::span<const cplx> row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }
  /// Row-major view of the whole storage.
  std::span<const cplx> flat() const { return data_; }
  std::span<cplx> flat() { return data_; }

  /// Elementwise sum/difference and matrix/scalar products; shapes must
  /// match (matrix product: inner dimensions). operator* allocates the
  /// result and delegates to mul_into, O(n^3).
  Matrix operator+(const Matrix& o) const;
  Matrix operator-(const Matrix& o) const;
  Matrix operator*(const Matrix& o) const;
  Matrix operator*(cplx s) const;
  Matrix& operator+=(const Matrix& o);
  Matrix& operator-=(const Matrix& o);
  Matrix& operator*=(cplx s);

  /// *this += s * o without a temporary.
  Matrix& add_scaled(const Matrix& o, cplx s);

  /// out = a * b into an existing (or resized) buffer; no allocation when
  /// out already has the right shape. out must not alias a or b. This is the
  /// single product kernel (cache-blocked over k-panels); operator* wraps it.
  static void mul_into(Matrix& out, const Matrix& a, const Matrix& b);

  /// Conjugate transpose.
  Matrix dagger() const;
  Matrix transpose() const;
  Matrix conj() const;

  /// Kronecker product: (*this) (x) o.
  Matrix kron(const Matrix& o) const;

  /// Matrix-vector product (*this) v; v.size() must equal cols(). O(n^2).
  std::vector<cplx> apply(std::span<const cplx> v) const;

  /// Max absolute entry.
  double norm_max() const;
  /// Spectral norm upper bound estimate via a few power iterations on A†A.
  double norm2_est(int iters = 30) const;

  /// Max |a_ij - o_ij| (shapes must match).
  double max_abs_diff(const Matrix& o) const;
  /// Entrywise ||A - A^dagger||_max <= tol.
  bool is_hermitian(double tol = 1e-12) const;
  /// ||A A^dagger - I||_max <= tol (O(n^3)).
  bool is_unitary(double tol = 1e-10) const;
  /// Sum of the diagonal.
  cplx trace() const;

  /// Extracts the top-left block of the given shape.
  Matrix block(std::size_t r0, std::size_t c0, std::size_t nr,
               std::size_t nc) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<cplx> data_;
};

/// Scalar-from-the-left product s * m.
Matrix operator*(cplx s, const Matrix& m);

// The vec_norm/vec_dot/vec_axpy family of statevector kernels lives in
// linalg/blas1.hpp (one shared parallel implementation).

}  // namespace gecos

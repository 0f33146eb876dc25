#include "linalg/matrix.hpp"
#include "linalg/blas1.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "util/parallel.hpp"

namespace gecos {

Matrix::Matrix(std::initializer_list<std::initializer_list<cplx>> rows) {
  rows_ = rows.size();
  cols_ = rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    if (r.size() != cols_) throw std::invalid_argument("ragged matrix literal");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::zero(std::size_t rows, std::size_t cols) {
  return Matrix(rows, cols);
}

Matrix Matrix::random_unitary(std::size_t n, std::mt19937& rng) {
  std::normal_distribution<double> g;
  Matrix a(n, n);
  for (auto& x : a.data_) x = cplx(g(rng), g(rng));
  // Gram-Schmidt on rows.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      cplx proj = 0;
      for (std::size_t k = 0; k < n; ++k) proj += std::conj(a(j, k)) * a(i, k);
      for (std::size_t k = 0; k < n; ++k) a(i, k) -= proj * a(j, k);
    }
    double nr = 0;
    for (std::size_t k = 0; k < n; ++k) nr += std::norm(a(i, k));
    nr = std::sqrt(nr);
    for (std::size_t k = 0; k < n; ++k) a(i, k) /= nr;
  }
  return a;
}

Matrix Matrix::random_hermitian(std::size_t n, std::mt19937& rng) {
  std::normal_distribution<double> g;
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = g(rng);
    for (std::size_t j = i + 1; j < n; ++j) {
      cplx v(g(rng), g(rng));
      a(i, j) = v;
      a(j, i) = std::conj(v);
    }
  }
  return a;
}

Matrix Matrix::operator+(const Matrix& o) const {
  assert(rows_ == o.rows_ && cols_ == o.cols_);
  Matrix r = *this;
  r += o;
  return r;
}

Matrix Matrix::operator-(const Matrix& o) const {
  assert(rows_ == o.rows_ && cols_ == o.cols_);
  Matrix r = *this;
  r -= o;
  return r;
}

Matrix& Matrix::operator+=(const Matrix& o) {
  assert(rows_ == o.rows_ && cols_ == o.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& o) {
  assert(rows_ == o.rows_ && cols_ == o.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(cplx s) {
  for (auto& x : data_) x *= s;
  return *this;
}

Matrix Matrix::operator*(cplx s) const {
  Matrix r = *this;
  r *= s;
  return r;
}

Matrix operator*(cplx s, const Matrix& m) { return m * s; }

Matrix& Matrix::add_scaled(const Matrix& o, cplx s) {
  assert(rows_ == o.rows_ && cols_ == o.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += s * o.data_[i];
  return *this;
}

void Matrix::mul_into(Matrix& out, const Matrix& a, const Matrix& b) {
  assert(a.cols_ == b.rows_);
  assert(&out != &a && &out != &b);
  if (out.rows_ != a.rows_ || out.cols_ != b.cols_) out = Matrix(a.rows_, b.cols_);
  std::fill(out.data_.begin(), out.data_.end(), cplx(0.0));
  // ikj keeps the inner loop contiguous in both out and b; the k-panel keeps
  // the active slice of b resident across all rows of a instead of streaming
  // the whole of b once per row (which thrashes LLC from n ~ 512 on). Within
  // each (i, j) the k contributions still accumulate in ascending order, so
  // results are bitwise identical to the unblocked ikj / naive ijk loops.
  constexpr std::size_t kPanel = 64;
  for (std::size_t kk = 0; kk < a.cols_; kk += kPanel) {
    const std::size_t kend = std::min(kk + kPanel, a.cols_);
    for (std::size_t i = 0; i < a.rows_; ++i) {
      cplx* rrow = out.data_.data() + i * out.cols_;
      for (std::size_t k = kk; k < kend; ++k) {
        const cplx aik = a(i, k);
        if (aik == cplx(0.0)) continue;
        const cplx* brow = b.data_.data() + k * b.cols_;
        for (std::size_t j = 0; j < b.cols_; ++j) rrow[j] += aik * brow[j];
      }
    }
  }
}

Matrix Matrix::operator*(const Matrix& o) const {
  Matrix r;
  mul_into(r, *this, o);
  return r;
}

Matrix Matrix::dagger() const {
  Matrix r(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) r(j, i) = std::conj((*this)(i, j));
  return r;
}

Matrix Matrix::transpose() const {
  Matrix r(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) r(j, i) = (*this)(i, j);
  return r;
}

Matrix Matrix::conj() const {
  Matrix r = *this;
  for (auto& x : r.data_) x = std::conj(x);
  return r;
}

Matrix Matrix::kron(const Matrix& o) const {
  Matrix r(rows_ * o.rows_, cols_ * o.cols_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) {
      const cplx a = (*this)(i, j);
      if (a == cplx(0.0)) continue;
      for (std::size_t k = 0; k < o.rows_; ++k)
        for (std::size_t l = 0; l < o.cols_; ++l)
          r(i * o.rows_ + k, j * o.cols_ + l) = a * o(k, l);
    }
  return r;
}

std::vector<cplx> Matrix::apply(std::span<const cplx> v) const {
  assert(v.size() == cols_);
  std::vector<cplx> r(rows_, cplx(0.0));
  for (std::size_t i = 0; i < rows_; ++i) {
    cplx acc = 0;
    const cplx* row = data_.data() + i * cols_;
    for (std::size_t j = 0; j < cols_; ++j) acc += row[j] * v[j];
    r[i] = acc;
  }
  return r;
}

double Matrix::norm_max() const {
  double s = 0;
  for (const auto& x : data_) s = std::max(s, std::abs(x));
  return s;
}

double Matrix::norm2_est(int iters) const {
  if (empty()) return 0.0;
  std::mt19937 rng(12345);
  std::vector<cplx> v = random_state(cols_, rng);
  double lam = 0.0;
  for (int it = 0; it < iters; ++it) {
    // w = A v ; v = A† w ; lambda ~ ||A v||.
    std::vector<cplx> w = apply(v);
    lam = vec_norm(w);
    if (lam == 0.0) return 0.0;
    std::vector<cplx> u(cols_, cplx(0.0));
    for (std::size_t i = 0; i < rows_; ++i) {
      const cplx* row = data_.data() + i * cols_;
      for (std::size_t j = 0; j < cols_; ++j) u[j] += std::conj(row[j]) * w[i];
    }
    const double nu = vec_norm(u);
    if (nu == 0.0) break;
    for (auto& x : u) x /= nu;
    v = std::move(u);
  }
  return lam;
}

double Matrix::max_abs_diff(const Matrix& o) const {
  assert(rows_ == o.rows_ && cols_ == o.cols_);
  double s = 0;
  for (std::size_t i = 0; i < data_.size(); ++i)
    s = std::max(s, std::abs(data_[i] - o.data_[i]));
  return s;
}

bool Matrix::is_hermitian(double tol) const {
  if (rows_ != cols_) return false;
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = i; j < cols_; ++j)
      if (std::abs((*this)(i, j) - std::conj((*this)(j, i))) > tol) return false;
  return true;
}

bool Matrix::is_unitary(double tol) const {
  if (rows_ != cols_) return false;
  const Matrix p = (*this) * dagger();
  return p.max_abs_diff(Matrix::identity(rows_)) <= tol;
}

cplx Matrix::trace() const {
  cplx t = 0;
  for (std::size_t i = 0; i < std::min(rows_, cols_); ++i) t += (*this)(i, i);
  return t;
}

Matrix Matrix::block(std::size_t r0, std::size_t c0, std::size_t nr,
                     std::size_t nc) const {
  assert(r0 + nr <= rows_ && c0 + nc <= cols_);
  Matrix r(nr, nc);
  for (std::size_t i = 0; i < nr; ++i)
    for (std::size_t j = 0; j < nc; ++j) r(i, j) = (*this)(r0 + i, c0 + j);
  return r;
}

}  // namespace gecos

#include "linalg/sparse.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <map>
#include <stdexcept>

#include "telemetry/telemetry.hpp"
#include "util/parallel.hpp"

namespace gecos {

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols,
                     std::vector<Triplet> entries)
    : rows_(rows), cols_(cols) {
  std::sort(entries.begin(), entries.end(), [](const Triplet& a, const Triplet& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });
  rowptr_.assign(rows_ + 1, 0);
  for (std::size_t i = 0; i < entries.size();) {
    std::size_t j = i;
    cplx sum = 0;
    while (j < entries.size() && entries[j].row == entries[i].row &&
           entries[j].col == entries[i].col) {
      sum += entries[j].value;
      ++j;
    }
    if (sum != cplx(0.0)) {
      assert(entries[i].row < rows_ && entries[i].col < cols_);
      cols_idx_.push_back(entries[i].col);
      vals_.push_back(sum);
      ++rowptr_[entries[i].row + 1];
    }
    i = j;
  }
  for (std::size_t r = 0; r < rows_; ++r) rowptr_[r + 1] += rowptr_[r];
}

CsrMatrix CsrMatrix::from_dense(const Matrix& m, double tol) {
  std::vector<Triplet> t;
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j)
      if (std::abs(m(i, j)) > tol) t.push_back({i, j, m(i, j)});
  return CsrMatrix(m.rows(), m.cols(), std::move(t));
}

std::vector<cplx> CsrMatrix::apply(std::span<const cplx> v) const {
  std::vector<cplx> y(rows_, cplx(0.0));
  apply_add(v, y, 1.0);
  return y;
}

std::size_t CsrMatrix::n_qubits() const {
  if (rows_ == 0 || (rows_ & (rows_ - 1)) != 0)
    throw std::invalid_argument(
        "CsrMatrix::n_qubits: rows is not a power of two");
  return static_cast<std::size_t>(std::countr_zero(rows_));
}

void CsrMatrix::apply_add(std::span<const cplx> x, std::span<cplx> y,
                          cplx s) const {
  assert(x.size() == cols_ && y.size() == rows_);
  assert(x.data() != y.data() && "CsrMatrix::apply_add: x, y must not alias");
  if (telemetry::metrics_enabled()) {
    telemetry::count(telemetry::Counter::kernel_sweeps);
    telemetry::count(telemetry::Counter::amplitudes_touched, rows_);
    // 32 B per output (y rmw) + 32 B per stored entry (value + x gather).
    telemetry::count(telemetry::Counter::bytes_moved,
                     32 * rows_ + 32 * nnz());
  }
  // Rows partition the output, so row blocks are race-free.
  parallel_for(rows_, [&](std::size_t r0, std::size_t r1, int) {
    for (std::size_t r = r0; r < r1; ++r) {
      cplx acc = 0;
      for (std::size_t k = rowptr_[r]; k < rowptr_[r + 1]; ++k)
        acc += vals_[k] * x[cols_idx_[k]];
      y[r] += s * acc;
    }
  });
}

CsrMatrix CsrMatrix::dagger() const {
  std::vector<Triplet> t;
  t.reserve(nnz());
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t k = rowptr_[r]; k < rowptr_[r + 1]; ++k)
      t.push_back({cols_idx_[k], r, std::conj(vals_[k])});
  return CsrMatrix(cols_, rows_, std::move(t));
}

bool CsrMatrix::is_hermitian(double tol) const {
  if (rows_ != cols_) return false;
  // Compare against the adjoint entry-by-entry via a map (nnz is small).
  std::map<std::pair<std::size_t, std::size_t>, cplx> entries;
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t k = rowptr_[r]; k < rowptr_[r + 1]; ++k)
      entries[{r, cols_idx_[k]}] = vals_[k];
  for (const auto& [rc, v] : entries) {
    auto it = entries.find({rc.second, rc.first});
    const cplx other = it == entries.end() ? cplx(0.0) : it->second;
    if (std::abs(v - std::conj(other)) > tol) return false;
  }
  return true;
}

double CsrMatrix::norm_max() const {
  double s = 0;
  for (const auto& v : vals_) s = std::max(s, std::abs(v));
  return s;
}

}  // namespace gecos

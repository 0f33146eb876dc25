#include "linalg/blas1.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>

#include "simd/kernels.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace gecos {

double vec_norm(std::span<const cplx> v) {
  // Parallel reduction: per-chunk stack partials (chunk ids are bounded by
  // kMaxParallelChunks) combined in chunk order, so the result is
  // deterministic for a fixed thread count and the call allocation-free.
  // Each chunk runs the dispatched wide kernel on its contiguous range and
  // collapses the 8 accumulator lanes with the shared combine tree, so the
  // value is also identical across dispatch tiers.
  const simd::Kernels& kn = simd::active();
  std::array<double, kMaxParallelChunks> partial{};
  parallel_for(v.size(), [&](std::size_t b, std::size_t e, int chunk) {
    double lanes[8];
    kn.norm2_lanes(v.data() + b, e - b, lanes);
    partial[static_cast<std::size_t>(chunk)] = simd::combine8(lanes);
  });
  double s = 0;
  for (double p : partial) s += p;
  // Health sweep for free: the reduction already touched every amplitude,
  // and any NaN/Inf among them poisons the sum. parallel_for bodies must
  // not throw, so the check lives on the combined scalar.
  if (!std::isfinite(s))
    throw Error(ErrorKind::numerical_nan,
                "vec_norm: non-finite amplitude in a vector of dim " +
                    std::to_string(v.size()));
  return std::sqrt(s);
}

cplx vec_dot(std::span<const cplx> a, std::span<const cplx> b) {
  assert(a.size() == b.size());
  const simd::Kernels& kn = simd::active();
  std::array<cplx, kMaxParallelChunks> partial{};
  parallel_for(a.size(), [&](std::size_t b0, std::size_t e, int chunk) {
    double lanes[8];
    kn.dot_lanes(a.data() + b0, b.data() + b0, e - b0, lanes);
    partial[static_cast<std::size_t>(chunk)] = simd::combine_dot(lanes);
  });
  cplx s = 0;
  for (const cplx& p : partial) s += p;
  // Same free NaN/Inf sweep as vec_norm (a finite-but-huge dot of finite
  // vectors cannot overflow to Inf without a non-finite input at these
  // normalized magnitudes; cancellation cannot manufacture a NaN).
  if (!std::isfinite(s.real()) || !std::isfinite(s.imag()))
    throw Error(ErrorKind::numerical_nan,
                "vec_dot: non-finite amplitude in a vector of dim " +
                    std::to_string(a.size()));
  return s;
}

double vec_max_abs_diff(std::span<const cplx> a, std::span<const cplx> b) {
  assert(a.size() == b.size());
  double s = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    s = std::max(s, std::abs(a[i] - b[i]));
  return s;
}

void vec_scale(std::span<cplx> v, cplx s) {
  const simd::Kernels& kn = simd::active();
  parallel_for(v.size(), [&](std::size_t b, std::size_t e, int) {
    kn.scale(v.data() + b, e - b, s);
  });
}

void vec_axpy(std::span<cplx> y, cplx s, std::span<const cplx> x) {
  assert(y.size() == x.size());
  const simd::Kernels& kn = simd::active();
  parallel_for(y.size(), [&](std::size_t b, std::size_t e, int) {
    kn.axpy(y.data() + b, x.data() + b, e - b, s);
  });
}

void vec_axpby(std::span<cplx> y, cplx a, std::span<const cplx> x, cplx b) {
  assert(y.size() == x.size());
  const simd::Kernels& kn = simd::active();
  parallel_for(y.size(), [&](std::size_t b0, std::size_t e, int) {
    kn.axpby(y.data() + b0, x.data() + b0, e - b0, a, b);
  });
}

void vec_copy(std::span<cplx> dst, std::span<const cplx> src) {
  assert(dst.size() == src.size());
  parallel_for(dst.size(), [&](std::size_t b, std::size_t e, int) {
    std::copy(src.begin() + static_cast<std::ptrdiff_t>(b),
              src.begin() + static_cast<std::ptrdiff_t>(e),
              dst.begin() + static_cast<std::ptrdiff_t>(b));
  });
}

void vec_fill(std::span<cplx> v, cplx s) {
  parallel_for(v.size(), [&](std::size_t b, std::size_t e, int) {
    std::fill(v.begin() + static_cast<std::ptrdiff_t>(b),
              v.begin() + static_cast<std::ptrdiff_t>(e), s);
  });
}

std::vector<cplx> random_state(std::size_t dim, std::mt19937& rng) {
  std::normal_distribution<double> g;
  std::vector<cplx> v(dim);
  for (auto& x : v) x = cplx(g(rng), g(rng));
  const double n = vec_norm(v);
  for (auto& x : v) x /= n;
  return v;
}

}  // namespace gecos

// BLAS-1 kernel suite: every parallel vector kernel in linalg/blas1.hpp
// against a straightforward serial reference, at sizes below and above the
// parallel_for grain so both the inline and the pooled path are exercised.
#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include "linalg/blas1.hpp"
#include "simd/simd.hpp"
#include "test_util.hpp"
#include "util/error.hpp"

using namespace gecos;

namespace {

std::vector<cplx> random_vec(std::size_t n, std::mt19937& rng) {
  std::normal_distribution<double> g;
  std::vector<cplx> v(n);
  for (auto& x : v) x = cplx(g(rng), g(rng));
  return v;
}

}  // namespace

int main() {
  std::mt19937 rng(20260730);
  // One size well below the parallel grain (serial inline path) and one well
  // above it (pooled path); the results must agree with the serial reference
  // to fp accumulation accuracy either way.
  const std::size_t sizes[] = {257, (std::size_t{1} << 15) + 3};
  for (const std::size_t n : sizes) {
    const std::vector<cplx> a = random_vec(n, rng);
    const std::vector<cplx> b = random_vec(n, rng);
    const cplx s(0.7, -0.4);

    // vec_norm and vec_dot against serial accumulation.
    double nrm2 = 0;
    cplx dot = 0;
    for (std::size_t i = 0; i < n; ++i) {
      nrm2 += std::norm(a[i]);
      dot += std::conj(a[i]) * b[i];
    }
    CHECK_NEAR(vec_norm(a), std::sqrt(nrm2), 1e-11 * std::sqrt(nrm2));
    CHECK_NEAR(std::abs(vec_dot(a, b) - dot), 0.0, 1e-10);
    // <a|a> is real and equals ||a||^2.
    CHECK_NEAR(vec_dot(a, a).imag(), 0.0, 1e-12);
    CHECK_NEAR(vec_dot(a, a).real(), nrm2, 1e-10 * nrm2);

    // vec_axpy and vec_scale.
    std::vector<cplx> y = b;
    vec_axpy(y, s, a);
    double err = 0;
    for (std::size_t i = 0; i < n; ++i)
      err = std::max(err, std::abs(y[i] - (b[i] + s * a[i])));
    CHECK_NEAR(err, 0.0, 1e-14);  // fp-contraction (fma) may differ slightly
    vec_scale(y, s);
    err = 0;
    for (std::size_t i = 0; i < n; ++i)
      err = std::max(err, std::abs(y[i] - (b[i] + s * a[i]) * s));
    CHECK_NEAR(err, 0.0, 1e-13);

    // vec_axpby: the fused y = a x + b y of the Chebyshev recurrence.
    const cplx t(-1.3, 0.2);
    y = b;
    vec_axpby(y, s, a, t);
    err = 0;
    for (std::size_t i = 0; i < n; ++i)
      err = std::max(err, std::abs(y[i] - (s * a[i] + t * b[i])));
    CHECK_NEAR(err, 0.0, 1e-13);

    // vec_copy / vec_fill.
    std::vector<cplx> c(n, cplx(9.0));
    vec_copy(c, a);
    CHECK_NEAR(vec_max_abs_diff(c, a), 0.0, 0.0);
    vec_fill(c, cplx(2.0, 1.0));
    bool all = true;
    for (const cplx& x : c) all &= x == cplx(2.0, 1.0);
    CHECK(all);

    // vec_max_abs_diff: perturb one entry by a known amount.
    c = a;
    c[n / 2] += cplx(0.0, 0.125);
    CHECK_NEAR(vec_max_abs_diff(c, a), 0.125, 1e-15);
  }

  // random_state is normalized and seeded-deterministic.
  {
    std::mt19937 r1(7), r2(7);
    const std::vector<cplx> u = random_state(512, r1);
    const std::vector<cplx> v = random_state(512, r2);
    CHECK_NEAR(vec_norm(u), 1.0, 1e-12);
    CHECK_NEAR(vec_max_abs_diff(u, v), 0.0, 0.0);
  }

  // Determinism across a fixed thread count: the chunk-ordered reductions
  // give bit-identical results call-to-call.
  {
    const std::vector<cplx> a = random_vec(std::size_t{1} << 15, rng);
    const double n1 = vec_norm(a);
    const double n2 = vec_norm(a);
    CHECK(n1 == n2);
  }

  // Forced-tier sweep: the dispatched kernels give BITWISE-identical
  // reductions and updates under every SIMD tier available on this host
  // (same run splits, bitwise-equal kernels — see src/simd/simd.hpp).
  {
    const SimdTier initial = simd_tier();
    const std::size_t n = (std::size_t{1} << 12) + 5;
    const std::vector<cplx> a = random_vec(n, rng);
    const std::vector<cplx> b = random_vec(n, rng);
    const cplx s(0.3, 0.9), t(0.5, -0.25);
    set_simd_tier(SimdTier::scalar);
    const double nrm = vec_norm(a);
    const cplx dot = vec_dot(a, b);
    std::vector<cplx> yref = b;
    vec_axpy(yref, s, a);
    vec_axpby(yref, s, a, t);
    vec_scale(yref, s);
    for (SimdTier tier : {SimdTier::avx2, SimdTier::avx512}) {
      if (!simd_tier_available(tier)) continue;
      set_simd_tier(tier);
      CHECK(vec_norm(a) == nrm);
      CHECK(vec_dot(a, b) == dot);
      std::vector<cplx> y = b;
      vec_axpy(y, s, a);
      vec_axpby(y, s, a, t);
      vec_scale(y, s);
      CHECK_NEAR(vec_max_abs_diff(y, yref), 0.0, 0.0);
    }
    set_simd_tier(initial);
  }

  // Numerical-health guards: a NaN or Inf anywhere in a reduction input
  // surfaces as Error{numerical_nan} instead of poisoning downstream math.
  // Both the serial-inline and the pooled path, and both contaminants.
  {
    const auto throws_nan = [](const auto& fn) {
      try {
        fn();
      } catch (const Error& e) {
        return e.kind() == ErrorKind::numerical_nan;
      }
      return false;
    };
    for (const std::size_t n : sizes) {
      for (const double bad :
           {std::nan(""), std::numeric_limits<double>::infinity()}) {
        std::vector<cplx> a = random_vec(n, rng);
        const std::vector<cplx> b = random_vec(n, rng);
        a[n / 3] = cplx(bad, 0.0);
        CHECK(throws_nan([&] { (void)vec_norm(a); }));
        CHECK(throws_nan([&] { (void)vec_dot(a, b); }));
        CHECK(throws_nan([&] { (void)vec_dot(b, a); }));
      }
      // Clean vectors of the same size keep not throwing.
      const std::vector<cplx> a = random_vec(n, rng);
      (void)vec_norm(a);
    }
  }

  return gecos::test::finish("test_blas1");
}

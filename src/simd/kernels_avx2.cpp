// AVX2 + FMA3 dispatch tier: two complex<double> per 256-bit register.
// Compiled with -mavx2 -mfma (set per-file in CMakeLists.txt); on targets
// or toolchains without those flags the tier degrades to an empty table
// marked not-compiled, and runtime dispatch never selects it.
#include "simd/kernels_generic.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

namespace gecos::simd {

namespace {

// 256-bit pack of two interleaved complex<double>. The arithmetic shuffles
// stay within 128-bit lanes (permute_pd / movedup), so they are cheap on all
// AVX2 parts; only xor_lanes<1> crosses lanes (permute2f128, once per
// register of a block rotation).
struct Avx2Pack {
  using V = __m256d;
  static constexpr std::size_t width = 2;
  static V zero() { return _mm256_setzero_pd(); }
  static V load(const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, V x) { _mm256_storeu_pd(p, x); }
  static V broadcast(double x) { return _mm256_set1_pd(x); }
  static V add(V a, V b) { return _mm256_add_pd(a, b); }
  static V mul(V a, V b) { return _mm256_mul_pd(a, b); }
  static V fmadd(V a, V b, V c) { return _mm256_fmadd_pd(a, b, c); }
  static V fmaddsub(V a, V b, V c) { return _mm256_fmaddsub_pd(a, b, c); }
  static V fmsubadd(V a, V b, V c) { return _mm256_fmsubadd_pd(a, b, c); }
  static V swap_pairs(V x) { return _mm256_permute_pd(x, 0b0101); }
  static V dup_even(V x) { return _mm256_movedup_pd(x); }
  static V dup_odd(V x) { return _mm256_permute_pd(x, 0b1111); }
  template <unsigned M>
  static V xor_lanes(V x) {
    if constexpr (M == 0) {
      return x;
    } else {
      return _mm256_permute2f128_pd(x, x, 0x01);
    }
  }
};

}  // namespace

const TierImpl kAvx2Impl{Impl<Avx2Pack>::table(), true};

}  // namespace gecos::simd

#else  // !(__AVX2__ && __FMA__)

namespace gecos::simd {

const TierImpl kAvx2Impl{Kernels{}, false};

}  // namespace gecos::simd

#endif

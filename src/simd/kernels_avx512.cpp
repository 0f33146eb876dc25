// AVX-512 dispatch tier: four complex<double> per 512-bit register.
// Compiled with -mavx512f -mavx512dq -mavx512vl -mavx512bw -mfma (set
// per-file in CMakeLists.txt); on targets or toolchains without those
// flags the tier degrades to an empty table marked not-compiled, and
// runtime dispatch never selects it.
#include "simd/kernels_generic.hpp"

#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__AVX512VL__) && \
    defined(__AVX512BW__)

#include <immintrin.h>

namespace gecos::simd {

namespace {

// 512-bit pack of four interleaved complex<double>. One 8-double register
// holds the entire reduction lane block, so norm/dot run on a single
// accumulator.
struct Avx512Pack {
  using V = __m512d;
  static constexpr std::size_t width = 4;
  static V zero() { return _mm512_setzero_pd(); }
  static V load(const double* p) { return _mm512_loadu_pd(p); }
  static void store(double* p, V x) { _mm512_storeu_pd(p, x); }
  static V broadcast(double x) { return _mm512_set1_pd(x); }
  static V add(V a, V b) { return _mm512_add_pd(a, b); }
  static V mul(V a, V b) { return _mm512_mul_pd(a, b); }
  static V fmadd(V a, V b, V c) { return _mm512_fmadd_pd(a, b, c); }
  static V fmaddsub(V a, V b, V c) { return _mm512_fmaddsub_pd(a, b, c); }
  static V fmsubadd(V a, V b, V c) { return _mm512_fmsubadd_pd(a, b, c); }
  static V swap_pairs(V x) { return _mm512_permute_pd(x, 0x55); }
  static V dup_even(V x) { return _mm512_movedup_pd(x); }
  static V dup_odd(V x) { return _mm512_permute_pd(x, 0xFF); }
  template <unsigned M>
  static V xor_lanes(V x) {
    if constexpr (M == 0) {
      return x;
    } else {
      constexpr int kImm =
          (0 ^ M) | ((1 ^ M) << 2) | ((2 ^ M) << 4) | ((3 ^ M) << 6);
      return _mm512_shuffle_f64x2(x, x, kImm);
    }
  }
};

}  // namespace

const TierImpl kAvx512Impl{Impl<Avx512Pack>::table(), true};

}  // namespace gecos::simd

#else  // !(full AVX-512 feature set)

namespace gecos::simd {

const TierImpl kAvx512Impl{Kernels{}, false};

}  // namespace gecos::simd

#endif

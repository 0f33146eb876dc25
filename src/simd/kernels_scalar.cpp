// Scalar dispatch tier: one complex per "pack", every fused op spelled with
// std::fma so the arithmetic matches the AVX2/AVX-512 lanes bitwise (the
// contract test_simd pins). Always compiled — this is both the portable
// fallback and the reference the wide tiers are tested against.
#include "simd/kernels_generic.hpp"

namespace gecos::simd {

namespace {

// Width-1 "vector": two doubles, even slot = re, odd slot = im. The fused
// ops mirror the x86 semantics exactly: fmaddsub subtracts c on the even
// slot and adds on the odd, fmsubadd the reverse, each a single rounding.
struct ScalarPack {
  struct V {
    double e0, e1;
  };
  static constexpr std::size_t width = 1;
  static V zero() { return {0.0, 0.0}; }
  static V load(const double* p) { return {p[0], p[1]}; }
  static void store(double* p, V x) {
    p[0] = x.e0;
    p[1] = x.e1;
  }
  static V broadcast(double x) { return {x, x}; }
  static V add(V a, V b) { return {a.e0 + b.e0, a.e1 + b.e1}; }
  static V mul(V a, V b) { return {a.e0 * b.e0, a.e1 * b.e1}; }
  static V fmadd(V a, V b, V c) {
    return {std::fma(a.e0, b.e0, c.e0), std::fma(a.e1, b.e1, c.e1)};
  }
  static V fmaddsub(V a, V b, V c) {
    return {std::fma(a.e0, b.e0, -c.e0), std::fma(a.e1, b.e1, c.e1)};
  }
  static V fmsubadd(V a, V b, V c) {
    return {std::fma(a.e0, b.e0, c.e0), std::fma(a.e1, b.e1, -c.e1)};
  }
  static V swap_pairs(V x) { return {x.e1, x.e0}; }
  static V dup_even(V x) { return {x.e0, x.e0}; }
  static V dup_odd(V x) { return {x.e1, x.e1}; }
  template <unsigned M>
  static V xor_lanes(V x) {
    static_assert(M == 0);
    return x;
  }
};

}  // namespace

const TierImpl kScalarImpl{Impl<ScalarPack>::table(), true};

}  // namespace gecos::simd

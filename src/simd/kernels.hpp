// Dispatch table of the wide range kernels (internal to the library).
//
// One Kernels struct of function pointers per tier, defined in the per-tier
// translation units (kernels_scalar.cpp / kernels_avx2.cpp /
// kernels_avx512.cpp — the latter two compiled with their ISA flags and
// registered as unavailable when the toolchain or target cannot build
// them). Hot-path callers snapshot active() once per operation and invoke
// the pointers on contiguous (pointer, length) ranges from inside their
// parallel_for chunk bodies; the dispatch itself is one relaxed atomic load.
//
// All kernels are tail-safe (any length, any alignment) and produce
// bitwise-identical results across tiers — see src/simd/simd.hpp for the
// lane-accumulator and FMA-formula contract that guarantees it.
#pragma once

#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>

#include "simd/simd.hpp"

namespace gecos::simd {

/// The library-wide scalar type (same alias as linalg/blas1.hpp).
using cplx = std::complex<double>;

/// Scalar complex product s * x with the exact rounding of the vector
/// fmaddsub formula: re = fma(s.re, x.re, -(s.im * x.im)),
/// im = fma(s.re, x.im, s.im * x.re). Used by every tail loop so tails
/// match the wide lanes bitwise, and by the SectorOperator row gather.
inline cplx cmul_fma(cplx s, cplx x) {
  const double te = s.imag() * x.imag();
  const double to = s.imag() * x.real();
  return cplx(std::fma(s.real(), x.real(), -te),
              std::fma(s.real(), x.imag(), to));
}

/// One TermExp pair rotation in 8-amplitude block form (see TermExp::apply).
/// The walk visits first blocks A = scatter_bits(i, outer_mask) | base and
/// their partner blocks B = A ^ partner (partner == 0: one-block form, the
/// pairs lie inside A). Position q of a block is rotated against position
/// q ^ flo of the other block (of A itself in the one-block form):
///   x_A' = alpha_A * x_A + beta_A * P x_B,  x_B' = alpha_B * x_B + beta_B * P x_A
/// with (P y)[q] = y[q ^ flo]. alpha is real (c, or 1 for an untouched
/// amplitude); beta is +-u, +-v or 0. Each table is indexed [parity of
/// popcount(A & sign)][block A, B][slot] and holds every position's value
/// duplicated over its re/im slots (2q and 2q + 1), so every tier loads the
/// coefficients with no shuffle.
struct BlockRot {
  std::uint64_t outer_mask = 0;  // block-index bits (>= 3) of the walk
  std::uint64_t base = 0;        // fixed bits of every first block
  std::uint64_t partner = 0;     // first-to-partner block offset, or 0
  std::uint64_t sign = 0;        // bits (>= 3) of A picking the table set
  unsigned flo = 0;              // in-block partner offset, 0..7
  double alpha[2][2][16];        // real diagonal factor, duplicated
  double beta_re[2][2][16];      // partner factor, real part duplicated
  double beta_im[2][2][16];      // partner factor, imaginary part duplicated
};

/// Function-pointer table of one dispatch tier. All lengths are in complex
/// elements; distinct pointer arguments must not alias.
struct Kernels {
  /// Fills lanes[0..7] with the partial sums of |v_i|^2 doubles, lane j
  /// holding the doubles at flat positions == j mod 8 (see simd.hpp).
  /// Combine with combine8().
  void (*norm2_lanes)(const cplx* v, std::size_t n, double* lanes) = nullptr;
  /// Fills lanes[0..7] with partial sums of conj(a_i) * b_i: lanes 2j /
  /// 2j+1 hold the real / imaginary sums of the complex accumulator lane j
  /// (products at positions == j mod 4). Combine with combine_dot().
  void (*dot_lanes)(const cplx* a, const cplx* b, std::size_t n,
                    double* lanes) = nullptr;
  /// v_i *= s.
  void (*scale)(cplx* v, std::size_t n, cplx s) = nullptr;
  /// y_i += s * x_i.
  void (*axpy)(cplx* y, const cplx* x, std::size_t n, cplx s) = nullptr;
  /// y_i = a * x_i + b * y_i (the fused Chebyshev update).
  void (*axpby)(cplx* y, const cplx* x, std::size_t n, cplx a,
                cplx b) = nullptr;
  /// x_i *= p_i (fused Trotter diagonal: precomputed phase table sweep).
  void (*phase_mul)(cplx* x, const cplx* p, std::size_t n) = nullptr;
  /// Two-stream pair rotation (c real): a_i' = c a_i + v b_i and
  /// b_i' = u a_i + c b_i — the exact TermExp 2x2 exponential block.
  void (*pair_rot)(cplx* a, cplx* b, std::size_t n, double c, cplx u,
                   cplx v) = nullptr;
  /// Walks blocks [i0, i1) of a BlockRot over x (one parallel_for chunk):
  /// per element re = fma(alpha, x.re, fma(br, y.re, -(bi * y.im))) and
  /// im = fma(alpha, x.im, fma(br, y.im, bi * y.re)), y the partner.
  void (*block_rot)(cplx* x, const BlockRot& b, std::size_t i0,
                    std::size_t i1) = nullptr;
};

/// One tier's table plus whether this binary compiled it (a tier can be
/// present-but-unavailable on non-x86 builds or pre-AVX toolchains).
struct TierImpl {
  /// The tier's kernel table (all-null when not compiled).
  Kernels kernels;
  /// True when the translation unit actually built the wide code.
  bool compiled = false;
};

/// Per-tier tables, defined in the tier translation units. Constant-
/// initialized (function addresses only), so reading .compiled never
/// executes tier code on an unsupporting host.
extern const TierImpl kScalarImpl;
/// AVX2 + FMA3 tier table (see kScalarImpl).
extern const TierImpl kAvx2Impl;
/// AVX-512 F/DQ/VL/BW tier table (see kScalarImpl).
extern const TierImpl kAvx512Impl;

/// Table of a specific tier (compiled or not — check .compiled).
const TierImpl& impl_for(SimdTier t);

/// Kernel table of the currently active tier (one atomic load).
const Kernels& active();

/// Combines the 8 reduction lanes of norm2_lanes with the shared fixed
/// tree — every caller must use this (and only this) combine so results
/// stay bitwise-identical across tiers.
inline double combine8(const double* lanes) {
  return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
         ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
}

/// Combines the 4 complex accumulator lanes of dot_lanes (same contract as
/// combine8).
inline cplx combine_dot(const double* lanes) {
  return cplx((lanes[0] + lanes[2]) + (lanes[4] + lanes[6]),
              (lanes[1] + lanes[3]) + (lanes[5] + lanes[7]));
}

}  // namespace gecos::simd

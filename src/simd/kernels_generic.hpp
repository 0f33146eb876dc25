// Tier-generic kernel implementations (included by the per-tier TUs only).
//
// Each tier translation unit defines a Pack type — a fixed-width vector of
// interleaved re/im doubles with load/store, add/mul and the three fused
// ops fmadd / fmaddsub / fmsubadd plus the in-register shuffles swap_pairs
// / dup_even / dup_odd / xor_lanes<M> (complex lane l takes lane l ^ M) —
// and instantiates Impl<Pack> to obtain its Kernels
// table. The bodies below spell every floating-point operation explicitly
// (std::fma in the scalar tails, the fused Pack ops in the main loops) and
// the TUs are compiled with -ffp-contract=off, so each tier performs the
// exact same IEEE operations per element and the results are
// bitwise-identical — the contract test_simd pins.
//
// Reduction lane pattern: the main loops process 4 complex (8 doubles) per
// iteration split across 8/width packs, so accumulator lane j always sums
// the doubles at flat positions == j mod 8 regardless of register width;
// tails accumulate into the same lane slots with std::fma. Elementwise
// main loops advance by the pack width and finish with scalar tails using
// the matching formulas.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "simd/kernels.hpp"
#include "util/bits.hpp"

namespace gecos::simd {

/// Kernel bodies over one Pack type; P::width is the number of complex
/// elements per register (1 / 2 / 4).
template <class P>
struct Impl {
  /// Complex elements per pack.
  static constexpr std::size_t kW = P::width;
  /// Doubles per pack.
  static constexpr std::size_t kD = 2 * kW;
  /// Packs per 8-double lane block.
  static constexpr std::size_t kPacks = 8 / kD;

  /// Broadcast-constant complex product s * x (s given as the two broadcast
  /// packs sr = {s.re...}, si = {s.im...}).
  static typename P::V cmul(typename P::V sr, typename P::V si,
                            typename P::V x) {
    return P::fmaddsub(sr, x, P::mul(si, P::swap_pairs(x)));
  }

  /// Elementwise complex product u_i * x_i (u per-element, not broadcast).
  static typename P::V cmul_elem(typename P::V u, typename P::V x) {
    return P::fmaddsub(P::dup_even(u), x, P::mul(P::dup_odd(u),
                                                 P::swap_pairs(x)));
  }

  /// norm2_lanes kernel (see Kernels::norm2_lanes).
  static void norm2_lanes(const cplx* v, std::size_t n, double* lanes) {
    typename P::V acc[kPacks];
    for (std::size_t k = 0; k < kPacks; ++k) acc[k] = P::zero();
    const double* p = reinterpret_cast<const double*>(v);
    const std::size_t main = n & ~std::size_t{3};
    for (std::size_t i = 0; i < main; i += 4) {
      const double* q = p + 2 * i;
      for (std::size_t k = 0; k < kPacks; ++k) {
        const typename P::V x = P::load(q + k * kD);
        acc[k] = P::fmadd(x, x, acc[k]);
      }
    }
    for (std::size_t k = 0; k < kPacks; ++k) P::store(lanes + k * kD, acc[k]);
    for (std::size_t i = main; i < n; ++i) {
      const std::size_t l = 2 * (i & 3);
      lanes[l] = std::fma(v[i].real(), v[i].real(), lanes[l]);
      lanes[l + 1] = std::fma(v[i].imag(), v[i].imag(), lanes[l + 1]);
    }
  }

  /// dot_lanes kernel (see Kernels::dot_lanes): per element the product
  /// conj(a) * b is formed as fmsubadd(dup_even(a), b, dup_odd(a) *
  /// swap(b)) — re = fma(a.re, b.re, a.im * b.im), im = fma(a.re, b.im,
  /// -(a.im * b.re)) — then added to the lane accumulator.
  static void dot_lanes(const cplx* a, const cplx* b, std::size_t n,
                        double* lanes) {
    typename P::V acc[kPacks];
    for (std::size_t k = 0; k < kPacks; ++k) acc[k] = P::zero();
    const double* pa = reinterpret_cast<const double*>(a);
    const double* pb = reinterpret_cast<const double*>(b);
    const std::size_t main = n & ~std::size_t{3};
    for (std::size_t i = 0; i < main; i += 4) {
      const double* qa = pa + 2 * i;
      const double* qb = pb + 2 * i;
      for (std::size_t k = 0; k < kPacks; ++k) {
        const typename P::V av = P::load(qa + k * kD);
        const typename P::V bv = P::load(qb + k * kD);
        const typename P::V t = P::mul(P::dup_odd(av), P::swap_pairs(bv));
        acc[k] = P::add(acc[k], P::fmsubadd(P::dup_even(av), bv, t));
      }
    }
    for (std::size_t k = 0; k < kPacks; ++k) P::store(lanes + k * kD, acc[k]);
    for (std::size_t i = main; i < n; ++i) {
      const std::size_t l = 2 * (i & 3);
      const double te = a[i].imag() * b[i].imag();
      const double to = a[i].imag() * b[i].real();
      lanes[l] = lanes[l] + std::fma(a[i].real(), b[i].real(), te);
      lanes[l + 1] = lanes[l + 1] + std::fma(a[i].real(), b[i].imag(), -to);
    }
  }

  /// scale kernel (see Kernels::scale).
  static void scale(cplx* v, std::size_t n, cplx s) {
    double* p = reinterpret_cast<double*>(v);
    const typename P::V sr = P::broadcast(s.real());
    const typename P::V si = P::broadcast(s.imag());
    const std::size_t main = n - n % kW;
    for (std::size_t i = 0; i < main; i += kW)
      P::store(p + 2 * i, cmul(sr, si, P::load(p + 2 * i)));
    for (std::size_t i = main; i < n; ++i) v[i] = cmul_fma(s, v[i]);
  }

  /// axpy kernel (see Kernels::axpy).
  static void axpy(cplx* y, const cplx* x, std::size_t n, cplx s) {
    double* py = reinterpret_cast<double*>(y);
    const double* px = reinterpret_cast<const double*>(x);
    const typename P::V sr = P::broadcast(s.real());
    const typename P::V si = P::broadcast(s.imag());
    const std::size_t main = n - n % kW;
    for (std::size_t i = 0; i < main; i += kW) {
      const typename P::V t = cmul(sr, si, P::load(px + 2 * i));
      P::store(py + 2 * i, P::add(P::load(py + 2 * i), t));
    }
    for (std::size_t i = main; i < n; ++i) {
      const cplx t = cmul_fma(s, x[i]);
      y[i] = cplx(y[i].real() + t.real(), y[i].imag() + t.imag());
    }
  }

  /// axpby kernel (see Kernels::axpby).
  static void axpby(cplx* y, const cplx* x, std::size_t n, cplx a, cplx b) {
    double* py = reinterpret_cast<double*>(y);
    const double* px = reinterpret_cast<const double*>(x);
    const typename P::V ar = P::broadcast(a.real());
    const typename P::V ai = P::broadcast(a.imag());
    const typename P::V br = P::broadcast(b.real());
    const typename P::V bi = P::broadcast(b.imag());
    const std::size_t main = n - n % kW;
    for (std::size_t i = 0; i < main; i += kW) {
      const typename P::V t = cmul(ar, ai, P::load(px + 2 * i));
      const typename P::V u = cmul(br, bi, P::load(py + 2 * i));
      P::store(py + 2 * i, P::add(t, u));
    }
    for (std::size_t i = main; i < n; ++i) {
      const cplx t = cmul_fma(a, x[i]);
      const cplx u = cmul_fma(b, y[i]);
      y[i] = cplx(t.real() + u.real(), t.imag() + u.imag());
    }
  }

  /// phase_mul kernel (see Kernels::phase_mul).
  static void phase_mul(cplx* x, const cplx* p, std::size_t n) {
    double* px = reinterpret_cast<double*>(x);
    const double* pp = reinterpret_cast<const double*>(p);
    const std::size_t main = n - n % kW;
    for (std::size_t i = 0; i < main; i += kW)
      P::store(px + 2 * i,
               cmul_elem(P::load(pp + 2 * i), P::load(px + 2 * i)));
    for (std::size_t i = main; i < n; ++i) x[i] = cmul_fma(p[i], x[i]);
  }

  /// pair_rot kernel (see Kernels::pair_rot).
  static void pair_rot(cplx* a, cplx* b, std::size_t n, double c, cplx u,
                       cplx v) {
    double* pa = reinterpret_cast<double*>(a);
    double* pb = reinterpret_cast<double*>(b);
    const typename P::V cv = P::broadcast(c);
    const typename P::V ur = P::broadcast(u.real());
    const typename P::V ui = P::broadcast(u.imag());
    const typename P::V vr = P::broadcast(v.real());
    const typename P::V vi = P::broadcast(v.imag());
    const std::size_t main = n - n % kW;
    for (std::size_t i = 0; i < main; i += kW) {
      const typename P::V av = P::load(pa + 2 * i);
      const typename P::V bv = P::load(pb + 2 * i);
      P::store(pa + 2 * i, P::fmadd(cv, av, cmul(vr, vi, bv)));
      P::store(pb + 2 * i, P::fmadd(cv, bv, cmul(ur, ui, av)));
    }
    for (std::size_t i = main; i < n; ++i) {
      const cplx t1 = cmul_fma(v, b[i]);
      const cplx t2 = cmul_fma(u, a[i]);
      a[i] = cplx(std::fma(c, a[i].real(), t1.real()),
                  std::fma(c, a[i].imag(), t1.imag()));
      b[i] = cplx(std::fma(c, b[i].real(), t2.real()),
                  std::fma(c, b[i].imag(), t2.imag()));
    }
  }

  /// alpha * x + beta * y for one register of a block: alpha, beta_re and
  /// beta_im point at the register's duplicated coefficient slots.
  static typename P::V block_mix(const double* alpha, const double* beta_re,
                                 const double* beta_im, typename P::V x,
                                 typename P::V y) {
    const typename P::V t = P::fmaddsub(
        P::load(beta_re), y, P::mul(P::load(beta_im), P::swap_pairs(y)));
    return P::fmadd(P::load(alpha), x, t);
  }

  /// block_rot walk for in-register partner offset M = flo % width; the
  /// register offset flo / width is the same for every register.
  template <unsigned M>
  static void block_walk(cplx* x, const BlockRot& b,  // see doc above
                         std::size_t i0, std::size_t i1) {
    constexpr std::size_t kR = 8 / kW;  // registers per block
    const std::size_t rx = b.flo / kW;
    double* px = reinterpret_cast<double*>(x);
    std::uint64_t sub = scatter_bits(i0, b.outer_mask);
    for (std::size_t i = i0; i < i1; ++i) {
      const std::uint64_t a = sub | b.base;
      const int par = std::popcount(a & b.sign) & 1;
      const double* al = b.alpha[par][0];
      const double* br = b.beta_re[par][0];
      const double* bi = b.beta_im[par][0];
      double* pa = px + 2 * a;
      typename P::V xa[kR];
      for (std::size_t r = 0; r < kR; ++r) xa[r] = P::load(pa + r * kD);
      if (b.partner != 0) {
        double* pb = px + 2 * (a ^ b.partner);
        typename P::V xb[kR];
        for (std::size_t r = 0; r < kR; ++r) xb[r] = P::load(pb + r * kD);
        for (std::size_t r = 0; r < kR; ++r) {
          const std::size_t o = r * kD;
          P::store(pa + o,
                   block_mix(al + o, br + o, bi + o, xa[r],
                             P::template xor_lanes<M>(xb[r ^ rx])));
          P::store(pb + o, block_mix(al + 16 + o, br + 16 + o, bi + 16 + o,
                                     xb[r],
                                     P::template xor_lanes<M>(xa[r ^ rx])));
        }
      } else {
        typename P::V ya[kR];
        for (std::size_t r = 0; r < kR; ++r) {
          const std::size_t o = r * kD;
          ya[r] = block_mix(al + o, br + o, bi + o, xa[r],
                            P::template xor_lanes<M>(xa[r ^ rx]));
        }
        for (std::size_t r = 0; r < kR; ++r) P::store(pa + r * kD, ya[r]);
      }
      sub = (sub - b.outer_mask) & b.outer_mask;
    }
  }

  /// block_rot kernel (see Kernels::block_rot).
  static void block_rot(cplx* x, const BlockRot& b, std::size_t i0,
                        std::size_t i1) {
    const unsigned m = b.flo % kW;
    if constexpr (kW > 2) {
      if (m == 2) return block_walk<2>(x, b, i0, i1);
      if (m == 3) return block_walk<3>(x, b, i0, i1);
    }
    if constexpr (kW > 1) {
      if (m == 1) return block_walk<1>(x, b, i0, i1);
    }
    block_walk<0>(x, b, i0, i1);
  }

  /// The tier's dispatch table.
  static constexpr Kernels table() {
    return Kernels{&norm2_lanes, &dot_lanes, &scale,    &axpy,
                   &axpby,       &phase_mul, &pair_rot, &block_rot};
  }
};

}  // namespace gecos::simd

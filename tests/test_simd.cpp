// SIMD dispatch layer: tier plumbing (names, parsing, availability,
// forcing) and the cross-tier bitwise-equality contract. Every wide kernel
// of every host-available tier is pinned BITWISE against the always-compiled
// scalar tier — stronger than the 1-ulp acceptance bound — across odd
// lengths, unaligned starting offsets and sentinel-guarded tails (so an
// overrunning tail loop fails loudly). On top of the raw kernels, whole
// operator applies and Trotter steps are pinned bitwise across tiers, and
// an allocation probe pins the fused Trotter phase tables as warmup-only
// (steady-state steps, including a dt change, allocate nothing).
#include "alloc_probe.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <random>
#include <stdexcept>
#include <vector>

#include "evolve/trotter.hpp"
#include "fermion/hubbard.hpp"
#include "linalg/blas1.hpp"
#include "ops/scb_sum.hpp"
#include "ops/term.hpp"
#include "simd/kernels.hpp"
#include "simd/simd.hpp"
#include "state/state_vector.hpp"
#include "test_util.hpp"
#include "util/bits.hpp"

namespace {

using gecos::cplx;

/// Bit-exact complex comparison (distinguishes -0.0 from +0.0 — the tiers
/// must agree on signs too).
bool same_bits(cplx a, cplx b) {
  return std::memcmp(&a, &b, sizeof(cplx)) == 0;
}

bool same_bits(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
}

std::vector<cplx> random_vec(std::size_t n, std::mt19937& rng) {
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  std::vector<cplx> v(n);
  for (cplx& z : v) z = cplx(d(rng), d(rng));
  return v;
}

}  // namespace

int main() {
  using namespace gecos;
  std::mt19937 rng(2025);

  // -- tier plumbing --------------------------------------------------------
  CHECK(simd_tier_available(SimdTier::scalar));
  for (SimdTier t :
       {SimdTier::scalar, SimdTier::avx2, SimdTier::avx512}) {
    CHECK_EQ(parse_simd_tier(simd_tier_name(t)), t);
  }
  {
    bool threw = false;
    try {
      parse_simd_tier("sse9");
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    CHECK(threw);
  }
  const SimdTier initial = simd_tier();
  CHECK(simd_tier_available(initial));
  CHECK(simd_tier_available(simd_best_tier()));
  for (SimdTier t :
       {SimdTier::scalar, SimdTier::avx2, SimdTier::avx512}) {
    if (simd_tier_available(t)) {
      set_simd_tier(t);
      CHECK_EQ(simd_tier(), t);
    } else {
      bool threw = false;
      try {
        set_simd_tier(t);
      } catch (const std::invalid_argument&) {
        threw = true;
      }
      CHECK(threw);
    }
  }
  set_simd_tier(SimdTier::scalar);

  // -- raw kernels: every wide tier bitwise against the scalar tier ---------
  // Odd lengths exercise every tail-loop length; offsets make the pointers
  // unaligned relative to the 32/64-byte vector width; kPad sentinel
  // complexes after the range catch any out-of-bounds write.
  const std::size_t lengths[] = {0,  1,  2,  3,  4,  5,   6,   7,   8,  9,
                                 11, 13, 15, 16, 17, 23,  31,  32,  33, 47,
                                 63, 64, 65, 97, 100, 127, 128, 129, 511};
  const std::size_t offsets[] = {0, 1, 2, 3};
  constexpr std::size_t kPad = 8;
  const cplx s1(0.7, -0.3), s2(-0.4, 1.1);
  const simd::Kernels& ref = simd::impl_for(SimdTier::scalar).kernels;

  for (SimdTier t : {SimdTier::avx2, SimdTier::avx512}) {
    if (!simd_tier_available(t)) {
      std::printf("tier %s unavailable on this host, skipped\n",
                  simd_tier_name(t));
      continue;
    }
    const simd::Kernels& kn = simd::impl_for(t).kernels;
    for (const std::size_t n : lengths) {
      for (const std::size_t o : offsets) {
        const std::vector<cplx> xs = random_vec(n + o + kPad, rng);
        const std::vector<cplx> ys = random_vec(n + o + kPad, rng);
        std::vector<cplx> ph = random_vec(n + o + kPad, rng);
        for (cplx& p : ph) p /= std::abs(p);  // unit-modulus phases
        const cplx* x = xs.data() + o;

        // Reductions: every lane must match, not just the combined value.
        double la[8], lb[8];
        ref.norm2_lanes(x, n, la);
        kn.norm2_lanes(x, n, lb);
        CHECK(std::memcmp(la, lb, sizeof la) == 0);
        ref.dot_lanes(x, ys.data() + o, n, la);
        kn.dot_lanes(x, ys.data() + o, n, lb);
        CHECK(std::memcmp(la, lb, sizeof la) == 0);

        // Elementwise kernels: run scalar and wide on identical copies,
        // compare the WHOLE buffer (touched range, pad and prefix).
        const auto elementwise = [&](auto&& run) {
          std::vector<cplx> a = ys, b = ys;
          run(ref, a.data() + o);
          run(kn, b.data() + o);
          CHECK(same_bits(a, b));
        };
        elementwise([&](const simd::Kernels& k, cplx* y) {
          k.scale(y, n, s1);
        });
        elementwise([&](const simd::Kernels& k, cplx* y) {
          k.axpy(y, x, n, s1);
        });
        elementwise([&](const simd::Kernels& k, cplx* y) {
          k.axpby(y, x, n, s1, s2);
        });
        elementwise([&](const simd::Kernels& k, cplx* y) {
          k.phase_mul(y, ph.data() + o, n);
        });

        // pair_rot rotates two distinct streams in place.
        {
          std::vector<cplx> a1 = xs, b1 = ys, a2 = xs, b2 = ys;
          ref.pair_rot(a1.data() + o, b1.data() + o, n, 0.8, s1, s2);
          kn.pair_rot(a2.data() + o, b2.data() + o, n, 0.8, s1, s2);
          CHECK(same_bits(a1, a2));
          CHECK(same_bits(b1, b2));
        }
      }
    }
    std::printf("tier %s: all kernels bitwise-equal to scalar\n",
                simd_tier_name(t));
  }

  // -- block rotation kernel -------------------------------------------------
  // block_rot over a 2^7-amplitude state: every in-block partner offset flo
  // (0..7), the one-block (partner 0) and two-block (partner bit 5) forms, a
  // sign bit (4) in the walk so both coefficient parities occur, and a chunk
  // starting mid-walk. The scalar tier must compute the documented
  // per-element formula exactly; every wide tier must match it bitwise.
  {
    std::uniform_real_distribution<double> d(-1.0, 1.0);
    const std::size_t dim = 128;
    for (const std::uint64_t partner : {std::uint64_t{0}, std::uint64_t{32}}) {
      for (unsigned flo = 0; flo < 8; ++flo) {
        simd::BlockRot b;
        b.outer_mask = 0x78 & ~partner;  // bits 3-6 minus the partner bit
        b.base = 0;
        b.partner = partner;
        b.sign = 0x10;
        b.flo = flo;
        for (int par = 0; par < 2; ++par)
          for (int blk = 0; blk < 2; ++blk)
            for (int q = 0; q < 8; ++q) {
              const double a = d(rng), br = d(rng), bi = d(rng);
              for (int slot = 2 * q; slot < 2 * q + 2; ++slot) {
                b.alpha[par][blk][slot] = a;
                b.beta_re[par][blk][slot] = br;
                b.beta_im[par][blk][slot] = bi;
              }
            }
        const std::size_t blocks =
            std::size_t{1} << std::popcount(b.outer_mask);
        const std::vector<cplx> x0 = random_vec(dim, rng);

        // Reference: the formula of Kernels::block_rot, element by element.
        std::vector<cplx> expect = x0;
        for (std::size_t i = 1; i < blocks; ++i) {
          const std::uint64_t a = scatter_bits(i, b.outer_mask) | b.base;
          const int par = std::popcount(a & b.sign) & 1;
          const std::uint64_t bb = a ^ b.partner;
          for (int blk = 0; blk < (partner != 0 ? 2 : 1); ++blk) {
            const std::uint64_t own = blk == 0 ? a : bb;
            const std::uint64_t other = blk == 0 ? bb : a;
            for (unsigned q = 0; q < 8; ++q) {
              const cplx xv = x0[own + q], y = x0[other + (q ^ flo)];
              const double al = b.alpha[par][blk][2 * q];
              const double br = b.beta_re[par][blk][2 * q];
              const double bi = b.beta_im[par][blk][2 * q];
              expect[own + q] = cplx(
                  std::fma(al, xv.real(),
                           std::fma(br, y.real(), -(bi * y.imag()))),
                  std::fma(al, xv.imag(), std::fma(br, y.imag(),
                                                   bi * y.real())));
            }
          }
        }
        for (SimdTier t :
             {SimdTier::scalar, SimdTier::avx2, SimdTier::avx512}) {
          if (!simd_tier_available(t)) continue;
          std::vector<cplx> x = x0;
          simd::impl_for(t).kernels.block_rot(x.data(), b, 1, blocks);
          CHECK(same_bits(expect, x));
        }
      }
    }
  }

  // -- dispatched blas1 and operator sweeps: bitwise across tiers -----------
  // The same run-splitting happens at every tier and the kernels are
  // bitwise-equal, so whole vec_* reductions, TermKernel applies and
  // Trotter trajectories must agree bit-for-bit between forced-scalar and
  // every wide tier.
  {
    HubbardParams p;
    p.lx = 5;
    p.u = 3.0;
    p.mu = 0.2;
    p.periodic_x = true;
    p.spinful = true;  // n = 10
    const ScbSum h = hubbard_scb(p);
    const std::size_t n = h.num_qubits();
    const std::size_t dim = std::size_t{1} << n;
    const std::vector<cplx> x0 = random_vec(dim, rng);

    set_simd_tier(SimdTier::scalar);
    const double nrm = vec_norm(x0);
    const cplx dot = vec_dot(x0, x0);
    std::vector<cplx> y_ref(dim, cplx(0.0));
    h.apply_add(x0, y_ref);
    StateVector tr_ref(n);
    std::copy(x0.begin(), x0.end(), tr_ref.amps().begin());
    const TrotterEvolver ev(h);
    for (int s = 0; s < 3; ++s) ev.step(tr_ref.amps(), 0.05, 2);

    for (SimdTier t : {SimdTier::avx2, SimdTier::avx512}) {
      if (!simd_tier_available(t)) continue;
      set_simd_tier(t);
      CHECK(nrm == vec_norm(x0));
      CHECK(same_bits(dot, vec_dot(x0, x0)));
      std::vector<cplx> y(dim, cplx(0.0));
      h.apply_add(x0, y);
      CHECK(same_bits(y_ref, y));
      StateVector tr(n);
      std::copy(x0.begin(), x0.end(), tr.amps().begin());
      for (int s = 0; s < 3; ++s) ev.step(tr.amps(), 0.05, 2);
      CHECK(same_bits(std::vector<cplx>(tr_ref.amps().begin(),
                                        tr_ref.amps().end()),
                      std::vector<cplx>(tr.amps().begin(),
                                        tr.amps().end())));
    }
    set_simd_tier(initial);
  }

  // -- fusion tables are warmup-only ----------------------------------------
  // The fused diagonal angle/phase tables are sized at construction and a
  // dt change refills the phase table in place, so steady-state stepping —
  // even across a dt change — performs ZERO heap allocations.
  {
    HubbardParams p;
    p.lx = 5;
    p.u = 3.0;
    p.mu = 0.2;
    p.periodic_x = true;
    p.spinful = true;
    const ScbSum h = hubbard_scb(p);
    const TrotterEvolver ev(h);
    CHECK(ev.fused());
    CHECK(ev.num_groups() < ev.num_terms());
    StateVector x = StateVector::product(h.num_qubits(),
                                         hubbard_cdw_occupation(p));
    ev.step(x.amps(), 0.02, 2);  // warmup: phase fill, thread pool
    const long before = gecos::test::allocations();
    for (int s = 0; s < 5; ++s) ev.step(x.amps(), 0.02, 2);
    ev.step(x.amps(), 0.01, 2);  // dt change: in-place phase refill
    const long delta = gecos::test::allocations() - before;
#if GECOS_ALLOC_PROBE_ACTIVE
    std::printf("alloc probe: %ld allocations over 6 fused steps\n", delta);
    CHECK_EQ(delta, 0);
#else
    (void)delta;
#endif
  }

  set_simd_tier(initial);
  return gecos::test::finish("test_simd");
}

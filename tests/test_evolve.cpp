// Trotter evolution engine: exact single-term exponentials against dense
// expm, global-error scaling of the order-1/2 product formulas on a 6-qubit
// Hubbard chain, conservation laws under Strang stepping, and the two quench
// integrators (TrotterEvolver and KrylovEvolver) against the dense
// propagator and each other.
#include <cstdio>
#include <cstring>
#include <random>
#include <stdexcept>
#include <vector>

#include "linalg/blas1.hpp"
#include "evolve/trotter.hpp"
#include "fermion/hubbard.hpp"
#include "linalg/expm.hpp"
#include "ops/scb_sum.hpp"
#include "simd/simd.hpp"
#include "solver/krylov_evolve.hpp"
#include "state/state_vector.hpp"
#include "test_util.hpp"
#include "util/parallel.hpp"

using namespace gecos;

namespace {

/// Random valid-Hamiltonian term: either a Hermitian bare product with a
/// real coefficient or an arbitrary product with "+ h.c.".
ScbTerm random_term(std::size_t n, std::mt19937& rng, bool add_hc) {
  std::uniform_real_distribution<double> cd(-1.0, 1.0);
  std::vector<Scb> ops(n);
  for (;;) {
    for (auto& o : ops) o = kAllScb[rng() % kAllScb.size()];
    if (!add_hc) {
      bool herm = true;
      for (Scb o : ops) herm &= scb_is_hermitian(o);
      if (!herm) continue;
      return ScbTerm(cd(rng), ops, false);
    }
    return ScbTerm(cplx(cd(rng), cd(rng)), ops, true);
  }
}

/// Dense exp(-i t H) |x> reference.
std::vector<cplx> dense_evolve(const Matrix& h, double t,
                               std::span<const cplx> x) {
  return expm_hermitian(h, -t).apply(x);
}

/// Max-amplitude global error of an `order` Trotter evolution with the given
/// step count against the dense propagator.
double trotter_error(const TrotterEvolver& ev, const Matrix& h, double t,
                     int steps, int order, std::span<const cplx> x0) {
  std::vector<cplx> x(x0.begin(), x0.end());
  ev.evolve(x, t, steps, order);
  return vec_max_abs_diff(x, dense_evolve(h, t, x0));
}

}  // namespace

int main() {
  std::mt19937 rng(77);

  // TermExp against dense expm over random single terms: every structural
  // family (diagonal, Pauli flips, transitions, mixtures; bare and + h.c.).
  // From n = 3 every off-diagonal term with masks in bits 0-2 takes the
  // 8-amplitude block path: up to n = 8 that covers flips inside a block,
  // flips straddling bit 3 (one-way and two-way partner blocks) and sign
  // strings through bits 0-2; n <= 2 covers the scalar pair walk.
  for (int it = 0; it < 320; ++it) {
    const std::size_t n = 1 + it % 8;
    const std::size_t dim = std::size_t{1} << n;
    const ScbTerm term = random_term(n, rng, it % 2 == 0);
    const double t = (static_cast<double>(rng() % 100) - 50.0) / 25.0;
    const std::vector<cplx> x0 = random_state(dim, rng);

    std::vector<cplx> x = x0;
    TermExp(term).apply(t, x);
    const std::vector<cplx> expect =
        dense_evolve(term.hamiltonian_matrix(), t, x0);
    CHECK_NEAR(vec_max_abs_diff(x, expect), 0.0, 1e-12);
    CHECK_NEAR(vec_norm(x), 1.0, 1e-12);  // exact exponentials are unitary
  }

  // The state must have exactly 2^n amplitudes: a 13-qubit X on qubit 12
  // applied to a 2^10-amplitude span of a larger buffer throws and leaves
  // the whole buffer untouched (it would otherwise write past the span).
  {
    std::vector<Scb> ops(13, Scb::I);
    ops[12] = Scb::X;
    const TermExp e(ScbTerm(1.0, ops, false));
    std::vector<cplx> buf = random_state(std::size_t{1} << 13, rng);
    const std::vector<cplx> before = buf;
    bool threw = false;
    try {
      e.apply(0.3, std::span<cplx>(buf.data(), std::size_t{1} << 10));
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    CHECK(threw);
    CHECK(std::memcmp(buf.data(), before.data(),
                      buf.size() * sizeof(cplx)) == 0);
  }

  // A non-Hermitian bare term has no closed-form unitary: must throw.
  {
    bool threw = false;
    try {
      TermExp(ScbTerm(cplx(1.0, 0.5), {Scb::Sp}, false));
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    CHECK(threw);
  }

  // 6-qubit Hubbard chain for the product-formula scaling pins.
  HubbardParams p;
  p.lx = 6;
  p.t = 1.0;
  p.u = 2.0;
  p.mu = 0.3;
  p.periodic_x = true;
  const ScbSum h = hubbard_scb(p);
  const Matrix hd = h.to_matrix();
  const TrotterEvolver ev(h);
  const std::size_t dim = std::size_t{1} << 6;
  const std::vector<cplx> x0 = random_state(dim, rng);
  const double t_total = 1.0;

  // Order-1 global error is O(dt): halving dt halves the error.
  {
    const double e1 = trotter_error(ev, hd, t_total, 16, 1, x0);
    const double e2 = trotter_error(ev, hd, t_total, 32, 1, x0);
    const double ratio = e1 / e2;
    std::printf("order1: e(dt)=%.3e e(dt/2)=%.3e ratio=%.2f\n", e1, e2, ratio);
    CHECK(e1 > 1e-6);  // far from fp noise, scaling is meaningful
    CHECK(ratio > 1.6 && ratio < 2.4);
  }

  // Order-2 (Strang) global error is O(dt^2): halving dt quarters it.
  {
    const double e1 = trotter_error(ev, hd, t_total, 16, 2, x0);
    const double e2 = trotter_error(ev, hd, t_total, 32, 2, x0);
    const double ratio = e1 / e2;
    std::printf("order2: e(dt)=%.3e e(dt/2)=%.3e ratio=%.2f\n", e1, e2, ratio);
    CHECK(e1 > 1e-8);
    CHECK(ratio > 3.2 && ratio < 4.8);
  }

  // Acceptance pin: order-2 error < 1e-6 at dt = 1e-3.
  {
    const double e = trotter_error(ev, hd, 0.1, 100, 2, x0);
    std::printf("order2 dt=1e-3: err=%.3e\n", e);
    CHECK(e < 1e-6);
  }

  // Conservation under Strang steps. Norm is exact (every TermExp is
  // exactly unitary) and <N> is exact too: every Hermitian Hubbard term
  // (hopping pair, density product) commutes with total particle number, so
  // each term exponential preserves <N> individually. Energy <H> follows
  // the modified-Hamiltonian picture of symmetric integrators: it
  // oscillates at O(dt^2) with no secular drift — at a physically large
  // dt = 0.05 it stays bounded, and at dt = 2e-5 the O(dt^2) envelope sits
  // below the 1e-10 drift pin. The dt = 0.05 bound is calibrated to the
  // evolver's diagonal-major splitting order (all commuting diagonal terms
  // as one block — see trotter.cpp), whose oscillation constant on this
  // chain is ~6e-3; the pin guards against secular growth, not the
  // splitting-dependent prefactor.
  {
    StateVector x(6);
    x = StateVector::product(6, hubbard_cdw_occupation(p));
    const ScbSum nop = jw_sum(total_number(6), 6);
    const cplx e0 = x.expectation(h);
    const cplx n0 = x.expectation(nop);
    CHECK_NEAR(n0 - cplx(3.0), 0.0, 1e-12);  // CDW on 6 sites: 3 particles
    for (int s = 0; s < 200; ++s) ev.step(x.amps(), 0.05, 2);
    CHECK_NEAR(x.norm(), 1.0, 1e-12);
    CHECK_NEAR((x.expectation(h) - e0).real(), 0.0, 1e-2);  // bounded
    CHECK_NEAR(std::abs(x.expectation(h).imag()), 0.0, 1e-10);
    CHECK_NEAR((x.expectation(nop) - n0).real(), 0.0, 1e-10);  // exact
  }
  {
    StateVector x = StateVector::product(6, hubbard_cdw_occupation(p));
    const cplx e0 = x.expectation(h);
    double drift = 0.0;
    for (int s = 0; s < 200; ++s) {
      ev.step(x.amps(), 2e-5, 2);
      drift = std::max(drift, std::abs((x.expectation(h) - e0).real()));
    }
    std::printf("strang dt=2e-5: max <H> drift over 200 steps = %.3e\n",
                drift);
    CHECK(drift < 1e-10);
  }

  // Trotter against Krylov: both quench integrators agree with the dense
  // propagator (each at its own accuracy) and with each other.
  {
    const KrylovEvolver kev(h);
    const std::vector<cplx> expect = dense_evolve(hd, 0.2, x0);
    std::vector<cplx> xt = x0;
    ev.evolve(xt, 0.2, 200, 2);
    CHECK(vec_max_abs_diff(xt, expect) < 1e-5);  // Trotter at dt = 1e-3
    std::vector<cplx> xk = x0;
    kev.step(xk, 0.2);
    CHECK(vec_max_abs_diff(xk, expect) < 1e-9);  // Krylov budget
    CHECK(vec_max_abs_diff(xt, xk) < 2e-5);

    // evolve() rejects steps < 1.
    bool threw = false;
    try {
      std::vector<cplx> y = x0;
      ev.evolve(y, 0.1, 0, 2);
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    CHECK(threw);
  }

  // Fusion: the fused evolver folds the diagonal prefix into one phase
  // table (fewer sweeps than terms), reproduces the unfused
  // (one-sweep-per-term, same canonical order) trajectory to 1e-12 over a
  // real quench, and its traffic model shrinks accordingly.
  {
    const TrotterEvolver fused(h, true);
    const TrotterEvolver plain(h, false);
    CHECK(fused.fused());
    CHECK(!plain.fused());
    CHECK_EQ(fused.num_terms(), plain.num_terms());
    CHECK(fused.num_groups() < fused.num_terms());
    CHECK_EQ(plain.num_groups(), plain.num_terms());
    CHECK(fused.step_traffic_bytes(2) < plain.step_traffic_bytes(2));
    CHECK(fused.step_traffic_bytes(1) < fused.step_traffic_bytes(2));
    StateVector a = StateVector::product(6, hubbard_cdw_occupation(p));
    StateVector b = a;
    fused.evolve(a.amps(), 1.0, 50, 2);
    plain.evolve(b.amps(), 1.0, 50, 2);
    CHECK_NEAR(a.max_abs_diff(b), 0.0, 1e-12);
    // Order 1 fuses and agrees the same way.
    StateVector c = StateVector::product(6, hubbard_cdw_occupation(p));
    StateVector d = c;
    fused.evolve(c.amps(), 0.5, 50, 1);
    plain.evolve(d.amps(), 0.5, 50, 1);
    CHECK_NEAR(c.max_abs_diff(d), 0.0, 1e-12);
  }

  // Forced-tier sweep: the same Strang trajectory is BITWISE identical
  // under every SIMD tier available on this host (the cross-tier kernel
  // contract lifted to whole evolutions), fused and unfused alike.
  {
    const SimdTier initial = simd_tier();
    const TrotterEvolver fused(h, true);
    const TrotterEvolver plain(h, false);
    for (const TrotterEvolver* ev2 : {&fused, &plain}) {
      set_simd_tier(SimdTier::scalar);
      StateVector ref = StateVector::product(6, hubbard_cdw_occupation(p));
      for (int s = 0; s < 5; ++s) ev2->step(ref.amps(), 0.03, 2);
      for (SimdTier t : {SimdTier::avx2, SimdTier::avx512}) {
        if (!simd_tier_available(t)) continue;
        set_simd_tier(t);
        StateVector x = StateVector::product(6, hubbard_cdw_occupation(p));
        for (int s = 0; s < 5; ++s) ev2->step(x.amps(), 0.03, 2);
        CHECK_NEAR(ref.max_abs_diff(x), 0.0, 0.0);
      }
    }
    set_simd_tier(initial);
  }

  // Thread invariance at scale: one fused n = 20 Strang step (10-site
  // spinful 5x2 lattice, every sweep path including the block path on the
  // hops reaching bits 0-2) is bitwise identical at 1 and 4 threads.
  {
    HubbardParams q;
    q.lx = 5;
    q.ly = 2;
    q.u = 4.0;
    q.mu = 0.5;
    q.periodic_x = true;
    q.spinful = true;
    const ScbSum h20 = hubbard_scb(q);
    const std::size_t n20 = h20.num_qubits();
    const TrotterEvolver ev20(h20);
    const int saved_threads = num_threads();
    const StateVector x0 = StateVector::random(n20, 2024);
    std::vector<std::vector<cplx>> out;
    for (const int threads : {1, 4}) {
      set_num_threads(threads);
      StateVector x = x0;
      ev20.step(x.amps(), 0.02, 2);
      out.emplace_back(x.amps().begin(), x.amps().end());
    }
    set_num_threads(saved_threads);
    CHECK_EQ(n20, std::size_t{20});
    CHECK(std::memcmp(out[0].data(), out[1].data(),
                      out[0].size() * sizeof(cplx)) == 0);
  }

  return gecos::test::finish("test_evolve");
}

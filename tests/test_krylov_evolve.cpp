// Krylov expm_multiply suite: propagation against dense exp(-i t H) at
// n <= 8, unitarity, adaptive step splitting, Trotter and Krylov against
// the same dense propagator, general exp(z H) application, operator
// representation independence (ScbSum vs PauliSum), and the zero-allocation
// pin after warm-up.
#include "alloc_probe.hpp"  // first: replaces global operator new
// clang-format off
#include <cmath>
#include <cstdio>
#include <random>
#include <vector>
// clang-format on

#include "evolve/trotter.hpp"
#include "fermion/hubbard.hpp"
#include "linalg/blas1.hpp"
#include "linalg/expm.hpp"
#include "ops/pauli.hpp"
#include "ops/scb_sum.hpp"
#include "solver/krylov_evolve.hpp"
#include "test_util.hpp"

using namespace gecos;

int main() {
  std::mt19937 rng(20260730);

  // -- dense cross-check on Hubbard Hamiltonians at n = 6 and 8 -------------
  for (const std::size_t lx : {6, 8}) {
    HubbardParams p;
    p.lx = lx;
    p.u = 2.0;
    p.mu = 0.3;
    p.periodic_x = true;
    const ScbSum h = hubbard_scb(p);
    const Matrix hd = h.to_matrix();
    const std::size_t dim = std::size_t{1} << lx;
    const std::vector<cplx> x0 = random_state(dim, rng);

    for (const double t : {0.1, 1.0, 3.7}) {
      const std::vector<cplx> ref = expm_hermitian(hd, -t).apply(x0);

      KrylovOptions ko;
      ko.tol = 1e-13;
      KrylovEvolver ev(h, ko);
      std::vector<cplx> x = x0;
      ev.step(x, t);
      CHECK_NEAR(vec_max_abs_diff(x, ref), 0.0, 1e-10);
      CHECK_NEAR(vec_norm(x), 1.0, 1e-12);  // Krylov steps are unitary
    }
  }

  // -- adaptive step splitting: a tight subspace cap forces substeps, the
  // result stays at dense accuracy ------------------------------------------
  {
    HubbardParams p;
    p.lx = 6;
    p.u = 4.0;
    p.mu = 0.5;
    const ScbSum h = hubbard_scb(p);
    const Matrix hd = h.to_matrix();
    const std::vector<cplx> x0 = random_state(64, rng);
    KrylovOptions ko;
    ko.max_subspace = 12;
    ko.tol = 1e-12;
    KrylovEvolver ev(h, ko);
    std::vector<cplx> x = x0;
    const double t = 4.0;
    ev.step(x, t);
    std::printf("splitting: substeps=%zu matvecs=%zu subspace=%zu\n",
                ev.last_substeps(), ev.last_matvecs(), ev.last_subspace());
    CHECK(ev.last_substeps() > 1);
    CHECK_NEAR(vec_max_abs_diff(x, expm_hermitian(hd, -t).apply(x0)), 0.0,
               1e-10);
  }

  // -- general exp(z H): imaginary-time z = -dt against the dense
  // exponential --------------------------------------------------------------
  {
    HubbardParams p;
    p.lx = 5;
    p.u = 2.0;
    const ScbSum h = hubbard_scb(p);
    const Matrix hd = h.to_matrix();
    const std::vector<cplx> x0 = random_state(32, rng);
    const double dt = 0.8;
    const Matrix ref = expm(hd * cplx(-dt));
    KrylovOptions ko;
    ko.tol = 1e-13;
    KrylovEvolver ev(h, ko);
    std::vector<cplx> x = x0;
    ev.apply_expm(cplx(-dt), x);
    CHECK_NEAR(vec_max_abs_diff(x, ref.apply(x0)), 0.0, 1e-10);
  }

  // -- Trotter and Krylov both track the dense propagator within their own
  // error budgets ------------------------------------------------------------
  {
    HubbardParams p;
    p.lx = 6;
    p.u = 2.0;
    p.mu = 0.3;
    const ScbSum h = hubbard_scb(p);
    const Matrix hd = h.to_matrix();
    const std::vector<cplx> x0 = random_state(64, rng);
    const double t = 1.0;
    const std::vector<cplx> ref = expm_hermitian(hd, -t).apply(x0);

    const TrotterEvolver trotter(h);
    std::vector<cplx> xt = x0;
    trotter.evolve(xt, t, 64, 2);
    CHECK_NEAR(vec_max_abs_diff(xt, ref), 0.0, 1e-4);  // Strang O(dt^2)
    const KrylovEvolver krylov(h);
    std::vector<cplx> xk = x0;
    krylov.step(xk, t);
    CHECK_NEAR(vec_max_abs_diff(xk, ref), 0.0, 1e-10);  // Krylov tol
  }

  // -- PauliSum backend: the evolver is operator-representation-agnostic ---
  {
    HubbardParams p;
    p.lx = 5;
    p.u = 2.0;
    const ScbSum h = hubbard_scb(p);
    const PauliSum hp = h.to_pauli();
    const std::vector<cplx> x0 = random_state(32, rng);
    std::vector<cplx> xs = x0, xp = x0;
    KrylovEvolver es(h), ep(hp);
    es.step(xs, 1.3);
    ep.step(xp, 1.3);
    CHECK_NEAR(vec_max_abs_diff(xs, xp), 0.0, 1e-11);
  }

  // -- error paths ----------------------------------------------------------
  {
    HubbardParams p;
    p.lx = 4;
    const ScbSum h = hubbard_scb(p);
    bool threw = false;
    try {
      KrylovOptions ko;
      ko.max_subspace = 1;
      KrylovEvolver bad(h, ko);
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    CHECK(threw);
    threw = false;
    try {
      KrylovOptions ko;
      ko.tol = 0.0;
      KrylovEvolver bad(h, ko);
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    CHECK(threw);
    threw = false;
    try {
      KrylovEvolver ev(h);
      std::vector<cplx> wrong(8);
      ev.step(wrong, 0.1);
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    CHECK(threw);
  }

  // -- allocation probe: steps after the first allocate nothing (basis,
  // recurrence and small-eigensolver workspace are all preallocated) -------
  {
    HubbardParams p;
    p.lx = 5;
    p.u = 3.0;
    p.spinful = true;  // n = 10
    const ScbSum h = hubbard_scb(p);
    KrylovEvolver ev(h);
    StateVector psi = StateVector::random(10, 7);
    ev.step(psi.amps(), 0.05);  // warm-up: kernel cache, pool, workspaces
    const long before = gecos::test::allocations();
    for (int i = 0; i < 5; ++i) ev.step(psi.amps(), 0.05);
    const long delta = gecos::test::allocations() - before;
#if GECOS_ALLOC_PROBE_ACTIVE
    std::printf("alloc probe: %ld allocations over 5 warm steps\n", delta);
    CHECK_EQ(delta, 0);
#else
    (void)delta;
#endif
    CHECK_NEAR(psi.norm(), 1.0, 1e-12);
  }

  return gecos::test::finish("test_krylov_evolve");
}

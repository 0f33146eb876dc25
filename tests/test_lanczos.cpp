// Lanczos eigensolver suite: k lowest eigenpairs against dense eigh on
// Hubbard lattices up to n = 10, Ritz-vector residuals and orthonormality,
// reorthogonalization-policy agreement, operator-interface genericity
// (ScbSum / PauliSum / a diagonal operator), restart and deflation paths,
// the constructor and ritz_vector() error paths, and the
// zero-allocation-after-warm-up pin via the operator-new probe.
#include "alloc_probe.hpp"  // first: replaces global operator new
// clang-format off
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <random>
#include <utility>
#include <vector>
// clang-format on

#include "fermion/hubbard.hpp"
#include "linalg/blas1.hpp"
#include "linalg/expm.hpp"
#include "ops/linear_op.hpp"
#include "ops/scb_sum.hpp"
#include "solver/lanczos.hpp"
#include "test_util.hpp"

using namespace gecos;

namespace {

/// Distinct eigenvalues of a dense spectrum (single-vector Krylov reports
/// one Ritz pair per degenerate multiplet, so comparisons go level-by-level
/// against the deduplicated spectrum).
std::vector<double> distinct_levels(const std::vector<double>& w,
                                    double tol = 1e-8) {
  std::vector<double> out;
  for (double v : w)
    if (out.empty() || v - out.back() > tol) out.push_back(v);
  return out;
}

/// diag(d) on d.size() amplitudes (a power of two): a spectrum chosen
/// entry by entry.
class DiagonalOp : public LinearOperator {
 public:
  explicit DiagonalOp(std::vector<double> d) : d_(std::move(d)) {}
  std::size_t n_qubits() const override {
    return static_cast<std::size_t>(std::bit_width(d_.size()) - 1);
  }
  using LinearOperator::apply_add;
  void apply_add(std::span<const cplx> x, std::span<cplx> y,
                 cplx s) const override {
    for (std::size_t i = 0; i < d_.size(); ++i) y[i] += s * (d_[i] * x[i]);
  }

 private:
  std::vector<double> d_;
};

}  // namespace

int main() {
  // -- Hubbard chains and lattices up to n = 10 vs dense eigh ---------------
  struct Case {
    HubbardParams p;
    const char* name;
  };
  std::vector<Case> cases;
  {
    HubbardParams a;  // 1D open chain
    a.lx = 6;
    a.u = 2.0;
    a.mu = 0.3;
    cases.push_back({a, "chain6_open"});
    HubbardParams b;  // 1D periodic ring, n = 8
    b.lx = 8;
    b.u = 2.0;
    b.mu = 0.3;
    b.periodic_x = true;
    cases.push_back({b, "ring8"});
    HubbardParams c;  // 2D spinful 2x2, n = 8
    c.lx = 2;
    c.ly = 2;
    c.u = 4.0;
    c.mu = 0.5;
    c.spinful = true;
    cases.push_back({c, "spinful2x2"});
    HubbardParams d;  // 1D spinful chain, n = 10
    d.lx = 5;
    d.u = 3.0;
    d.mu = 0.2;
    d.spinful = true;
    cases.push_back({d, "spinful5"});
  }

  for (const Case& c : cases) {
    const ScbSum h = hubbard_scb(c.p);
    const std::size_t n = h.num_qubits();
    const std::size_t dim = std::size_t{1} << n;
    const EigenSystem dense = eigh(h.to_matrix());
    const std::vector<double> levels = distinct_levels(dense.eigenvalues);

    LanczosOptions lo;
    lo.k = 3;
    lo.tol = 1e-11;
    Lanczos solver(h, lo);
    const LanczosResult& r = solver.solve();
    CHECK(r.converged);
    std::printf("%-12s n=%zu E0=%.12f matvecs=%zu restarts=%zu\n", c.name, n,
                r.eigenvalues[0], r.matvecs, r.restarts);
    for (std::size_t i = 0; i < lo.k; ++i)
      CHECK_NEAR(r.eigenvalues[i], levels[i], 1e-10);

    // Ritz pairs: true residual ||H y - theta y||, unit norm, mutual
    // orthogonality. The solve runs the default kSelective policy, so the
    // residual bound pins its tol-derived full-pass threshold: with the
    // sqrt(eps) threshold alone these residuals reach 1.4e-9 to 5.9e-9.
    std::vector<cplx> hy(dim);
    for (std::size_t i = 0; i < lo.k; ++i) {
      const std::span<const cplx> y = solver.ritz_vector(i);
      CHECK_NEAR(vec_norm(y), 1.0, 1e-10);
      h.apply(y, hy);
      vec_axpy(hy, cplx(-r.eigenvalues[i]), y);
      CHECK_NEAR(vec_norm(hy), 0.0, 1e-9);
      for (std::size_t l = 0; l < i; ++l)
        CHECK_NEAR(std::abs(vec_dot(solver.ritz_vector(l), y)), 0.0, 1e-9);
    }
  }

  // -- reorthogonalization policies agree ------------------------------------
  {
    HubbardParams p;
    p.lx = 8;
    p.u = 2.0;
    p.mu = 0.3;
    p.periodic_x = true;
    const ScbSum h = hubbard_scb(p);
    LanczosOptions full;
    full.k = 2;
    full.tol = 1e-11;
    full.reorth = LanczosReorth::kFull;
    LanczosOptions sel = full;
    sel.reorth = LanczosReorth::kSelective;
    Lanczos sf(h, full), ss(h, sel);
    const double e_full = sf.solve().eigenvalues[0];
    const LanczosResult& rs = ss.solve();
    CHECK(rs.converged);
    CHECK_NEAR(rs.eigenvalues[0], e_full, 1e-10);
    std::printf("selective: matvecs=%zu (full %zu)\n", rs.matvecs,
                sf.result().matvecs);
  }

  // -- selective reorth on an adversarial spectrum: a wide PSD diagonal
  // operator where a broken omega recurrence silently converges to Ritz
  // values BELOW the spectrum (regression pin for the in-place-update bug).
  // True residuals are checked, not the solver's own estimates ------------
  {
    const std::size_t nn = 1024;
    std::vector<double> spectrum(nn);
    for (std::size_t i = 0; i < nn; ++i)
      spectrum[i] = static_cast<double>(i * i) / 100.0;
    const DiagonalOp d(spectrum);
    LanczosOptions lo;
    lo.k = 4;
    lo.tol = 1e-10;
    lo.max_subspace = 60;
    lo.reorth = LanczosReorth::kSelective;
    Lanczos s(d, lo);
    const LanczosResult& r = s.solve();
    CHECK(r.converged);
    std::vector<cplx> hy(nn);
    for (std::size_t i = 0; i < lo.k; ++i) {
      CHECK_NEAR(r.eigenvalues[i], static_cast<double>(i * i) / 100.0, 1e-9);
      const std::span<const cplx> y = s.ritz_vector(i);
      d.apply(y, hy);
      vec_axpy(hy, cplx(-r.eigenvalues[i]), y);
      CHECK_NEAR(vec_norm(hy), 0.0, 1e-8);
    }
  }

  // -- interface genericity: the same spectrum through the PauliSum backend -
  {
    HubbardParams p;
    p.lx = 4;
    p.u = 2.0;
    p.mu = 0.3;
    const ScbSum h = hubbard_scb(p);
    LanczosOptions lo;
    lo.k = 2;
    lo.tol = 1e-11;
    const double e_scb = Lanczos(h, lo).solve().eigenvalues[0];

    const PauliSum hp = h.to_pauli();
    CHECK_NEAR(Lanczos(hp, lo).solve().eigenvalues[0], e_scb, 1e-10);
  }

  // -- start-vector overload: beginning at the ground state converges on
  // the spot ---------------------------------------------------------------
  {
    HubbardParams p;
    p.lx = 6;
    p.u = 2.0;
    const ScbSum h = hubbard_scb(p);
    LanczosOptions lo;
    lo.k = 1;
    lo.tol = 1e-10;
    Lanczos warm(h, lo);
    warm.solve();
    Lanczos cold(h, lo);
    const LanczosResult& r = cold.solve(warm.ritz_vector(0));
    CHECK(r.converged);
    CHECK(r.iterations <= 3);
    CHECK_NEAR(r.eigenvalues[0], warm.result().eigenvalues[0], 1e-10);
    // The Ritz vector lives in the solver's own basis slot 0: restarting
    // the same solver from it is allowed and converges just as fast.
    const double e_warm = warm.result().eigenvalues[0];
    const LanczosResult& again = warm.solve(warm.ritz_vector(0));
    CHECK(again.converged);
    CHECK(again.iterations <= 3);
    CHECK_NEAR(again.eigenvalues[0], e_warm, 1e-10);
  }

  // -- breakdown/deflation: a basis-state start on a diagonal operator is
  // an exact eigenvector, so the first extension breaks down and k = 2
  // forces the random-deflation path ----------------------------------------
  {
    std::vector<double> spectrum(16);
    for (std::size_t i = 0; i < 16; ++i) spectrum[i] = static_cast<double>(i);
    const DiagonalOp diag(spectrum);
    LanczosOptions lo;
    lo.k = 2;
    lo.tol = 1e-10;
    Lanczos solver(diag, lo);
    std::vector<cplx> e0(16, cplx(0.0));
    e0[0] = cplx(1.0);
    const LanczosResult& r = solver.solve(e0);
    CHECK(r.converged);
    CHECK_NEAR(r.eigenvalues[0], 0.0, 1e-9);
    CHECK_NEAR(r.eigenvalues[1], 1.0, 1e-9);
  }

  // -- error paths ----------------------------------------------------------
  {
    HubbardParams p;
    p.lx = 4;
    const ScbSum h = hubbard_scb(p);
    bool threw = false;
    try {
      LanczosOptions lo;
      lo.k = 0;
      Lanczos bad(h, lo);
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    CHECK(threw);
    // A tol that is not positive, NaN included, is rejected up front: a NaN
    // threshold would switch selective reorthogonalization off.
    for (const double tol : {0.0, -1e-10,
                             std::numeric_limits<double>::quiet_NaN()}) {
      threw = false;
      try {
        LanczosOptions lo;
        lo.tol = tol;
        Lanczos bad(h, lo);
      } catch (const std::invalid_argument&) {
        threw = true;
      }
      CHECK(threw);
    }
    threw = false;
    try {
      LanczosOptions lo;
      lo.k = 10;
      lo.max_subspace = 4;
      Lanczos bad(h, lo);
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    CHECK(threw);
    threw = false;
    try {
      const std::vector<cplx> zero(std::size_t{1} << 4, cplx(0.0));
      LanczosOptions lo;
      Lanczos solver(h, lo);
      solver.solve(zero);
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    CHECK(threw);
  }

  // -- ritz_vector() rejects every slot the last solve did not fill ---------
  {
    HubbardParams p;  // 4-site chain
    p.lx = 4;
    const ScbSum h = hubbard_scb(p);
    const auto rejects = [](const Lanczos& s, std::size_t i) {
      try {
        (void)s.ritz_vector(i);
      } catch (const std::invalid_argument&) {
        return true;
      }
      return false;
    };
    LanczosOptions lo;
    lo.k = 1;
    lo.max_subspace = 12;
    Lanczos solver(h, lo);
    CHECK(rejects(solver, 0));  // no solve yet
    CHECK(solver.solve().converged);
    CHECK(!rejects(solver, 0));
    CHECK(rejects(solver, 1));   // i >= k
    CHECK(rejects(solver, 40));  // far outside the basis

    LanczosOptions nv = lo;  // vectors never recovered
    nv.compute_vectors = false;
    Lanczos novec(h, nv);
    CHECK(novec.solve().converged);
    CHECK(rejects(novec, 0));

    LanczosOptions cut = lo;  // budget ends before k vectors exist
    cut.k = 3;
    cut.max_matvecs = 1;
    Lanczos early(h, cut);
    CHECK(!early.solve().converged);
    CHECK(!rejects(early, 0));
    CHECK(rejects(early, 1));
    CHECK(rejects(early, 2));
  }

  // -- allocation probe: after a warm-up solve, a full re-solve on the same
  // object performs ZERO heap allocations (basis, projection, workspace and
  // result storage are all preallocated; the operator's kernel cache is
  // warm) -----------------------------------------------------------------
  {
    HubbardParams p;
    p.lx = 5;
    p.u = 3.0;
    p.mu = 0.2;
    p.spinful = true;  // n = 10
    const ScbSum h = hubbard_scb(p);
    LanczosOptions lo;
    lo.k = 2;
    lo.tol = 1e-10;
    Lanczos solver(h, lo);
    solver.solve();  // warm-up: kernel cache, thread pool, workspaces
    const long before = gecos::test::allocations();
    const LanczosResult& r = solver.solve();
    const long delta = gecos::test::allocations() - before;
    CHECK(r.converged);
#if GECOS_ALLOC_PROBE_ACTIVE
    std::printf("alloc probe: %ld allocations during warm re-solve\n", delta);
    CHECK_EQ(delta, 0);
#else
    (void)delta;
#endif
  }

  return gecos::test::finish("test_lanczos");
}

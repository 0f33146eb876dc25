// Analytic-spectrum suite for the dense Hermitian eigensolver (eigh) and
// the small symmetric/tridiagonal solvers behind the Krylov layer.
//
// eigh was previously exercised only through expm_hermitian; here it meets
// closed-form spectra: single Pauli terms (half/half ±1 levels) and the
// U = 0 tight-binding chain, whose many-body spectrum is exactly the set of
// subset sums of the cosine band eps_k = -2 t cos(k pi / (L + 1)) - mu.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <vector>

#include "fermion/hubbard.hpp"
#include "linalg/blas1.hpp"
#include "linalg/expm.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sym_eig.hpp"
#include "ops/scb_sum.hpp"
#include "test_util.hpp"

using namespace gecos;

namespace {

/// Checks H V = V diag(w) and V unitary for an eigh result.
void check_eigensystem(const Matrix& h, const EigenSystem& es, double tol) {
  const std::size_t n = h.rows();
  CHECK(es.eigenvectors.is_unitary(1e-10));
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      cplx hv = 0;
      for (std::size_t k = 0; k < n; ++k)
        hv += h(i, k) * es.eigenvectors(k, j);
      CHECK_NEAR(std::abs(hv - es.eigenvalues[j] * es.eigenvectors(i, j)),
                 0.0, tol);
    }
  }
}

}  // namespace

int main() {
  // -- single Pauli terms: involutions with exactly half the spectrum at -1
  // and half at +1 ----------------------------------------------------------
  {
    const std::vector<std::vector<Scb>> words = {
        {Scb::X},
        {Scb::Z, Scb::X},
        {Scb::Y, Scb::Z, Scb::X},
    };
    for (const auto& w : words) {
      const Matrix m = ScbTerm(1.0, w, false).bare_matrix();
      const EigenSystem es = eigh(m);
      const std::size_t dim = m.rows();
      for (std::size_t i = 0; i < dim; ++i) {
        const double expect = i < dim / 2 ? -1.0 : 1.0;
        CHECK_NEAR(es.eigenvalues[i], expect, 1e-12);
      }
      check_eigensystem(m, es, 1e-11);
    }
  }

  // -- tight-binding chain (hubbard_1d at U = 0): the many-body spectrum is
  // all subset sums of the single-particle cosine band ----------------------
  {
    const std::size_t L = 6;
    HubbardParams p;
    p.lx = L;
    p.t = 1.0;
    p.u = 0.0;  // free fermions: exactly solvable
    p.mu = 0.4;
    const Matrix hd = hubbard_scb(p).to_matrix();
    const EigenSystem es = eigh(hd);

    std::vector<double> eps(L);
    for (std::size_t k = 1; k <= L; ++k)
      eps[k - 1] = -2.0 * p.t *
                       std::cos(static_cast<double>(k) * M_PI /
                                (static_cast<double>(L) + 1.0)) -
                   p.mu;
    std::vector<double> expect;
    expect.reserve(std::size_t{1} << L);
    for (std::size_t mask = 0; mask < (std::size_t{1} << L); ++mask) {
      double s = 0;
      for (std::size_t k = 0; k < L; ++k)
        if (mask & (std::size_t{1} << k)) s += eps[k];
      expect.push_back(s);
    }
    std::sort(expect.begin(), expect.end());

    double worst = 0;
    for (std::size_t i = 0; i < expect.size(); ++i)
      worst = std::max(worst, std::abs(es.eigenvalues[i] - expect[i]));
    std::printf("tight-binding L=%zu: worst |eigh - subset-sum| = %.3e\n", L,
                worst);
    CHECK_NEAR(worst, 0.0, 1e-10);
    check_eigensystem(hd, es, 1e-9);
  }

  // -- small symmetric/tridiagonal solvers vs eigh on the same matrices -----
  {
    std::mt19937 rng(17);
    std::normal_distribution<double> g;
    SymEigWorkspace ws;
    for (const std::size_t m : {1ul, 2ul, 7ul, 24ul}) {
      // Random symmetric dense, embedded as a real Hermitian Matrix for the
      // eigh reference.
      std::vector<double> a(m * m);
      Matrix ref(m, m);
      for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j <= i; ++j) {
          const double v = g(rng);
          a[i * m + j] = a[j * m + i] = v;
          ref(i, j) = ref(j, i) = cplx(v);
        }
      const EigenSystem es = eigh(ref);
      eigh_sym(a, m, ws);
      for (std::size_t i = 0; i < m; ++i)
        CHECK_NEAR(ws.d[i], es.eigenvalues[i], 1e-11);

      // Random tridiagonal: eigh_tridiag against eigh_sym of its dense
      // embedding, plus the exp(z T) e1 helper against dense expm.
      std::vector<double> alpha(m), beta(m > 0 ? m - 1 : 0);
      for (auto& x : alpha) x = g(rng);
      for (auto& x : beta) x = g(rng);
      std::vector<double> dense(m * m, 0.0);
      for (std::size_t i = 0; i < m; ++i) dense[i * m + i] = alpha[i];
      for (std::size_t i = 0; i + 1 < m; ++i)
        dense[i * m + i + 1] = dense[(i + 1) * m + i] = beta[i];
      eigh_sym(dense, m, ws);
      std::vector<double> want(ws.d.begin(),
                               ws.d.begin() + static_cast<std::ptrdiff_t>(m));
      eigh_tridiag(alpha, beta, m, ws);
      for (std::size_t i = 0; i < m; ++i) CHECK_NEAR(ws.d[i], want[i], 1e-11);
      // Eigenvectors: T z = d z columnwise.
      for (std::size_t j = 0; j < m; ++j)
        for (std::size_t i = 0; i < m; ++i) {
          double tv = alpha[i] * ws.z[i * m + j];
          if (i > 0) tv += beta[i - 1] * ws.z[(i - 1) * m + j];
          if (i + 1 < m) tv += beta[i] * ws.z[(i + 1) * m + j];
          CHECK_NEAR(tv, ws.d[j] * ws.z[i * m + j], 1e-11);
        }

      const cplx z(0.2, -0.7);
      std::vector<cplx> out(m);
      expm_tridiag_e1(alpha, beta, m, z, out, ws);
      Matrix tz(m, m);
      for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < m; ++j)
          tz(i, j) = z * dense[i * m + j];
      const Matrix ez = expm(tz);
      for (std::size_t i = 0; i < m; ++i)
        CHECK_NEAR(std::abs(out[i] - ez(i, 0)), 0.0, 1e-12);
    }
  }

  return gecos::test::finish("test_eigh");
}

// StateVector layer and the unified LinearOperator interface: construction,
// norms and inner products, expectation values against dense quadratic
// forms, in-place apply through the scratch path, and interface conformance
// of the concrete operators (PauliSum, ScbSum, TermKernel).
#include <random>
#include <vector>

#include "linalg/blas1.hpp"
#include "ops/pauli.hpp"
#include "ops/scb_sum.hpp"
#include "ops/term.hpp"
#include "state/state_vector.hpp"
#include "test_util.hpp"

using namespace gecos;

namespace {

/// Random ScbSum of `terms` Hermitian pairs on n qubits.
ScbSum random_hermitian_sum(std::size_t n, int terms, std::mt19937& rng) {
  std::uniform_real_distribution<double> cd(-1.0, 1.0);
  ScbSum s(n);
  for (int j = 0; j < terms; ++j) {
    std::vector<Scb> ops(n);
    for (auto& o : ops) o = kAllScb[rng() % kAllScb.size()];
    s.add(ScbTerm(cplx(cd(rng), cd(rng)), ops, true));
  }
  return s;
}

/// <x|M|x> via the dense matrix (ground truth).
cplx dense_expectation(const Matrix& m, std::span<const cplx> x) {
  return vec_dot(x, m.apply(x));
}

}  // namespace

int main() {
  std::mt19937 rng(99);

  // Constructors: default |0..0>, basis index, product bitmask, random.
  {
    StateVector zero(3);
    CHECK_EQ(zero.dim(), std::size_t{8});
    CHECK_NEAR(zero[0] - cplx(1.0), 0.0, 0.0);
    CHECK_NEAR(zero.norm(), 1.0, 0.0);

    const StateVector b = StateVector::basis(3, 5);
    CHECK_NEAR(b[5] - cplx(1.0), 0.0, 0.0);
    CHECK_NEAR(b[0], 0.0, 0.0);

    const StateVector pr = StateVector::product(4, 0b1010);
    CHECK_NEAR(pr[0b1010] - cplx(1.0), 0.0, 0.0);

    const StateVector r1 = StateVector::random(5, 42);
    const StateVector r2 = StateVector::random(5, 42);
    CHECK_NEAR(r1.norm(), 1.0, 1e-12);
    CHECK_NEAR(r1.max_abs_diff(r2), 0.0, 0.0);  // seeded => reproducible

    bool threw = false;
    try {
      StateVector::basis(2, 4);
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    CHECK(threw);
  }

  // Inner products and normalization.
  {
    StateVector a = StateVector::random(4, 1);
    const StateVector b = StateVector::random(4, 2);
    CHECK_NEAR(a.inner(a) - cplx(1.0), 0.0, 1e-12);
    // Conjugate symmetry <a|b> = conj(<b|a>).
    CHECK_NEAR(a.inner(b) - std::conj(b.inner(a)), 0.0, 1e-12);
    vec_scale(a.amps(), cplx(0.0, 2.5));
    CHECK_NEAR(a.norm(), 2.5, 1e-12);
    a.normalize();
    CHECK_NEAR(a.norm(), 1.0, 1e-12);
  }

  // Expectation values against dense quadratic forms, for ScbSum and its
  // Pauli expansion (same operator, two kernels, one interface).
  for (int it = 0; it < 10; ++it) {
    const std::size_t n = 2 + it % 3;
    const ScbSum s = random_hermitian_sum(n, 4, rng);
    const PauliSum ps = s.to_pauli();
    const Matrix m = s.to_matrix();
    const StateVector x = StateVector::random(n, 1000 + it);
    const cplx es = x.expectation(s);
    const cplx ep = x.expectation(ps);
    const cplx ed = dense_expectation(m, x.amps());
    CHECK_NEAR(es - ed, 0.0, 1e-12);
    CHECK_NEAR(ep - ed, 0.0, 1e-12);
    CHECK_NEAR(es.imag(), 0.0, 1e-12);  // Hermitian => real expectation
  }

  // In-place apply through the internal scratch (x <- A x), and the
  // two-buffer overwrite apply of the base interface.
  for (int it = 0; it < 10; ++it) {
    const std::size_t n = 2 + it % 3;
    const std::size_t dim = std::size_t{1} << n;
    const ScbSum s = random_hermitian_sum(n, 3, rng);
    const Matrix m = s.to_matrix();
    StateVector x = StateVector::random(n, 2000 + it);
    const std::vector<cplx> expect = m.apply(x.amps());
    x.apply(s);
    CHECK_NEAR(vec_max_abs_diff(x.amps(), expect), 0.0, 1e-12);

    // Overwrite semantics: y's prior garbage must not leak into the result.
    std::vector<cplx> y(dim, cplx(7.0, -3.0));
    const StateVector x2 = StateVector::random(n, 3000 + it);
    static_cast<const LinearOperator&>(s).apply(x2.amps(), y);
    CHECK_NEAR(vec_max_abs_diff(y, m.apply(x2.amps())), 0.0, 1e-12);
  }

  // TermKernel conformance: bare product against its dense matrix.
  {
    const ScbTerm t = ScbTerm::parse("n s+ X m s", cplx(0.4, -1.1), false);
    const TermKernel k(t);
    CHECK_EQ(k.n_qubits(), std::size_t{5});
    const StateVector x = StateVector::random(5, 7);
    std::vector<cplx> y(x.dim());
    k.apply(x.amps(), y);
    CHECK_NEAR(vec_max_abs_diff(y, t.bare_matrix().apply(x.amps())), 0.0,
               1e-12);
  }

  // apply_inplace: the sanctioned in-place path matches the two-buffer one.
  {
    const ScbSum s = random_hermitian_sum(3, 4, rng);
    const StateVector x0 = StateVector::random(3, 31);
    std::vector<cplx> a(x0.amps().begin(), x0.amps().end());
    std::vector<cplx> scratch(a.size());
    s.apply_inplace(a, scratch);
    std::vector<cplx> b(a.size());
    s.apply(x0.amps(), b);
    CHECK_NEAR(vec_max_abs_diff(a, b), 0.0, 0.0);
  }

  return gecos::test::finish("test_state");
}

// ScbSum container semantics: merging/cancellation on add, distributive
// Cayley-closed products (term count <= T1*T2, matrix agreement with dense),
// adjoint/hermiticity, Pauli expansion round-trip and matrix-free apply.
#include "linalg/blas1.hpp"
#include "ops/scb_sum.hpp"

#include <random>

#include "ops/conversion.hpp"
#include "test_util.hpp"

using namespace gecos;

namespace {

ScbSum random_sum(std::size_t n, std::size_t terms, std::mt19937& rng) {
  std::uniform_int_distribution<int> d(0, 7);
  std::uniform_real_distribution<double> c(-1.0, 1.0);
  ScbSum s(n);
  for (std::size_t t = 0; t < terms; ++t) {
    std::vector<Scb> word(n);
    for (auto& o : word) o = kAllScb[static_cast<std::size_t>(d(rng))];
    s.add(word, cplx(c(rng), c(rng)));
  }
  return s;
}

}  // namespace

int main() {
  std::mt19937 rng(7);

  // add merges like words and erases on cancellation.
  {
    ScbSum s(2);
    s.add({Scb::N, Scb::Z}, 0.5);
    s.add({Scb::N, Scb::Z}, 0.25);
    CHECK_EQ(s.size(), std::size_t{1});
    CHECK_NEAR(s.coeff_of({Scb::N, Scb::Z}) - cplx(0.75), 0.0, 1e-15);
    s.add({Scb::N, Scb::Z}, -0.75);
    CHECK(s.empty());
  }

  // add(ScbTerm) includes the h.c. part.
  {
    ScbSum s(2);
    s.add(ScbTerm(cplx(0.0, 2.0), {Scb::Sm, Scb::Z}, true));
    CHECK_EQ(s.size(), std::size_t{2});
    CHECK_NEAR(s.coeff_of({Scb::Sp, Scb::Z}) - cplx(0.0, -2.0), 0.0, 1e-15);
    CHECK(s.is_hermitian());
  }

  // Product: at most T1*T2 terms and dense-matrix agreement.
  for (int it = 0; it < 40; ++it) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng() % 4);
    const ScbSum a = random_sum(n, 1 + rng() % 4, rng);
    const ScbSum b = random_sum(n, 1 + rng() % 4, rng);
    const ScbSum ab = a * b;
    CHECK(ab.size() <= a.size() * b.size());
    CHECK_NEAR(ab.to_matrix().max_abs_diff(a.to_matrix() * b.to_matrix()), 0.0,
               1e-12);
    const ScbSum sum = a + b, diff = a - b;
    CHECK_NEAR(sum.to_matrix().max_abs_diff(a.to_matrix() + b.to_matrix()), 0.0,
               1e-13);
    CHECK_NEAR(diff.to_matrix().max_abs_diff(a.to_matrix() - b.to_matrix()),
               0.0, 1e-13);
    CHECK_NEAR(a.adjoint().to_matrix().max_abs_diff(a.to_matrix().dagger()),
               0.0, 1e-13);
    CHECK_NEAR(a.commutator(b).to_matrix().max_abs_diff(
                   a.to_matrix() * b.to_matrix() - b.to_matrix() * a.to_matrix()),
               0.0, 1e-12);
  }

  // H = A + A† is Hermitian both by the predicate and by gathering.
  for (int it = 0; it < 20; ++it) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng() % 4);
    const ScbSum a = random_sum(n, 3, rng);
    const ScbSum h = a + a.adjoint();
    CHECK(h.is_hermitian());
    const std::vector<ScbTerm> gathered = h.hermitian_terms();
    CHECK_NEAR(terms_matrix(gathered, n).max_abs_diff(h.to_matrix()), 0.0,
               1e-12);
  }

  // to_pauli matches the dense matrix; apply matches dense matvec.
  for (int it = 0; it < 20; ++it) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng() % 4);
    const ScbSum a = random_sum(n, 4, rng);
    CHECK_NEAR(a.to_pauli().to_matrix().max_abs_diff(a.to_matrix()), 0.0,
               1e-12);
    const std::size_t dim = std::size_t{1} << n;
    const std::vector<cplx> x = random_state(dim, rng);
    std::vector<cplx> y(dim, cplx(0.0));
    a.apply(x, y);
    CHECK_NEAR(vec_max_abs_diff(y, a.to_matrix().apply(x)), 0.0, 1e-12);
  }

  // one_norm and scalar scaling.
  {
    ScbSum s(1);
    s.add({Scb::X}, cplx(3.0, 4.0));
    s.add({Scb::N}, -2.0);
    CHECK_NEAR(s.one_norm(), 7.0, 1e-15);
    CHECK_NEAR((s * cplx(2.0)).one_norm(), 14.0, 1e-15);
    CHECK_NEAR((cplx(0.5) * s).one_norm(), 3.5, 1e-15);
  }

  // prune drops sub-tolerance terms.
  {
    ScbSum s(1);
    s.add({Scb::Z}, 1e-15, 0.0);  // tol 0 keeps it
    CHECK_EQ(s.size(), std::size_t{1});
    s.prune(1e-12);
    CHECK(s.empty());
  }

  return gecos::test::finish("test_scb_sum");
}

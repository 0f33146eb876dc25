// Pauli sums: ScbSums whose words hold only I, X, Y and Z (the Pauli
// expansion's form). Their algebra up to 96 qubits (squares, adjoint of a
// product), dense agreement of products and of the matrix-free apply,
// self-add doubling and the mixed-qubit-count errors.
#include "linalg/blas1.hpp"
#include "ops/scb_sum.hpp"

#include <algorithm>
#include <array>
#include <random>
#include <stdexcept>

#include "test_util.hpp"

using namespace gecos;

namespace {

/// Sum of `terms` uniformly random words over {I, X, Y, Z} (duplicates
/// merge); real coefficients when `real`, else complex.
ScbSum random_pauli_sum(std::size_t n, std::size_t terms, bool real,
                        std::mt19937& rng) {
  static const std::array<Scb, 4> paulis = {Scb::I, Scb::X, Scb::Y, Scb::Z};
  std::uniform_real_distribution<double> c(-1.0, 1.0);
  ScbSum s(n);
  for (std::size_t t = 0; t < terms; ++t) {
    std::vector<Scb> word(n);
    for (auto& o : word) o = paulis[rng() % 4];
    const double re = c(rng);
    s.add(word, real ? cplx(re) : cplx(re, c(rng)));
  }
  return s;
}

/// Largest coefficient difference over the words of either sum.
double max_coeff_diff(const ScbSum& a, const ScbSum& b) {
  double d = 0;
  for (const auto& [w, c] : a.terms())
    d = std::max(d, std::abs(c - b.coeff_of(w)));
  for (const auto& [w, c] : b.terms())
    d = std::max(d, std::abs(c - a.coeff_of(w)));
  return d;
}

/// Sum of |c|^2 over the stored coefficients.
double coeff_norm2(const ScbSum& s) {
  double n2 = 0;
  for (const auto& [w, c] : s.terms()) n2 += std::norm(c);
  return n2;
}

}  // namespace

int main() {
  std::mt19937 rng(7);

  // The square of a real combination is Hermitian with identity
  // coefficient sum c^2 (every word squares to I; distinct words either
  // anticommute and cancel or multiply to a non-identity word).
  for (std::size_t n : {std::size_t{6}, std::size_t{96}}) {
    const ScbSum a = random_pauli_sum(n, 30, true, rng);
    const ScbSum sq = a * a;
    CHECK(sq.is_hermitian(1e-10));
    CHECK_NEAR(sq.coeff_of(std::vector<Scb>(n, Scb::I)) - cplx(coeff_norm2(a)),
               0.0, 1e-10);
  }

  // Above 64 qubits the product still obeys (AB)† = B†A†.
  {
    const std::size_t n = 96;
    const ScbSum a = random_pauli_sum(n, 40, false, rng);
    const ScbSum b = random_pauli_sum(n, 25, false, rng);
    const ScbSum ab = a * b;
    CHECK(!ab.empty());
    CHECK_EQ(ab.num_qubits(), n);
    CHECK_NEAR(max_coeff_diff(ab.adjoint(), b.adjoint() * a.adjoint()), 0.0,
               1e-12);
  }

  // Against dense: the product (Pauli phases such as
  // XY = iZ) and the matrix-free apply / apply_add.
  for (int it = 0; it < 20; ++it) {
    const std::size_t n = 2 + static_cast<std::size_t>(it % 4);
    const std::size_t dim = std::size_t{1} << n;
    const ScbSum a = random_pauli_sum(n, 12, false, rng);
    const ScbSum b = random_pauli_sum(n, 12, false, rng);
    CHECK_NEAR((a * b).to_matrix().max_abs_diff(a.to_matrix() * b.to_matrix()),
               0.0, 1e-12);

    const std::vector<cplx> x = random_state(dim, rng);
    std::vector<cplx> y(dim, cplx(0.0));
    a.apply(x, y);
    const std::vector<cplx> expect = a.to_matrix().apply(x);
    CHECK_NEAR(vec_max_abs_diff(y, expect), 0.0, 1e-12);

    // apply_add accumulates: a second call doubles the result.
    a.apply_add(x, y);
    for (auto& v : y) v *= 0.5;
    CHECK_NEAR(vec_max_abs_diff(y, expect), 0.0, 1e-12);
  }

  // Mixed qubit counts are a runtime error (not UB) even in Release builds,
  // and a default-constructed (zero-operator) sum applies as a no-op.
  {
    ScbSum a(3), b(4);
    a.add({Scb::X, Scb::Y, Scb::Z}, 1.0);
    b.add({Scb::Z, Scb::Z, Scb::I, Scb::I}, 1.0);
    const auto throws = [](const auto& f) {
      try {
        f();
      } catch (const std::invalid_argument&) {
        return true;
      }
      return false;
    };
    CHECK(throws([&] { a.add({Scb::X, Scb::X}, 1.0); }));
    CHECK(throws([&] { (void)(a * b); }));
    std::vector<cplx> x(4), y(4);
    CHECK(throws([&] { a.apply(x, y); }));  // dim 4 != 2^3

    const ScbSum zero;
    std::vector<cplx> xz(8, cplx(1.0)), yz(8, cplx(0.5));
    zero.apply_add(xz, yz);
    CHECK_NEAR(yz[0] - cplx(0.5), 0.0, 0.0);
  }

  // Adding a sum to itself doubles every coefficient; a term stored below
  // the add tolerance stays below it when doubled and is dropped (not
  // walked after its erase).
  {
    const ScbSum a = random_pauli_sum(10, 300, false, rng);
    ScbSum d = a;
    d.add(d);
    CHECK_EQ(d.size(), a.size());
    CHECK_NEAR(max_coeff_diff(d, a * cplx(2.0)), 0.0, 0.0);

    ScbSum tiny(1);
    tiny.add({Scb::X}, 1.0);
    tiny.add({Scb::Z}, 1e-15, 0.0);  // kept at tol 0
    tiny.add(tiny);                  // 2e-15 <= the default 1e-14
    CHECK_EQ(tiny.size(), std::size_t{1});
    CHECK_NEAR(tiny.coeff_of({Scb::X}) - cplx(2.0), 0.0, 0.0);
  }

  return gecos::test::finish("test_pauli_sum");
}

// SCB -> Pauli conversion: the expansion is an ScbSum over {I, X, Y, Z}
// words, has exactly pauli_expansion_count words for bare products, and
// reproduces the dense Hamiltonian on small systems, across terms too.
#include "ops/conversion.hpp"

#include <random>
#include <stdexcept>

#include "test_util.hpp"

using namespace gecos;

namespace {

ScbTerm random_term(std::size_t n, std::mt19937& rng, bool add_hc) {
  std::uniform_int_distribution<int> d(0, 7);
  std::uniform_real_distribution<double> c(-1.0, 1.0);
  std::vector<Scb> ops(n);
  for (auto& o : ops) o = kAllScb[static_cast<std::size_t>(d(rng))];
  return ScbTerm(cplx(c(rng), c(rng)), std::move(ops), add_hc);
}

bool pauli_words_only(const ScbSum& s) {
  for (const auto& [word, c] : s.terms())
    for (Scb op : word)
      if (op != Scb::I && !scb_is_pauli(op)) return false;
  return true;
}

}  // namespace

int main() {
  std::mt19937 rng(42);

  // Bare products: the expansion has exactly 2^k words, all over
  // {I, X, Y, Z}.
  for (int it = 0; it < 200; ++it) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng() % 12);
    const ScbTerm t = random_term(n, rng, false);
    const ScbSum s = term_to_pauli(t);
    CHECK_EQ(s.size(), pauli_expansion_count(t));
    CHECK_EQ(s.num_qubits(), n);
    CHECK(pauli_words_only(s));
  }

  // Dense verification on small systems, including the h.c. part.
  for (int it = 0; it < 30; ++it) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng() % 5);
    const ScbTerm t = random_term(n, rng, it % 2 == 0);
    const Matrix expect = t.hamiltonian_matrix();
    CHECK_NEAR(term_to_pauli(t).to_matrix().max_abs_diff(expect), 0.0, 1e-12);
  }

  // Multi-term expansion with cross-term cancellation: n + m = I means
  // terms_to_pauli({n, m}) collapses to the identity word.
  {
    const ScbTerm tn(1.0, {Scb::N, Scb::I}, false);
    const ScbTerm tm(1.0, {Scb::M, Scb::I}, false);
    const ScbSum s = terms_to_pauli({tn, tm});
    CHECK_EQ(s.size(), std::size_t{1});
    CHECK_NEAR(s.coeff_of({Scb::I, Scb::I}) - cplx(1.0), 0.0, 1e-15);
  }
  for (int it = 0; it < 30; ++it) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng() % 5);
    std::vector<ScbTerm> terms;
    for (int j = 0; j < 4; ++j) terms.push_back(random_term(n, rng, j % 2 == 0));
    const ScbSum s = terms_to_pauli(terms);
    CHECK(pauli_words_only(s));
    CHECK_NEAR(s.to_matrix().max_abs_diff(terms_matrix(terms, n)), 0.0, 1e-12);
  }

  // An unexpandable term (2^63 words) is a clean error, not shift UB.
  {
    bool threw = false;
    try {
      (void)term_to_pauli(ScbTerm(1.0, std::vector<Scb>(63, Scb::N), false));
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    CHECK(threw);
  }

  // The sigma^dagger sigma ladder: s+ on one qubit expands to (X - iY)/2.
  {
    const ScbSum s = term_to_pauli(ScbTerm(1.0, {Scb::Sp}, false));
    CHECK_EQ(s.size(), std::size_t{2});
    CHECK_NEAR(s.coeff_of({Scb::X}) - cplx(0.5), 0.0, 1e-15);
    CHECK_NEAR(s.coeff_of({Scb::Y}) - cplx(0.0, -0.5), 0.0, 1e-15);
  }

  // gather_hermitian pairs conjugate products and preserves the matrix.
  for (int it = 0; it < 20; ++it) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng() % 4);
    std::vector<ScbTerm> bare;
    for (int j = 0; j < 3; ++j) {
      const ScbTerm t = random_term(n, rng, false);
      bare.push_back(t);
      bare.push_back(t.adjoint());
    }
    const std::vector<ScbTerm> gathered = gather_hermitian(bare);
    Matrix expect(std::size_t{1} << n, std::size_t{1} << n);
    for (const ScbTerm& t : bare) expect += t.bare_matrix();
    CHECK_NEAR(terms_matrix(gathered, n).max_abs_diff(expect), 0.0, 1e-12);
  }

  return gecos::test::finish("test_conversion");
}

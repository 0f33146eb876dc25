// Hamiltonian builders: Hubbard hermiticity, particle-number commutation
// (symbolically at the CAR level and in the Pauli canonical basis),
// SCB-vs-Pauli matrix equality up to n = 10, matrix-free SCB-vs-Pauli
// agreement at n = 18, and the paper's scaling pin: the SCB representation
// stays one term per fermionic word while the Pauli expansion pays 2^k per
// term (k = projector/transition factor count).
#include "linalg/blas1.hpp"
#include "fermion/hubbard.hpp"

#include <random>

#include "ops/conversion.hpp"
#include "test_util.hpp"

using namespace gecos;

int main() {
  std::mt19937 rng(13);

  // Mode layout: spin fastest, then x, then y.
  {
    HubbardParams p;
    p.lx = 3;
    p.ly = 2;
    p.spinful = true;
    CHECK_EQ(hubbard_num_sites(p), std::size_t{6});
    CHECK_EQ(hubbard_num_modes(p), std::size_t{12});
    CHECK_EQ(hubbard_mode(p, 0, 0, 0), std::uint32_t{0});
    CHECK_EQ(hubbard_mode(p, 0, 0, 1), std::uint32_t{1});
    CHECK_EQ(hubbard_mode(p, 1, 0, 0), std::uint32_t{2});
    CHECK_EQ(hubbard_mode(p, 0, 1, 0), std::uint32_t{6});
  }

  // Hermiticity: fermionic predicate, SCB predicate, and dense check, for a
  // grid of small lattices (1D/2D, open/periodic, spinless/spinful).
  for (const bool spinful : {false, true})
    for (const bool periodic : {false, true})
      for (const std::size_t ly : {std::size_t{1}, std::size_t{2}}) {
        HubbardParams p;
        p.lx = 3;
        p.ly = ly;
        p.t = 1.0;
        p.u = 2.5;
        p.mu = 0.7;
        p.periodic_x = periodic;
        p.periodic_y = periodic;
        p.spinful = spinful;
        const FermionSum h = hubbard_hamiltonian(p);
        CHECK(h.is_hermitian());
        const ScbSum scb = hubbard_scb(p);
        CHECK(scb.is_hermitian());
        if (hubbard_num_modes(p) <= 8)
          CHECK(scb.to_matrix().is_hermitian(1e-12));
        // Particle-number symmetry, fully symbolically: the CAR rewriting of
        // [H, N] leaves no term, and independently the JW/SCB commutator
        // vanishes in the Pauli canonical basis.
        const FermionSum num = total_number(hubbard_num_modes(p));
        CHECK(normal_order(h * num - num * h).empty());
        CHECK(scb.commutator(jw_sum(num, hubbard_num_modes(p))).to_pauli()
                  .empty());
      }

  // SCB-vs-Pauli matrix equality at n = 10 (1D periodic chain) and for a
  // spinful 2x2 plaquette (8 modes).
  {
    HubbardParams p;
    p.lx = 10;
    p.t = 1.0;
    p.u = 4.0;
    p.mu = 0.5;
    p.periodic_x = true;
    const ScbSum scb = hubbard_scb(p);
    CHECK_NEAR(scb.to_pauli().to_matrix().max_abs_diff(scb.to_matrix()), 0.0,
               1e-11);

    HubbardParams q;
    q.lx = 2;
    q.ly = 2;
    q.spinful = true;
    q.u = 3.0;
    q.mu = 0.25;
    const ScbSum scbq = hubbard_scb(q);
    CHECK_NEAR(scbq.to_pauli().to_matrix().max_abs_diff(scbq.to_matrix()),
               0.0, 1e-12);
  }

  // Matrix-free SCB-vs-Pauli cross-validation at n = 18: apply both
  // representations of the same Hamiltonian to a random state.
  {
    HubbardParams p;
    p.lx = 18;
    p.t = 1.0;
    p.u = 2.0;
    p.mu = 0.3;
    p.periodic_x = true;
    const ScbSum scb = hubbard_scb(p);
    const ScbSum pauli = scb.to_pauli();
    const std::size_t dim = std::size_t{1} << 18;
    const std::vector<cplx> x = random_state(dim, rng);
    std::vector<cplx> ys(dim, cplx(0.0)), yp(dim, cplx(0.0));
    scb.apply(x, ys);
    pauli.apply(x, yp);
    CHECK_NEAR(vec_max_abs_diff(ys, yp), 0.0, 1e-11);
  }

  // Scaling pin (paper Section II-B1 vs III): a product of k number
  // operators is ONE SCB term for every k, while its Pauli expansion has
  // exactly 2^k strings — the SCB side is constant in k, the Pauli side
  // exponential. Counted analytically for k <= 20, by expansion for k <= 12.
  for (std::size_t k = 2; k <= 20; ++k) {
    std::vector<LadderOp> word;
    for (std::uint32_t m = 0; m < k; ++m) {
      word.push_back({m, true});
      word.push_back({m, false});
    }
    FermionSum density;
    density.add(FermionProduct(1.0, word));
    const ScbSum scb = jw_sum(density, k);
    CHECK_EQ(scb.size(), std::size_t{1});
    const ScbTerm t = scb.bare_terms()[0];
    CHECK_EQ(pauli_expansion_count(t), std::size_t{1} << k);
    if (k <= 12) CHECK_EQ(term_to_pauli(t).size(), std::size_t{1} << k);
  }

  // Molecular-like generator: Hermitian by construction (fermionic, SCB and
  // dense), deterministic under the seed, and SCB size bounded by the
  // fermionic word count while the Pauli expansion is strictly larger.
  {
    const FermionSum mol = random_two_body(5, 4, 6, 99);
    CHECK(mol.is_hermitian());
    const ScbSum scb = jw_sum(mol, 5);
    CHECK(scb.is_hermitian());
    CHECK(scb.to_matrix().is_hermitian(1e-12));
    CHECK(scb.size() <= mol.size());
    CHECK_NEAR(scb.to_pauli().to_matrix().max_abs_diff(scb.to_matrix()), 0.0,
               1e-12);
    const FermionSum again = random_two_body(5, 4, 6, 99);
    CHECK_EQ(again.str(), mol.str());
    const FermionSum other = random_two_body(5, 4, 6, 100);
    CHECK(other.str() != mol.str());

    const ScbSum big = jw_sum(random_two_body(20, 20, 40, 7), 20);
    std::size_t pauli_strings = 0;
    for (const ScbTerm& t : big.bare_terms())
      pauli_strings += pauli_expansion_count(t);
    CHECK(big.size() < pauli_strings);  // 4x / 16x per one-/two-body word
  }

  return gecos::test::finish("test_hubbard");
}

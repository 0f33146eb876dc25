#include "ops/conversion.hpp"

#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <utility>

namespace gecos {

namespace {

// The two Pauli summands of a branching factor:
//
//   n  = (I - Z)/2      m  = (I + Z)/2
//   s  = (X + iY)/2     s+ = (X - iY)/2
std::array<std::pair<Scb, cplx>, 2> pauli_summands(Scb op) {
  const cplx half(0.5), ihalf(0.0, 0.5);
  switch (op) {
    case Scb::N: return {{{Scb::I, half}, {Scb::Z, -half}}};
    case Scb::M: return {{{Scb::I, half}, {Scb::Z, half}}};
    case Scb::Sm: return {{{Scb::X, half}, {Scb::Y, ihalf}}};
    default: return {{{Scb::X, half}, {Scb::Y, -ihalf}}};  // Scb::Sp
  }
}

// Adds the 2^k Pauli words of coeff * word to out, k = the number of n, m,
// s and s+ factors: bit j of the branch counter g picks the summand of
// branching factor j. Every summand coefficient is 1/2 times a unit
// {+-1, +-i}, so each word's coefficient is exact.
void add_expansion(const std::vector<Scb>& word, cplx coeff, ScbSum& out) {
  std::vector<std::size_t> branching;
  for (std::size_t q = 0; q < word.size(); ++q)
    if (scb_is_projector(word[q]) || scb_is_transition(word[q]))
      branching.push_back(q);
  const std::size_t k = branching.size();
  // Not an assert: 1 << k with k >= 64 is UB in Release builds, and a 2^63
  // word expansion could never fit in memory anyway.
  if (k >= 63)
    throw std::invalid_argument(
        "term_to_pauli: too many projector/transition factors to expand");
  std::vector<Scb> pauli = word;
  for (std::uint64_t g = 0; g < (std::uint64_t{1} << k); ++g) {
    cplx c = coeff;
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t q = branching[j];
      const auto [op, factor] = pauli_summands(word[q])[(g >> j) & 1];
      pauli[q] = op;
      c *= factor;
    }
    out.add(pauli, c);
  }
}

}  // namespace

ScbSum term_to_pauli(const ScbTerm& term) { return terms_to_pauli({term}); }

ScbSum terms_to_pauli(const std::vector<ScbTerm>& terms) {
  ScbSum sum;
  for (const ScbTerm& t : terms) {
    add_expansion(t.ops(), t.coeff(), sum);
    if (t.add_hc()) {
      const ScbTerm adj = t.adjoint();
      add_expansion(adj.ops(), adj.coeff(), sum);
    }
  }
  sum.prune();
  return sum;
}

std::size_t pauli_expansion_count(const ScbTerm& term) {
  std::size_t k = 0;
  for (Scb op : term.ops())
    if (scb_is_projector(op) || scb_is_transition(op)) ++k;
  return std::size_t{1} << k;
}

std::vector<ScbTerm> gather_hermitian(const std::vector<ScbTerm>& bare,
                                      double tol) {
  // Accumulate coefficients per operator word, then pair words with their
  // adjoints.
  std::map<std::vector<Scb>, cplx> acc;
  for (const ScbTerm& t : bare) {
    if (t.add_hc())
      throw std::invalid_argument("gather_hermitian expects bare products");
    acc[t.ops()] += t.coeff();
  }
  std::vector<ScbTerm> out;
  while (!acc.empty()) {
    auto it = acc.begin();
    const std::vector<Scb> word = it->first;
    const cplx coeff = it->second;
    acc.erase(it);
    if (std::abs(coeff) <= tol) continue;

    std::vector<Scb> adj(word.size());
    for (std::size_t q = 0; q < word.size(); ++q) adj[q] = scb_adjoint(word[q]);

    if (adj == word) {
      // Hermitian product: Hermiticity of the sum requires a real coefficient.
      if (std::abs(coeff.imag()) > tol)
        throw std::invalid_argument(
            "gather_hermitian: Hermitian product with complex coefficient");
      out.emplace_back(coeff.real(), word, false);
      continue;
    }
    auto jt = acc.find(adj);
    const cplx adj_coeff = jt == acc.end() ? cplx(0.0) : jt->second;
    if (jt != acc.end()) acc.erase(jt);
    if (std::abs(adj_coeff - std::conj(coeff)) > tol)
      throw std::invalid_argument(
          "gather_hermitian: sum is not Hermitian (unpaired " +
          ScbTerm(coeff, word, false).str() + ")");
    out.emplace_back(coeff, word, true);
  }
  return out;
}

}  // namespace gecos

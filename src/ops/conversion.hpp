// Conversions between the Single Component Basis and Pauli words.
//
// term_to_pauli is the "mapping" arrow of Fig. 1 (usual strategy): each
// {n, m, sigma, sigma^dagger} factor doubles the number of Pauli words,
// which is exactly the exponential blow-up the direct strategy avoids. The
// expansion is an ScbSum whose words hold only I, X, Y and Z.
#pragma once

#include <vector>

#include "ops/scb_sum.hpp"
#include "ops/term.hpp"

namespace gecos {

/// Pauli expansion of a single ScbTerm (including its h.c. part if set).
/// Throws std::invalid_argument when a bare product has 63 or more
/// n/m/sigma/sigma^dagger factors (2^63 words).
ScbSum term_to_pauli(const ScbTerm& term);

/// Pauli expansion of a sum of terms, with cancellation across terms.
ScbSum terms_to_pauli(const std::vector<ScbTerm>& terms);

/// Number of Pauli words the bare product of `term` expands to (before any
/// cross-term cancellation): 2^k with k = #(n,m,sigma,sigma^dagger factors).
std::size_t pauli_expansion_count(const ScbTerm& term);

/// Gathers a list of *bare* products (add_hc == false) into Hermitian terms:
/// Hermitian products keep a real coefficient; conjugate pairs A, A† merge
/// into one "+ h.c." term (eq. (5) of the paper). Throws if the input sum is
/// not Hermitian.
std::vector<ScbTerm> gather_hermitian(const std::vector<ScbTerm>& bare,
                                      double tol = 1e-12);

}  // namespace gecos

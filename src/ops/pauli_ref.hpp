// Legacy map-based Pauli layer, retained verbatim as the correctness
// reference for the packed symplectic engine (ops/packed.hpp).
//
// RefPauliSum is the pre-refactor PauliSum: std::map<PauliString, cplx> with
// per-qubit Cayley-table products; ref_term_to_pauli is the pre-refactor
// recursive expansion that allocated one std::vector<Scb> per emitted string.
// The randomized agreement tests in tests/test_pauli_sum.cpp and
// tests/test_conversion.cpp compare against this implementation. Not a hot
// path: do not optimize.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "ops/pauli.hpp"
#include "ops/term.hpp"

namespace gecos {

/// Sparse combination of Pauli strings over an ordered std::map (legacy).
class RefPauliSum {
 public:
  /// Empty sum.
  RefPauliSum() = default;

  /// Accumulates coeff * string, erasing on cancellation below tol.
  void add(const PauliString& s, cplx coeff, double tol = 1e-14);
  void add(const RefPauliSum& other);

  /// Size, emptiness, and the ordered string -> coefficient view.
  std::size_t size() const { return terms_.size(); }
  bool empty() const { return terms_.empty(); }
  const std::map<PauliString, cplx>& terms() const { return terms_; }

  /// Scalar scaling and termwise sum.
  RefPauliSum operator*(cplx s) const;
  RefPauliSum operator+(const RefPauliSum& o) const;
  /// Product expands distributively with per-qubit Pauli phase tracking.
  RefPauliSum operator*(const RefPauliSum& o) const;

  /// Dense 2^n matrix (verification only).
  Matrix to_matrix(std::size_t num_qubits) const;
  /// Sum of |coeff|.
  double one_norm() const;
  /// Drops terms with |coeff| <= tol.
  void prune(double tol = 1e-12);

  /// Deterministic " + "-joined text form (map order).
  std::string str() const;

 private:
  std::map<PauliString, cplx> terms_;
};

/// Legacy recursive Pauli expansion of an ScbTerm (including h.c.).
RefPauliSum ref_term_to_pauli(const ScbTerm& term);

/// Legacy expansion of a sum of terms, with cross-term cancellation.
RefPauliSum ref_terms_to_pauli(const std::vector<ScbTerm>& terms);

}  // namespace gecos

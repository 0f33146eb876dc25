// ScbSum: a complex combination of *bare* SCB products.
//
// This is the sum-of-terms layer above ScbTerm: a Hamiltonian (or any
// operator) kept symbolically in the Single Component Basis as
// sum_t coeff_t * (C_{n-1} (x) ... (x) C_0). Because the SCB closes under
// multiplication (scb_mul, paper Table IV), the product of two sums with T1
// and T2 terms has at most T1*T2 terms — each term-pair collapses per qubit
// to a *single* term instead of branching into 2^k Pauli strings. This
// closure is what the direct composition strategy of the paper (and the
// Jordan-Wigner layer in src/fermion/jordan_wigner.hpp) builds on; see
// DESIGN.md "SCB sums and normal ordering".
//
// Terms are bare products (no "+ h.c." flag): Hermiticity is represented
// explicitly by the presence of the adjoint term. hermitian_terms() gathers
// conjugate pairs back into "+ h.c." ScbTerms for the circuit builders.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "ops/linear_op.hpp"
#include "ops/pauli.hpp"
#include "ops/scb.hpp"
#include "ops/term.hpp"

namespace gecos {

/// Shared compiled-kernel cache for ScbSum. Hoisted out of the sum itself
/// so copies of an unmutated sum share one set of compiled TermKernels
/// instead of each recompiling. The mutex
/// guards the lazy rebuild; after the rebuild the kernels are immutable, so
/// any number of threads can apply concurrently.
struct ScbKernelCache {
  std::mutex mutex;                 ///< guards the dirty-rebuild transition
  std::vector<TermKernel> kernels;  ///< one compiled kernel per term
  bool dirty = true;                ///< true until rebuilt from the terms
};

/// Sparse complex combination of bare SCB products, keyed by the operator
/// word (qubit 0 first). A default-constructed sum adopts the qubit count of
/// the first word added; all words must share it. Deterministic iteration
/// (std::map over words); sizes stay polynomial for the workloads this layer
/// targets, so no packed representation is needed.
class ScbSum : public LinearOperator {
 public:
  /// Empty sum; adopts the qubit count of the first word added.
  ScbSum();
  /// Empty sum with a fixed qubit count.
  explicit ScbSum(std::size_t num_qubits);
  /// Copies SHARE the compiled-kernel cache (the copy and the original have
  /// identical terms, so one compilation serves both until either mutates —
  /// a mutation detaches onto a fresh cache, see invalidate_kernels()).
  /// Moves steal the cache outright; the moved-from sum lazily recreates
  /// one if applied again.
  ScbSum(const ScbSum& o);
  ScbSum& operator=(const ScbSum& o);
  ScbSum(ScbSum&& o) noexcept;
  ScbSum& operator=(ScbSum&& o) noexcept;

  /// Qubit count (0 until fixed by construction or first add).
  std::size_t num_qubits() const { return num_qubits_; }
  /// LinearOperator qubit count (same as num_qubits()).
  std::size_t n_qubits() const override { return num_qubits_; }
  /// Number of live terms (words with |coeff| above the add tolerance).
  std::size_t size() const { return terms_.size(); }
  bool empty() const { return terms_.empty(); }

  /// Accumulates coeff * word; merges with an existing term for the same
  /// word and erases it when the merged coefficient cancels below tol.
  /// O(n log size). Throws on a qubit-count mismatch.
  void add(const std::vector<Scb>& word, cplx coeff, double tol = 1e-14);
  /// Adds a bare ScbTerm (its h.c. part too when add_hc is set).
  void add(const ScbTerm& term, double tol = 1e-14);
  /// Termwise sum: *this += o.
  void add(const ScbSum& o, double tol = 1e-14);

  /// Coefficient of a word (0 if absent). O(n log size).
  cplx coeff_of(const std::vector<Scb>& word) const;
  /// Deterministic word -> coefficient view (lexicographic in Scb order).
  const std::map<std::vector<Scb>, cplx>& terms() const { return terms_; }

  /// Termwise sum/difference and scalar scaling.
  ScbSum operator+(const ScbSum& o) const;
  ScbSum operator-(const ScbSum& o) const;
  ScbSum operator*(cplx s) const;
  /// Distributive product via the per-qubit Cayley closure: every pair of
  /// terms collapses to one term (or vanishes), so the result has at most
  /// size()*o.size() terms. O(size * o.size * n log) — no 2^k branching.
  ScbSum operator*(const ScbSum& o) const;

  /// Termwise adjoint: conj(coeff) * adjoint word (Sm <-> Sp).
  ScbSum adjoint() const;
  /// Commutator [*this, o] = *this*o - o**this (stays an ScbSum).
  ScbSum commutator(const ScbSum& o) const;
  /// True when every word's adjoint carries the conjugate coefficient.
  bool is_hermitian(double tol = 1e-12) const;

  /// Sum of |coeff| (LCU normalization of the bare-term sum).
  double one_norm() const;
  /// Drops terms with |coeff| <= tol.
  void prune(double tol = 1e-12);

  /// One bare ScbTerm (add_hc == false) per stored word.
  std::vector<ScbTerm> bare_terms() const;
  /// Gathers conjugate word pairs into "+ h.c." terms via gather_hermitian;
  /// throws if the sum is not Hermitian.
  std::vector<ScbTerm> hermitian_terms(double tol = 1e-12) const;

  /// Pauli expansion of the whole sum (2^k strings per term before
  /// cross-term cancellation) — the "usual strategy" representation this
  /// container exists to avoid.
  PauliSum to_pauli() const;
  /// Dense 2^n x 2^n matrix (verification only).
  Matrix to_matrix() const;

  /// Two-argument accumulate and overwriting apply from the base class.
  using LinearOperator::apply_add;
  /// y += scale * A x matrix-free via one TermKernel per term
  /// (x.size() == 2^n; x and y distinct buffers, asserted). The compiled
  /// kernels are cached between calls and rebuilt only after a mutation, so
  /// repeated application (the evolution loop, expectation values) does no
  /// per-call allocation; the rebuild is mutex-guarded, so concurrent
  /// apply_add/expectation on a shared *const* sum is safe (mutating
  /// concurrently with application is not, as usual).
  void apply_add(std::span<const cplx> x, std::span<cplx> y,
                 cplx scale) const override;

  /// Deterministic " + "-joined text form ("0" for the empty sum).
  std::string str() const;

 private:
  void ensure_qubits(std::size_t n);
  // Mutation hook: sole owner -> mark the cache dirty in place; shared ->
  // detach onto a fresh cache so sums still holding the old kernels keep a
  // valid compilation of THEIR terms.
  void invalidate_kernels();
  // Returns the cache, recreating it when a move left kcache_ null.
  ScbKernelCache& ensure_cache() const;

  std::size_t num_qubits_ = 0;
  std::map<std::vector<Scb>, cplx> terms_;
  // Shared compiled-kernel cache (see ScbKernelCache). Eagerly allocated by
  // the constructors and reseated by invalidate_kernels(), so on the const
  // apply path the pointer itself is stable and only the cache's own mutex
  // is needed for thread safety; null only transiently on a moved-from sum.
  // Mutable because caching never changes the observable value.
  mutable std::shared_ptr<ScbKernelCache> kcache_;
};

/// Scalar-from-the-left product s * m.
ScbSum operator*(cplx s, const ScbSum& m);

}  // namespace gecos

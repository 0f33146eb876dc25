// ScbTerm: one summand of a Hamiltonian in the Single Component Basis.
//
// A term is  coeff * (C_{n-1} (x) ... (x) C_0)  with C_q in the SCB, plus
// optionally its Hermitian conjugate ("+ h.c.", eq. (5) of the paper). This
// is the central IR of GECOS: the direct strategy exponentiates one ScbTerm
// exactly per Trotter slice (TermExp, evolve/trotter.hpp), and TermKernel
// below applies its bare product to a statevector matrix-free.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "ops/linear_op.hpp"
#include "ops/scb.hpp"

namespace gecos {

/// One summand: coeff * tensor product of SCB factors, optional "+ h.c.".
class ScbTerm {
 public:
  /// Zero-qubit placeholder (assign a parsed/constructed term over it).
  ScbTerm() = default;
  /// ops[q] acts on qubit q (qubit 0 = least significant bit). Throws on an
  /// empty list or more than 63 qubits.
  ScbTerm(cplx coeff, std::vector<Scb> ops, bool add_hc);

  /// Parses whitespace-separated operator names in *paper order* (qubit 0
  /// first), e.g. "n m m X Y s+ n s s s s+ Y Z s+ s" for the Fig. 2 term.
  static ScbTerm parse(const std::string& text, cplx coeff = 1.0,
                       bool add_hc = true);

  /// Accessors for the qubit count, coefficient, "+ h.c." flag and the
  /// per-qubit factor word.
  std::size_t num_qubits() const { return ops_.size(); }
  cplx coeff() const { return coeff_; }
  void set_coeff(cplx c) { coeff_ = c; }
  bool add_hc() const { return add_hc_; }
  Scb op(std::size_t q) const { return ops_[q]; }
  const std::vector<Scb>& ops() const { return ops_; }

  /// The term with coeff conjugated and every factor adjointed (no h.c. flag).
  ScbTerm adjoint() const;
  /// True when the bare product A is Hermitian (all factors Hermitian);
  /// together with a real coefficient the term needs no "+ h.c.".
  bool bare_is_hermitian() const;
  /// True when coeff*A (+A† if add_hc) is a Hermitian operator.
  bool is_valid_hamiltonian(double tol = 1e-14) const;

  /// coeff * kron(ops), *without* the h.c. part.
  Matrix bare_matrix() const;
  /// Full Hermitian matrix: coeff*A + conj(coeff)*A† when add_hc, else
  /// coeff*A.
  Matrix hamiltonian_matrix() const;

  // -- structure queries: which qubits hold which factor family -------------

  /// Qubits holding sigma/sigma^dagger (the transition family).
  std::vector<int> transition_qubits() const;
  /// Qubits holding n/m (the control family).
  std::vector<int> control_qubits() const;
  /// Qubits holding X/Y/Z (the Pauli family).
  std::vector<int> pauli_qubits() const;

  /// Bitmask of qubits the bare product flips in the computational basis
  /// (X, Y, sigma, sigma^dagger positions).
  std::uint64_t flip_mask() const;
  /// Bitmask of the transition qubits only.
  std::uint64_t transition_mask() const;
  /// Key |a> of the transition family: bit q is 1 where op==sigma^dagger
  /// (A = ... |a><b| ... with b = complement of a on the transition qubits).
  std::uint64_t transition_a_bits() const;
  /// Control-family key: (mask, value) with value bit 1 for n, 0 for m.
  std::pair<std::uint64_t, std::uint64_t> control_key() const;

  /// Amplitude <x ^ flip_mask| A |x> of the bare product on basis state |x>
  /// (product of per-qubit matrix entries, including coeff). Zero when the
  /// projectors/transitions do not match x. Per-qubit loop; TermKernel is the
  /// fast mask-based equivalent.
  cplx bare_amplitude(std::uint64_t x) const;

  /// y += H x matrix-free for this term's Hermitian operator (bare product
  /// plus its h.c. when add_hc), via TermKernel. x.size() must be 2^n and x
  /// and y must be distinct buffers (asserted).
  void apply_add(std::span<const cplx> x, std::span<cplx> y) const;

  /// Human-readable form "(coeff) op op ... [+ h.c.]", paper order.
  std::string str() const;

 private:
  cplx coeff_ = 1.0;
  std::vector<Scb> ops_;
  bool add_hc_ = false;
};

/// Precompiled statevector kernel of one *bare* SCB product.
///
/// Every SCB factor either flips its qubit or not and either selects a basis
/// value or not, so <y| A |x> collapses to four masks and one complex base:
/// the amplitude is base * (-1)^{pc(sign_mask & x)} on states with
/// (x & select_mask) == select_val and target y = x ^ flip, zero elsewhere.
/// apply_add() walks only the 2^(n-k) selected states (k = #projector/
/// transition factors) instead of testing all 2^n per-qubit products like
/// the legacy bare_amplitude loop, parallelized over chunks of the walk.
struct TermKernel : public LinearOperator {
  std::uint64_t flip = 0;         // X/Y/s/s+ positions (computational flips)
  std::uint64_t select_mask = 0;  // n/m/s/s+ positions (constrained inputs)
  std::uint64_t select_val = 0;   // required input bits under select_mask
  std::uint64_t sign_mask = 0;    // Y/Z positions ((-1)^{x_q} factors)
  cplx base;                      // coeff * i^{#Y}
  std::size_t num_qubits = 0;     // qubit count of the compiled term

  /// Compiles the bare product of `term` (h.c. flag ignored); O(n).
  explicit TermKernel(const ScbTerm& term);

  /// Qubit count of the compiled term.
  std::size_t n_qubits() const override { return num_qubits; }

  /// Two-argument accumulate shorthand from the base class.
  using LinearOperator::apply_add;
  /// y += scale * A x for the bare product only (no h.c.); x and y must be
  /// distinct buffers (asserted).
  void apply_add(std::span<const cplx> x, std::span<cplx> y,
                 cplx scale) const override;
};

/// Hermitian matrix of a sum of terms (for verification).
Matrix terms_matrix(const std::vector<ScbTerm>& terms, std::size_t num_qubits);

/// y += H x where H is the Hermitian sum of the given terms (matrix-free;
/// each term touches every basis state once). x and y must be distinct
/// buffers (asserted).
void apply_terms(const std::vector<ScbTerm>& terms,
                 std::span<const cplx> x, std::span<cplx> y);

/// Sum over terms of |coeff| * (1 + add_hc): an upper bound on the one-norm
/// (LCU normalization) of the Hermitian sum.
double terms_one_norm_bound(const std::vector<ScbTerm>& terms);

}  // namespace gecos

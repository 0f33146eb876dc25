// Trotter-Suzuki time evolution with exact matrix-free SCB-term exponentials.
//
// The paper's direct strategy rests on one structural fact: a Hermitian SCB
// term H_t = c A + conj(c) A† (A a bare SCB product) acts on any basis state
// either as a phase (diagonal terms) or as a 2x2 rotation coupling |s> with
// |s ^ flip| — so exp(-i t H_t) has a CLOSED FORM touching only the
// 2^(n-k) selected amplitudes (k = #projector/transition factors), no matrix
// exponential and no scratch buffer. TermExp compiles one such exponential;
// TrotterEvolver chains them into first-order and second-order (Strang)
// product-formula steps over ScbSum::hermitian_terms(). Each step is a
// sequence of in-place parallel sweeps with zero per-step allocation. See
// DESIGN.md "Exact SCB-term exponentials" for the derivation.
//
// One TermExp::apply is one sweep, on one of three paths fixed at compile
// time from the term's masks:
//
//   * contiguous runs — when the free bits below every sign, flip and
//     select bit give runs of >= 8 amplitudes, each run is one wide
//     scale (diagonal) or pair_rot (off-diagonal) kernel call;
//   * 8-amplitude blocks — an off-diagonal term with shorter runs (its
//     masks reach bits 0-2) walks aligned blocks of 8 amplitudes through
//     the simd block_rot kernel: per block pair x_A' = alpha_A x_A +
//     beta_A P x_B (and the mirror for B), P the in-block partner
//     permutation, one kernel call per parallel chunk;
//   * scalar walk — short-run diagonal terms, and off-diagonal terms on
//     states of fewer than 8 amplitudes (n <= 2), visit one selected state
//     or pair at a time.
//
// A step is diagonal-first: TrotterEvolver stable-partitions the diagonal
// terms ahead of the off-diagonal ones (a legal splitting choice; diagonal
// terms commute). With fusion on, that diagonal prefix collapses into ONE
// precomputed phase table e^{-i dt A[s]} (the angle table sums the terms'
// +-d0 contributions; the phase table is cached per dt and refilled in
// place when dt changes) applied in a single sweep, and every off-diagonal
// term is one TermExp::apply sweep in input order. The fused step is the
// same operator product as the unfused one-sweep-per-term reference. See
// DESIGN.md "Run splitting" and "Trotter fusion".
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "ops/scb_sum.hpp"
#include "ops/term.hpp"
#include "state/state_vector.hpp"

namespace gecos {

/// Compiled exact exponential exp(-i t H) of one Hermitian ScbTerm
/// H = coeff * A (+ h.c. when the term's flag is set).
class TermExp {
 public:
  /// Compiles the term; throws std::invalid_argument unless
  /// term.is_valid_hamiltonian() (the exponential of a non-Hermitian term is
  /// not unitary and has no closed form here).
  explicit TermExp(const ScbTerm& term);

  /// Qubit count of the compiled term.
  std::size_t n_qubits() const { return kernel_.num_qubits; }

  /// x <- exp(-i t H) x in place. Throws std::invalid_argument unless
  /// x.size() == 2^n_qubits(). Parallelized over chunks of the compiled
  /// walk; each amplitude is owned by exactly one chunk, so the sweep is
  /// race-free and bitwise identical for any thread count.
  void apply(double t, std::span<cplx> x) const;

  /// Modelled bytes of statevector traffic of one apply (reads + writes of
  /// the amplitudes its walk moves: whole blocks on the block path).
  double apply_bytes() const;

  /// Compiled mask kernel of the bare product (coeff folded into base).
  const TermKernel& kernel() const { return kernel_; }
  /// True when the term is diagonal (pure phase on selected states).
  bool diagonal() const { return diagonal_; }
  /// Diagonal phase angle per sign (0 for off-diagonal terms).
  double d0() const { return d0_; }

 private:
  // The sweep apply() runs (see the file comment).
  enum class Path { runs, blocks, walk };

  /// Block path: fills an 8-amplitude block plan for the rotation
  /// (c, u, v) and runs it through the simd block_rot kernel.
  void apply_blocks(double c, cplx u, cplx v, std::span<cplx> x) const;

  TermKernel kernel_;  // bare-product masks and base amplitude (coeff folded)
  bool diagonal_ = false;    // flip == 0: pure phase on selected states
  double d0_ = 0.0;          // diagonal: phase angle magnitude per sign
  cplx h0_;                  // off-diagonal: block coupling h(s) = sgn(s)*h0
  Path path_ = Path::walk;
  std::uint64_t walk_mask_ = 0;  // bits the parallel walk enumerates
  int run_bits_ = 0;             // runs path: log2 of the run length, else 0
};

/// Product-formula propagator for a Hermitian ScbSum.
class TrotterEvolver {
 public:
  /// Gathers h.hermitian_terms() (throws if the sum is not Hermitian) and
  /// compiles one TermExp per term, diagonal terms first. `fuse` folds the
  /// diagonal prefix into one phase table (see the file comment); fuse =
  /// false keeps one sweep per term — the reference the fused path is
  /// benchmarked and tested against.
  explicit TrotterEvolver(const ScbSum& h, bool fuse = true);

  /// Number of compiled term exponentials.
  std::size_t num_terms() const { return exps_.size(); }
  /// Sweeps per forward pass: the phase table (if any) plus one per term
  /// outside it (== num_terms() when fuse = false).
  std::size_t num_groups() const {
    return exps_.size() - num_fused_ + (num_fused_ > 0 ? 1 : 0);
  }
  /// Whether fusion was enabled at construction.
  bool fused() const { return fuse_; }
  /// Estimated bytes of statevector traffic per step at the given order
  /// (reads + writes of amplitudes and phase tables; the bench roofline
  /// model divides this by measured step time).
  double step_traffic_bytes(int order) const;

  /// One Trotter step x <- U(dt) x in place. order 1: prod_t exp(-i dt H_t);
  /// order 2 (Strang, the default): forward half-sweep then reverse
  /// half-sweep, error O(dt^3) per step. Throws on any other order.
  void step(std::span<cplx> x, double dt, int order = 2) const;

  /// steps equal Trotter steps of size t / steps: x <- U(dt)^steps x.
  /// Global error O(dt) for order 1, O(dt^2) for order 2. Throws
  /// std::invalid_argument on steps < 1.
  void evolve(std::span<cplx> x, double t, int steps, int order) const;

 private:
  /// Folds the diagonal prefix into the phase table when fusion is on and
  /// the table pays for itself (sets num_fused_, angle_ and phase_).
  void build_phase_table();
  /// One pass over the term sequence at step dt: the phase table, then one
  /// TermExp sweep per remaining term (in reverse order when reverse, for
  /// the Strang back-sweep).
  void sweep(double dt, std::span<cplx> x, bool reverse) const;
  /// One phase-table sweep (refills the cached phases in place when dt
  /// differs from the cached one).
  void apply_phase_table(double dt, std::span<cplx> x) const;

  std::size_t n_ = 0;
  bool fuse_ = true;
  std::vector<TermExp> exps_;
  // Leading diagonal terms folded into the phase table (0: no table).
  // angle[s] sums their signed d0 contributions; phase caches
  // e^{-i dt angle[s]} for the last dt (both sized at construction, so
  // steps never allocate). The cache is mutable because refilling it does
  // not change the evolver's value.
  std::size_t num_fused_ = 0;
  std::vector<double> angle_;
  mutable std::vector<cplx> phase_;
  mutable double phase_dt_ = 0.0;
  mutable bool phase_valid_ = false;
  // Guards the lazy per-dt phase-table refill so concurrent const steps
  // (same contract as ScbSum's kernel cache) stay safe.
  mutable std::mutex phase_mutex_;
};

}  // namespace gecos

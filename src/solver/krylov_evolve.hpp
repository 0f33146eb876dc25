// Krylov-projection time evolution: expm_multiply through LinearOperator.
//
// The Trotter engine exploits the term structure of an ScbSum; this evolver
// needs only the apply_add hot path, so it propagates ANY Hermitian
// LinearOperator — PauliSum, ScbSum, SectorOperator — with spectral
// accuracy. One step projects H onto the Krylov space K_m(H, x) and applies
// the small exponential exactly: x <- beta0 V_m exp(z T_m) e1 with
// z = -i dt. The subspace is grown one matvec at a time until the
// a-posteriori residual estimate beta_j |[exp(z T_j)]_{j,1}| meets the error
// budget; when the budget cannot be met at the subspace cap, the step is
// split in half repeatedly (each half gets half the budget, so the per-call
// total is honored). The projection is the Lanczos three-term recurrence
// plus full reorthogonalization, and the small exponential comes from the
// tridiagonal eigensolver. All large-vector work runs on the shared
// KrylovBasis / BLAS-1 kernels; nothing allocates after the first step.
// See DESIGN.md "Krylov solver layer".
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/sym_eig.hpp"
#include "ops/linear_op.hpp"
#include "state/krylov_basis.hpp"

namespace gecos {

/// Tuning knobs for KrylovEvolver.
struct KrylovOptions {
  std::size_t max_subspace = 30;  ///< Krylov dimension cap m (>= 2)
  double tol = 1e-12;             ///< per-step error budget, relative to ||x||
  double breakdown_tol = 1e-12;   ///< beta below this: invariant subspace
};

/// Statistics of one step()/apply_expm() call on a KrylovEvolver, exposed
/// through KrylovEvolver::last_step().
struct KrylovStepInfo {
  std::size_t matvecs = 0;    ///< operator applications this call
  std::size_t subspace = 0;   ///< largest Krylov dimension used
  std::size_t substeps = 0;   ///< committed substeps (1 = no splitting)
  /// Saad a-posteriori error estimate beta_j |[exp(z T_j)]_{j,1}| after
  /// every basis extension, across all substeps — the convergence
  /// trajectory of the call. Capacity is reserved at construction, so
  /// recording never allocates during a step.
  std::vector<double> residual_history;
};

/// Matrix-free exp(z H) propagator over a Krylov subspace.
class KrylovEvolver {
 public:
  /// Captures the operator by reference (it must outlive the evolver) and
  /// preallocates basis and projection storage for max_subspace vectors.
  /// Throws std::invalid_argument on max_subspace < 2 or tol <= 0.
  explicit KrylovEvolver(const LinearOperator& h, KrylovOptions opts = {});

  /// Real-time step x <- exp(-i dt H) x (adaptive subspace + splitting).
  /// One call covers any interval: the subspace cap, not dt, decides when
  /// the step splits.
  void step(std::span<cplx> x, double dt) const;

  /// General form x <- exp(z H) x: z = -i dt is the unitary step, a real
  /// z = -tau the imaginary-time filter (ThermalSampler). The error budget
  /// opts.tol is relative to the input norm. A zero vector is returned
  /// unchanged.
  void apply_expm(cplx z, std::span<cplx> x) const;

  /// Statistics of the most recent step()/apply_expm() call, including the
  /// per-extension residual-estimate trajectory.
  const KrylovStepInfo& last_step() const { return last_; }
  /// Shorthands over last_step() (kept for existing callers).
  std::size_t last_matvecs() const { return last_.matvecs; }
  std::size_t last_subspace() const { return last_.subspace; }
  std::size_t last_substeps() const { return last_.substeps; }

 private:
  /// Builds K_j(H, x) one matvec at a time until the relative error
  /// estimate meets tol_abs (converged = true; also on breakdown, where the
  /// projection is exact) or j hits the subspace cap (converged = false and
  /// the caller splits the step). Writes the exp(z T_m) e1 coefficients
  /// into coeffs_ and returns the subspace size m; x is the unnormalized
  /// input, its norm is returned through beta0.
  std::size_t build_and_solve(cplx z, std::span<const cplx> x, double tol_abs,
                              double& beta0, bool& converged) const;
  /// exp(z T_m) e1 of the currently-built projection into coeffs_; returns
  /// |coeffs_[m-1]| (the estimate factor). The basis does not depend on z,
  /// so step halving re-evaluates this without re-running matvecs.
  double solve_projection(cplx z, std::size_t m) const;

  const LinearOperator& op_;
  KrylovOptions opts_;
  std::size_t dim_ = 0;

  // Per-object scratch (step() is const but not concurrency-safe on one
  // object: concurrent callers each own an evolver). All sized at
  // construction.
  mutable KrylovBasis basis_;
  mutable std::vector<double> alpha_, beta_;  // Lanczos recurrence
  mutable std::vector<cplx> coeffs_;          // exp(z T) e1
  mutable SymEigWorkspace ws_;
  mutable double last_beta_ = 0;  // outward coupling of the built projection
  mutable KrylovStepInfo last_;   // history capacity reserved at construction
};

}  // namespace gecos

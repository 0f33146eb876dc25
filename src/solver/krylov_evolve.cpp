#include "solver/krylov_evolve.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "telemetry/trace.hpp"
#include "util/error.hpp"

namespace gecos {

namespace {

/// Subspace cap can never exceed the vector dimension (the Krylov space is
/// the whole space by then and the projection is exact).
std::size_t effective_cap(std::size_t max_subspace, std::size_t dim) {
  return std::min(max_subspace, dim);
}

/// Floating-point floor of the residual estimate beta * |[exp(z T)]_{m,1}|:
/// the small-exponential coefficient bottoms out near machine epsilon, so
/// the estimate cannot resolve below ~eps * beta. Budgets are clamped here —
/// finer step splitting cannot buy accuracy double precision does not have.
double estimate_floor(double beta) {
  return 8 * std::numeric_limits<double>::epsilon() * std::max(1.0, beta);
}

}  // namespace

KrylovEvolver::KrylovEvolver(const LinearOperator& h, KrylovOptions opts)
    : op_(h),
      opts_(opts),
      dim_(h.dim()),
      basis_(dim_, effective_cap(opts.max_subspace, dim_) + 1) {
  if (opts.max_subspace < 2)
    throw std::invalid_argument("KrylovEvolver: max_subspace must be >= 2");
  if (!(opts.tol > 0))
    throw std::invalid_argument("KrylovEvolver: tol must be positive");
  const std::size_t m = effective_cap(opts.max_subspace, dim_);
  alpha_.resize(m);
  beta_.resize(m);
  coeffs_.resize(m);
  ws_.reserve(m);
  // Residual-trajectory capacity: m extensions per substep times a generous
  // substep allowance. Pushes are capacity-guarded, so a pathological
  // splitting run truncates the history instead of allocating mid-step.
  last_.residual_history.reserve(m * 64);
}

void KrylovEvolver::step(std::span<cplx> x, double dt) const {
  apply_expm(cplx(0.0, -dt), x);
}

std::size_t KrylovEvolver::build_and_solve(cplx z, std::span<const cplx> x,
                                           double tol_abs, double& beta0,
                                           bool& converged) const {
  const std::size_t m_cap = effective_cap(opts_.max_subspace, dim_);
  beta0 = vec_norm(x);
  converged = false;
  if (beta0 == 0.0) {  // zero vector: exp(zH) 0 = 0, trivially done
    converged = true;
    return 0;
  }

  // v_0 = x / beta0.
  vec_copy(basis_.vec(0), x);
  vec_scale(basis_.vec(0), cplx(1.0 / beta0));

  std::size_t m = 0;
  for (std::size_t j = 0; j < m_cap; ++j) {
    // w lives in the next basis slot: a successful iteration normalizes it
    // into v_{j+1} in place, no copies.
    std::span<cplx> w = basis_.vec(j + 1);
    op_.apply(basis_.vec(j), w);
    ++last_.matvecs;

    if (j > 0) vec_axpy(w, cplx(-beta_[j - 1]), basis_.vec(j - 1));
    const double a = vec_dot(basis_.vec(j), w).real();
    alpha_[j] = a;
    vec_axpy(w, cplx(-a), basis_.vec(j));
    // Full reorthogonalization: one modified GS pass over the whole prefix
    // keeps the basis orthonormal to machine precision (the three-term
    // recurrence above already removed the O(1) components).
    basis_.project_out(w, j + 1, 1);
    const double b = vec_norm(w);
    m = j + 1;
    last_beta_ = b;

    // Small exponential of the projected matrix and the Saad a-posteriori
    // error estimate beta_m * |[exp(z T_m)]_{m,1}| — relative to the unit
    // starting vector v_0 (= x / beta0), so the same budget works for
    // shrinking imaginary-time norms.
    const double err = b * solve_projection(z, m);
    if (last_.residual_history.size() < last_.residual_history.capacity())
      last_.residual_history.push_back(err);

    if (b <= opts_.breakdown_tol) {
      // Invariant subspace: the projection is exact, no estimate needed.
      converged = true;
      break;
    }
    if (err <= std::max(tol_abs, estimate_floor(b))) {
      converged = true;
      break;
    }
    if (m == m_cap) break;  // cap hit: caller re-solves for a smaller step

    beta_[j] = b;
    vec_scale(w, cplx(1.0 / b));  // w becomes v_{j+1}
  }
  last_.subspace = std::max(last_.subspace, m);
  return m;
}

double KrylovEvolver::solve_projection(cplx z, std::size_t m) const {
  expm_tridiag_e1(alpha_, beta_, m, z, coeffs_, ws_);
  return std::abs(coeffs_[m - 1]);
}

void KrylovEvolver::apply_expm(cplx z, std::span<cplx> x) const {
  if (x.size() != dim_)
    throw std::invalid_argument("KrylovEvolver::apply_expm: size mismatch");
  GECOS_SPAN("krylov.apply_expm");
  last_.matvecs = 0;
  last_.subspace = 0;
  last_.substeps = 0;
  last_.residual_history.clear();  // keeps the reserved capacity
  if (z == cplx(0.0)) return;

  // Committed-fraction loop: try the whole remaining interval; every failure
  // at the subspace cap halves the trial fraction. Each substep gets an
  // error budget proportional to its length so the per-call total honors
  // opts_.tol regardless of how finely the step splits.
  double done = 0.0;
  double trial = 1.0;
  while (done < 1.0 - 1e-12) {
    double h = std::min(trial, 1.0 - done);
    double beta0 = 0;
    bool converged = false;
    const std::size_t m =
        build_and_solve(z * h, x, opts_.tol * h, beta0, converged);
    if (!converged && m > 0) {
      // Cap hit. The Krylov basis of x does not depend on z, so instead of
      // rebuilding (m_cap matvecs per attempt), halve the substep against
      // the ALREADY-BUILT projection until the estimate fits the budget
      // (proportional to the substep, clamped at the estimate's own fp
      // floor) — only the small exponential is re-evaluated.
      for (;;) {
        h /= 2;
        if (h < 1e-8)
          throw Error(ErrorKind::not_converged,
                      "KrylovEvolver: step splitting failed to converge "
                      "(operator norm too large for the subspace cap?)");
        const double err = last_beta_ * solve_projection(z * h, m);
        if (err <= std::max(opts_.tol * h, estimate_floor(last_beta_))) break;
      }
      trial = h;  // later substeps start from the fraction that worked
      converged = true;
    }
    if (m > 0) {
      // x <- beta0 * V_m exp(z h T_m) e1.
      for (std::size_t i = 0; i < m; ++i) coeffs_[i] *= beta0;
      vec_fill(x, cplx(0.0));
      basis_.accumulate(x, coeffs_, m);
    }
    done += h;
    ++last_.substeps;
  }
}

}  // namespace gecos

// Power-iteration spectral bounds for Hermitian LinearOperators.
//
// The kernel-polynomial method (src/spectral/kpm.hpp) needs the spectrum of
// H mapped into (-1, 1) before any Chebyshev recurrence runs, and the
// continued-fraction evaluator needs a sane default frequency window. Both
// come from the same place: a matrix-free power iteration through
// LinearOperator::apply_add — the operator sibling of the dense
// Matrix::norm2_est estimate. Two runs bracket the spectrum: the first
// converges on the eigenvalue of largest magnitude (the spectral radius,
// with its sign recovered from the Rayleigh quotient), the second power-
// iterates the shifted operator H - lambda_1 I, whose dominant eigenvalue is
// the point of spec(H) farthest from lambda_1 — i.e. the opposite end.
// Rayleigh quotients of a Hermitian operator always lie inside the spectrum,
// so the raw estimates are inner bounds; the returned interval is widened by
// a caller-controlled pad factor to make it an outer bracket in practice
// (KPM maps it strictly inside [-1, 1] on top of that).
#pragma once

#include <cstdint>

#include "ops/linear_op.hpp"

namespace gecos {

/// Knobs for estimate_spectral_bounds.
struct SpectralBoundsOptions {
  int iters = 50;                ///< power-iteration steps per run (>= 1)
  std::uint64_t seed = 20260808; ///< start-vector seed (reproducible)
  double pad = 0.05;             ///< fractional widening of the raw interval
};

/// Spectral bracket returned by estimate_spectral_bounds.
struct SpectralBounds {
  double e_min = 0.0;        ///< padded lower bound on spec(H)
  double e_max = 0.0;        ///< padded upper bound on spec(H)
  std::size_t matvecs = 0;   ///< operator applications spent
};

/// Estimates [E_min, E_max] of a HERMITIAN operator by two seeded power
/// iterations (H, then H - lambda_1 I), widened by opts.pad. The estimate is
/// statistical-free and deterministic for a fixed seed and thread count; a
/// pathological start vector exactly orthogonal to the extremal eigenvector
/// is measure-zero and broken by the Gaussian start. Throws
/// std::invalid_argument on iters < 1 or an operator with dim() < 2.
SpectralBounds estimate_spectral_bounds(const LinearOperator& h,
                                        SpectralBoundsOptions opts = {});

}  // namespace gecos

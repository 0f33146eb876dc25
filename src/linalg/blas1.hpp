// Shared BLAS-1 vector kernels for statevector-sized amplitude buffers.
//
// One parallel implementation of the norm/dot/axpy/scale/copy family, used
// by every layer that iterates over amplitudes: StateVector, the Trotter
// engine and the Krylov solvers in src/solver/.
// Reductions keep one partial per parallel_for chunk in a fixed-size stack
// array (chunk ids are bounded by kMaxParallelChunks) and combine them in
// chunk order, so every kernel here is allocation-free and deterministic for
// a fixed thread count. Before this header the same loops were re-derived in
// matrix.cpp and at solver call sites; new amplitude loops belong here.
#pragma once

#include <complex>
#include <random>
#include <span>
#include <vector>

namespace gecos {

/// The scalar type of the whole library (same alias as linalg/matrix.hpp).
using cplx = std::complex<double>;

/// Euclidean norm ||v||_2. Doubles as the numerical-health sweep of the
/// solver stack: throws Error{numerical_nan} when any amplitude is
/// NaN/Inf (detected for free off the reduction sum).
double vec_norm(std::span<const cplx> v);
/// Inner product <a|b>, conjugate-linear in a (sizes must match). Same
/// free NaN/Inf detection as vec_norm: throws Error{numerical_nan}.
cplx vec_dot(std::span<const cplx> a, std::span<const cplx> b);
/// Max |a_i - b_i| (sizes must match).
double vec_max_abs_diff(std::span<const cplx> a, std::span<const cplx> b);
/// v *= s in place.
void vec_scale(std::span<cplx> v, cplx s);
/// y += s * x (sizes must match).
void vec_axpy(std::span<cplx> y, cplx s, std::span<const cplx> x);
/// y = a * x + b * y in one pass (sizes must match) — the fused update of
/// the Chebyshev three-term recurrence t_{k+1} = 2 H t_k - t_{k-1} used by
/// the kernel-polynomial layer (src/spectral/kpm.hpp): the shift-and-negate
/// of the previous vector and the scaled current vector land in a single
/// sweep instead of a scale followed by an axpy.
void vec_axpby(std::span<cplx> y, cplx a, std::span<const cplx> x, cplx b);
/// dst = src elementwise (sizes must match, buffers must not overlap).
void vec_copy(std::span<cplx> dst, std::span<const cplx> src);
/// v = s elementwise.
void vec_fill(std::span<cplx> v, cplx s);
/// Normalized Gaussian-random statevector of the given dimension.
std::vector<cplx> random_state(std::size_t dim, std::mt19937& rng);

}  // namespace gecos

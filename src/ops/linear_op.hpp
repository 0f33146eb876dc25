// LinearOperator: the one abstraction every statevector kernel sits behind.
//
// ScbSum and TermKernel act on a 2^n-amplitude statevector,
// SectorOperator on the amplitudes of one U(1) sector; before this
// interface each carried its own ad-hoc apply signature. A LinearOperator
// exposes exactly one virtual hot path — apply_add(x, y, scale):
// y += scale * A x — and the base class derives the rest (overwriting
// apply, in-place apply with caller-owned scratch, dimension bookkeeping).
// StateVector::expectation and the Trotter evolution engine are written
// against this interface only, so every concrete operator is usable in
// every simulation workload.
//
// Aliasing precondition: x and y must be DISTINCT buffers in every
// apply/apply_add call. The kernels read x[s ^ flip]-style permuted indices
// while writing y, so in-place application through the two-buffer entry
// points would silently corrupt amplitudes; each implementation asserts
// x.data() != y.data(). Use apply_inplace when x should be overwritten — it
// routes through a scratch buffer once, instead of every caller re-deriving
// the dance.
#pragma once

#include <cassert>
#include <span>

#include "linalg/matrix.hpp"

namespace gecos {

/// Abstract linear operator on a 2^n-dimensional statevector.
class LinearOperator {
 public:
  /// Virtual destructor: operators may be deleted through base pointers.
  virtual ~LinearOperator() = default;

  /// Qubit count n of the space the operator acts on.
  virtual std::size_t n_qubits() const = 0;
  /// Statevector dimension; defaults to 2^n_qubits(). SectorOperator
  /// overrides it with its sector dimension.
  virtual std::size_t dim() const { return std::size_t{1} << n_qubits(); }

  /// y += scale * A x. The single virtual kernel every implementation
  /// provides. Precondition (asserted): x and y are distinct buffers of
  /// dim() amplitudes.
  virtual void apply_add(std::span<const cplx> x, std::span<cplx> y,
                         cplx scale) const = 0;

  /// y += A x (scale = 1). Same no-aliasing precondition as the scaled form.
  void apply_add(std::span<const cplx> x, std::span<cplx> y) const {
    apply_add(x, y, cplx(1.0));
  }

  /// y = A x: zero-fills y, then apply_add. Throws std::invalid_argument on
  /// a size mismatch; asserts x and y are distinct buffers.
  void apply(std::span<const cplx> x, std::span<cplx> y) const;

  /// x = A x via a scratch buffer (the one sanctioned way to apply in
  /// place). scratch must have x.size() amplitudes and be distinct from x;
  /// its prior contents are ignored and clobbered.
  void apply_inplace(std::span<cplx> x, std::span<cplx> scratch) const;
};

}  // namespace gecos

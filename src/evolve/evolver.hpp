// Evolver: the shared time-propagation concept of the simulation layer.
//
// Two integrator families live in this tree — the product-formula Trotter
// engine (src/evolve/trotter.hpp, exact per-term exponentials, error from
// term splitting) and the Krylov projection evolver
// (src/solver/krylov_evolve.hpp, exact in a small subspace, error from
// subspace truncation). Both advance a statevector by x <- U(dt) x, so
// quench workloads are written against this one interface and can swap
// integrators with a constructor change: pick Trotter for many small steps
// with observables along the way, Krylov for few large high-accuracy steps.
// step() is const on every implementation; internal scratch is per-object,
// so concurrent callers must each own an evolver (same rule as
// StateVector::expectation).
#pragma once

#include <span>

#include "state/state_vector.hpp"

namespace gecos {

/// Abstract propagator: advances a state by exp(-i dt H) for its Hamiltonian.
class Evolver {
 public:
  /// Evolvers are held and deleted through base pointers in
  /// integrator-agnostic workloads.
  virtual ~Evolver() = default;

  /// Qubit count n of the state the evolver advances.
  virtual std::size_t n_qubits() const = 0;

  /// One time step x <- U(dt) x in place, at the implementation's default
  /// settings (Trotter: configured product-formula order; Krylov: adaptive
  /// subspace). x.size() must be 2^n_qubits().
  virtual void step(std::span<cplx> x, double dt) const = 0;
  /// StateVector overload of step().
  void step(StateVector& x, double dt) const { step(x.amps(), dt); }

  /// `steps` equal steps of size t / steps. Implementations may override
  /// when they can do better than the plain loop (Krylov treats the step
  /// count as a hint and splits adaptively). Throws std::invalid_argument
  /// on steps < 1.
  virtual void evolve(std::span<cplx> x, double t, int steps) const;
  /// StateVector overload of evolve().
  void evolve(StateVector& x, double t, int steps) const {
    evolve(x.amps(), t, steps);
  }
};

}  // namespace gecos

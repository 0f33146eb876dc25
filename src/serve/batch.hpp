// Observable batching: one evolution pass serving many expectation jobs.
//
// An expectation job evolves a state under H and measures observables at
// every step. The evolution is the expensive part — each Krylov step costs
// tens of matvecs over the sector dimension — while every observable in
// the serve menu (ObservableKind) is DIAGONAL in the occupation basis, so
// measuring one more observable against the already-evolved state is a
// single cheap elementwise sweep, no extra matvecs. The scheduler
// therefore coalesces all queued expectation jobs sharing an
// evolution_key() into ONE pass through run_observable_batch() and splits
// the per-observable columns back out per job: K jobs cost one evolution
// plus K measurement sweeps instead of K evolutions. The serve_batch bench
// entry gates the resulting >= 5x win and the bitwise identity of batched
// vs sequential values (the evolution trajectory is the same object, so
// equality is exact, not approximate). See DESIGN.md "Serving layer".
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fermion/hubbard.hpp"
#include "ops/scb_sum.hpp"
#include "serve/protocol.hpp"
#include "symmetry/sector_operator.hpp"
#include "symmetry/sector_vector.hpp"
#include "telemetry/progress.hpp"

namespace gecos::serve {

/// Builds one observable of the serve menu as a diagonal ScbSum over the
/// lattice's modes (kDensity sums the site's spin modes; kDensityCorr is
/// the ScbSum product, so n_a n_a collapses correctly via the SCB closure;
/// kTotalNumber sums every mode). Throws std::invalid_argument on site
/// indices outside the lattice or kDoublon on a spinless lattice.
ScbSum build_observable(const HubbardParams& p, const ObservableSpec& obs);

/// Outcome of one batched evolution pass. `values` is row-major
/// [step][observable]; expectations of the Hermitian diagonal observables
/// are real, the imaginary parts are dropped.
struct BatchResult {
  std::vector<double> times;      ///< time at each step end (dt, 2dt, ...)
  std::vector<double> values;     ///< [step][observable] expectations
  std::vector<double> loschmidt;  ///< |<psi0|psi(t)>|^2 per step
  std::uint64_t matvecs = 0;      ///< evolution matvecs spent
};

/// Evolves psi0 under h for `steps` Krylov steps of dt and measures every
/// observable after each step — the one-pass core the scheduler and the
/// serve_batch bench share. Observables must live on h's sector. Counts
/// observables beyond the first into telemetry observables_batched. The
/// optional progress sink (phase "serve.batch") fires after every step with
/// the step index, total and matvec count; a throwing sink aborts the pass
/// (the scheduler's cancel/abandon hook).
BatchResult run_observable_batch(
    const SectorOperator& h, const SectorVector& psi0, double dt,
    std::size_t steps,
    std::span<const SectorOperator> observables,
    double krylov_tol, const telemetry::ProgressFn& progress = {});

}  // namespace gecos::serve

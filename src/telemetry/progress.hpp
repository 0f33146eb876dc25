// Solver progress reporting: the ProgressSink callback contract.
//
// Long solves (the n = 32 sector ground state runs ~102 s) were black boxes
// until they returned. Every iterative driver — Lanczos, imag_time, the
// Krylov and Trotter evolvers, the spectral estimators — now accepts an
// optional callback invoked at iteration boundaries with a ProgressEvent:
// where the solve is (iteration / total), how converged it is (metric vs
// target), how much work it has done (matvecs, elapsed) and a best-effort
// ETA. Callbacks run on the solver's calling thread, outside parallel
// regions, and are never invoked when unset, so the disabled cost is one
// branch on an empty std::function.
//
// stderr_progress() builds the standard throttled human-readable reporter
// (tools/resume_driver --progress uses it);
// anything else — a daemon's job table, a test capturing trajectories — is
// just another std::function. See DESIGN.md "Telemetry & tracing".
#pragma once

#include <cstddef>
#include <functional>

namespace gecos::telemetry {

/// One progress report at an iteration boundary. Fields a driver cannot
/// know keep their defaults (total = 0 means open-ended, eta_s < 0 means
/// unknown).
struct ProgressEvent {
  const char* phase = "";     ///< driver tag, e.g. "lanczos", "krylov"
  std::size_t iteration = 0;  ///< 1-based iteration / step / sample index
  std::size_t total = 0;      ///< planned iterations; 0 when open-ended
  double metric = 0.0;        ///< residual / error estimate / variance
  double target = 0.0;        ///< convergence target for metric; 0 = none
  std::size_t matvecs = 0;    ///< operator applications so far
  double elapsed_s = 0.0;     ///< wall seconds since the solve started
  double eta_s = -1.0;        ///< estimated seconds remaining; < 0 unknown
};

/// The ProgressSink: any callable taking a ProgressEvent. An empty function
/// disables reporting.
using ProgressFn = std::function<void(const ProgressEvent&)>;

/// ETA from geometric convergence: assumes metric decays exponentially from
/// first_metric to metric over elapsed_s and extrapolates to target.
/// Returns -1 when the inputs do not support an estimate (non-positive
/// values, no decay yet) and 0 once metric <= target.
double eta_from_decay(double first_metric, double metric, double target,
                      double elapsed_s);

/// The standard stderr reporter: single-line reports, throttled to one
/// print per min_interval_s (the throttle never drops the first event of a
/// phase). tag prefixes every line (bench uses the entry name).
ProgressFn stderr_progress(const char* tag = "", double min_interval_s = 0.25);

}  // namespace gecos::telemetry

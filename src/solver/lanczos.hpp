// Thick-restart Lanczos: k lowest eigenpairs of a Hermitian LinearOperator.
//
// The dense Jacobi eigh caps every spectral question at ~10 qubits; this
// solver needs only the matrix-free apply_add hot path, so ground-state
// energies and gaps of the n = 20+ Hubbard lattices come from the same
// kernels the evolution engine runs on. It is the standard iterative
// projection scheme: build an orthonormal Krylov basis V_m with the
// Hermitian three-term recurrence, diagonalize the small projected matrix,
// lock the best Ritz pairs and restart the basis from them (thick restart,
// Wu-Simon style) so memory stays at max_subspace + 1 vectors no matter how
// many iterations convergence takes. Reorthogonalization policy, residual
// convergence criteria and the restart rule are documented in DESIGN.md
// "Krylov solver layer". After construction (which preallocates the basis,
// the projected matrix and the small-eigensolver workspace), solve() runs
// allocation-free — probe-verified in tests/test_lanczos.cpp.
//
// Long solves are resumable: with LanczosOptions::checkpoint_path and
// checkpoint_interval set, the solver writes its complete mid-flight state
// (live basis prefix, projected matrix, omega recurrence, RNG and counters)
// through src/io/checkpoint.hpp every `interval` matvecs, at the top of the
// iteration loop where that state is self-contained. resume() reloads a
// checkpoint (`.bak` fallback included) and continues the identical
// trajectory: for a fixed thread count the resumed run is bit-for-bit the
// uninterrupted one. Checkpoint writes allocate (serialization buffers);
// the zero-allocation guarantee holds whenever checkpointing is off, which
// is the default. See DESIGN.md "Checkpoint format & failure model".
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "linalg/sym_eig.hpp"
#include "ops/linear_op.hpp"
#include "state/krylov_basis.hpp"
#include "telemetry/progress.hpp"

namespace gecos {

/// Reorthogonalization policy of a Lanczos run (see DESIGN.md). The values
/// are written into checkpoints.
enum class LanczosReorth {
  /// Every iteration orthogonalizes against the whole basis (the reference
  /// policy: machine-level orthogonality at one extra basis sweep per step).
  kFull,
  /// The default. The Parlett-Simon omega recurrence estimates the
  /// orthogonality loss, and a full pass fires only when the estimate
  /// exceeds min(sqrt(eps), tol / ||T||), ||T|| a Gershgorin bound of the
  /// projected matrix: semi-orthogonality, tightened so the Ritz residual
  /// floor omega ||T|| stays below tol. The locked restart prefix is
  /// projected out every iteration.
  kSelective,
};

/// Tuning knobs for the Lanczos eigensolver.
struct LanczosOptions {
  std::size_t k = 1;               ///< number of lowest eigenpairs wanted
  std::size_t max_subspace = 48;   ///< basis cap m before a thick restart
  std::size_t max_matvecs = 20000; ///< hard budget on operator applications
  double tol = 1e-10;              ///< residual bound ||H y - theta y||
  /// Reorthogonalization policy (see LanczosReorth and DESIGN.md). A
  /// checkpoint records it; resume() rejects another policy's checkpoint.
  LanczosReorth reorth = LanczosReorth::kSelective;
  bool compute_vectors = true;     ///< recover Ritz vectors after convergence
  std::uint64_t seed = 20260730;   ///< start-vector seed when none is given
  /// Checkpoint file path; empty (the default) disables checkpointing and
  /// preserves the zero-allocation solve guarantee.
  std::string checkpoint_path;
  /// Matvecs between checkpoint writes; 0 (the default) disables them.
  std::size_t checkpoint_interval = 0;
  /// Optional ProgressSink (phase "lanczos"): called on the solver thread
  /// once per iteration with the current worst residual, matvec count and a
  /// decay-extrapolated ETA. Empty disables reporting.
  telemetry::ProgressFn progress;
};

/// One thick-restart boundary of a solve, as recorded in
/// LanczosResult::restart_history.
struct LanczosRestartInfo {
  std::size_t iteration = 0;  ///< Lanczos steps completed at the restart
  std::size_t matvecs = 0;    ///< operator applications at the restart
  double lowest_ritz = 0.0;   ///< best Ritz value carried into the restart
  double norm_drift = 0.0;    ///< health monitor at this boundary
  double ortho_loss = 0.0;    ///< health monitor at this boundary
};

/// Outcome of a Lanczos solve. Buffers are preallocated at construction and
/// reused across solves.
struct LanczosResult {
  std::vector<double> eigenvalues;  ///< k lowest Ritz values, ascending
  std::vector<double> residuals;    ///< ||H y_i - theta_i y_i|| per pair
  std::size_t iterations = 0;       ///< Lanczos steps (= basis extensions)
  std::size_t matvecs = 0;          ///< operator applications
  std::size_t restarts = 0;         ///< thick restarts performed
  bool converged = false;           ///< all k residuals <= tol
  std::size_t checkpoints_written = 0;  ///< checkpoint files produced
  /// Matvecs inherited from the checkpoint by resume() — work a fresh run
  /// would have had to redo. 0 on a non-resumed solve.
  std::size_t resumed_matvecs = 0;
  bool resumed = false;  ///< true when this result came out of resume()
  /// Numerical-health monitors sampled at every restart boundary (and at
  /// the resume boundary): worst | ||v_i|| - 1 | over the kept Ritz
  /// vectors, and worst |<v_i, v_res>| against the new residual vector.
  double max_norm_drift = 0.0;
  double max_ortho_loss = 0.0;  ///< see max_norm_drift
  /// Worst residual over the (available) requested Ritz pairs after each
  /// iteration — the convergence trajectory. Capacity is reserved at
  /// construction (max_matvecs + 1 entries), so recording never allocates
  /// during a solve; a resumed run records only its own iterations.
  std::vector<double> residual_history;
  /// One entry per thick restart (see LanczosRestartInfo); reserved at
  /// construction like residual_history.
  std::vector<LanczosRestartInfo> restart_history;
};

/// Thick-restart Lanczos eigensolver for the k lowest eigenpairs.
class Lanczos {
 public:
  /// Captures the operator by reference (it must outlive the solver) and
  /// preallocates every buffer a solve touches. Throws
  /// std::invalid_argument when k = 0, when tol is not positive (NaN
  /// included), when the subspace cannot hold k + 2 vectors, when a restart
  /// would keep min(k + 8, m - 2) > KrylovBasis::kMaxCombine vectors, or
  /// when the operator dimension is < 2.
  explicit Lanczos(const LinearOperator& op, LanczosOptions opts = {});

  /// Runs from a seeded random start vector. The result reference stays
  /// valid until the next solve on this object.
  const LanczosResult& solve();
  /// Runs from the given start vector (need not be normalized; must have
  /// operator dimension). A zero start vector throws.
  const LanczosResult& solve(std::span<const cplx> v0);

  /// Continues a solve from the checkpoint at `path` (falling back to
  /// `path + ".bak"` when the primary is missing or corrupt). The
  /// checkpoint must have been written by a solver over the same operator
  /// geometry — dim, max_subspace, k and reorth policy are validated and a
  /// mismatch throws Error{dim_mismatch}; damaged files throw
  /// Error{io_corrupt} / Error{version_mismatch}. The continuation is
  /// bit-identical to the uninterrupted run for a fixed thread count.
  const LanczosResult& resume(const std::string& path);

  /// Result of the last solve (zeroed before the first).
  const LanczosResult& result() const { return result_; }

  /// Ritz vector i of the last solve, normalized. The solve recovers the
  /// min(k, basis size) lowest ones in place into basis slots [0, ...), so
  /// the span views slot i of the solver's basis: it stays valid until
  /// the next solve() or resume() on this object overwrites the basis
  /// (passing ritz_vector(0) itself to solve() is allowed). Throws
  /// std::invalid_argument when i >= k, when opts.compute_vectors is off,
  /// or when the last solve recovered fewer than i + 1 vectors (none
  /// before the first solve, or after a solve that threw).
  std::span<const cplx> ritz_vector(std::size_t i) const;

 private:
  /// The iteration shared by both solve() overloads (slot 0 holds the
  /// unnormalized start vector on entry).
  const LanczosResult& run();
  /// The main loop plus final Ritz extraction, entered with the newest
  /// basis vector at slot j0 (0 for a fresh run, the checkpointed index
  /// for a resume).
  const LanczosResult& loop(std::size_t j0);
  /// Serializes the loop-top state (basis prefix 0..j, projected matrix,
  /// omega recurrence, RNG, counters) to opts_.checkpoint_path.
  void save_checkpoint(std::size_t j) const;
  /// One Lanczos extension from slot j: leaves the unnormalized residual in
  /// slot j+1 and returns its norm beta_j.
  double extend(std::size_t j) const;
  /// Diagonalizes the leading jj x jj block of the projected matrix.
  void project_eig(std::size_t jj) const;
  /// Contracts the jj-vector basis in place to the l lowest Ritz vectors
  /// (slots [0, l)) plus the (already normalized) residual vector, moved
  /// from slot jj to slot l, whose coupling norm is b.
  void thick_restart(std::size_t jj, std::size_t l, double b) const;

  const LinearOperator& op_;
  LanczosOptions opts_;
  std::size_t dim_ = 0;
  std::size_t m_ = 0;  // effective subspace cap
  mutable std::size_t locked_ = 0;  // thick-restart prefix (0 until one)

  std::size_t keep_ = 0;    // Ritz pairs kept at a thick restart (>= k)

  // m_ + 1 slots: v_0..v_m; after a solve with compute_vectors, slots
  // [0, ritz_count_) hold the Ritz vectors.
  mutable KrylovBasis basis_;
  std::size_t ritz_count_ = 0;  // Ritz vectors the last solve recovered
  mutable std::vector<double> tmat_;  // m_ x m_ projected matrix, row-major
  mutable std::vector<double> proj_;  // packed leading block for eigh_sym
  mutable std::vector<double> omega_, omega_prev_;  // selective-reorth bound
  mutable SymEigWorkspace ws_;
  mutable std::mt19937_64 rng_;
  // Member (not loop-local) so its cached spare Gaussian serializes with
  // the checkpoint and the resumed draw sequence stays exact.
  mutable std::normal_distribution<double> dist_;
  mutable std::size_t next_checkpoint_ = 0;  // matvec count of next write
  mutable std::uint64_t solve_start_ns_ = 0;  // progress elapsed/ETA anchor
  mutable double first_metric_ = 0.0;  // first finite residual (ETA decay)
  mutable LanczosResult result_;
};

}  // namespace gecos

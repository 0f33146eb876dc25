#include "solver/lanczos.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "io/checkpoint.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "util/error.hpp"

namespace gecos {

namespace {

/// Ceiling of the selective policy's orthogonality-loss threshold: a full
/// pass fires at the latest when the omega estimate crosses sqrt(machine
/// epsilon) (semi-orthogonality); Lanczos::extend lowers it to tol / ||T||.
const double kOmegaLimit = std::sqrt(std::numeric_limits<double>::epsilon());
/// Baseline orthogonality level right after an explicit orthogonalization.
const double kEps = std::numeric_limits<double>::epsilon();
/// Health-monitor bound on norm drift / orthogonality loss at restart and
/// resume boundaries: explicit (re)orthogonalization keeps both near 1e-13,
/// so crossing 1e-6 means the basis invariants are gone, not merely noisy.
const double kHealthLimit = 1e-6;

/// Gershgorin bound on ||T|| of the live leading n x n block of the
/// row-major m x m projected matrix t: its largest absolute row sum.
double gershgorin(const std::vector<double>& t, std::size_t m, std::size_t n) {
  double g = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    double s = 0.0;
    for (std::size_t c = 0; c < n; ++c) s += std::abs(t[r * m + c]);
    g = std::max(g, s);
  }
  return g;
}

}  // namespace

Lanczos::Lanczos(const LinearOperator& op, LanczosOptions opts)
    : op_(op),
      opts_(opts),
      dim_(op.dim()),
      m_(std::min(opts.max_subspace, dim_)),
      keep_(std::min(opts.k + 8, m_ >= 2 ? m_ - 2 : std::size_t{0})),
      basis_(dim_ < 2 ? 2 : dim_, (m_ < 2 ? 2 : m_) + 1),
      rng_(opts.seed) {
  if (opts.k == 0) throw std::invalid_argument("Lanczos: k must be >= 1");
  if (!(opts.tol > 0))
    throw std::invalid_argument("Lanczos: tol must be positive");
  if (dim_ < 2) throw std::invalid_argument("Lanczos: operator dim < 2");
  if (opts.k + 2 > m_)
    throw std::invalid_argument(
        "Lanczos: max_subspace must be >= k + 2 (and <= operator dim)");
  if (keep_ > KrylovBasis::kMaxCombine)
    throw std::invalid_argument(
        "Lanczos: a restart would keep " + std::to_string(keep_) +
        " Ritz vectors, more than the " +
        std::to_string(KrylovBasis::kMaxCombine) +
        " KrylovBasis::combine_in_place takes");
  tmat_.assign(m_ * m_, 0.0);
  proj_.assign(m_ * m_, 0.0);
  omega_.assign(m_ + 1, kEps);
  omega_prev_.assign(m_ + 1, kEps);
  ws_.reserve(m_);
  result_.eigenvalues.assign(opts_.k, 0.0);
  result_.residuals.assign(opts_.k, 0.0);
  // Histories are capacity-bounded here so recording during a solve is a
  // plain push_back within reserve — the zero-allocation guarantee holds.
  // One iteration per matvec bounds residual_history; every restart costs
  // at least two extensions (keep_ <= m_ - 2), bounding restart_history.
  result_.residual_history.reserve(opts_.max_matvecs + 1);
  result_.restart_history.reserve(opts_.max_matvecs / 2 + 2);
}

std::span<const cplx> Lanczos::ritz_vector(std::size_t i) const {
  if (i >= opts_.k || !opts_.compute_vectors || i >= ritz_count_)
    throw std::invalid_argument(
        "Lanczos::ritz_vector(" + std::to_string(i) + "): k = " +
        std::to_string(opts_.k) + ", compute_vectors " +
        (opts_.compute_vectors ? "on" : "off") + ", last solve recovered " +
        std::to_string(ritz_count_) + " vector(s)");
  return basis_.vec(i);
}

double Lanczos::extend(std::size_t j) const {
  std::span<cplx> w = basis_.vec(j + 1);
  op_.apply(basis_.vec(j), w);
  ++result_.matvecs;

  // Local recurrence: remove the known couplings of column j of the
  // projected matrix — the single sub-diagonal beta for a plain Lanczos
  // step, the whole border row when v_j is the residual vector of a thick
  // restart (j == locked_).
  if (j == locked_ && locked_ > 0) {
    for (std::size_t i = 0; i < locked_; ++i)
      vec_axpy(w, cplx(-tmat_[i * m_ + j]), basis_.vec(i));
  } else if (j > 0) {
    vec_axpy(w, cplx(-tmat_[(j - 1) * m_ + j]), basis_.vec(j - 1));
  }
  const double a = vec_dot(basis_.vec(j), w).real();
  tmat_[j * m_ + j] = a;
  vec_axpy(w, cplx(-a), basis_.vec(j));

  switch (opts_.reorth) {
    case LanczosReorth::kFull:
      // The local recurrence was the first Gram-Schmidt pass; one modified
      // pass over the whole prefix (a vec_dot + vec_axpy per vector)
      // restores machine-level orthogonality ("twice is enough").
      basis_.project_out(w, j + 1, 1);
      break;
    case LanczosReorth::kSelective: {
      // Parlett-Simon omega recurrence over the tridiagonal tail estimates
      // |<v_{j+1}, v_i>| growth from the three-term recurrence alone; a
      // full pass fires only when the estimate crosses
      // min(sqrt(eps), tol / ||T||). sqrt(eps) is semi-orthogonality; the
      // tol / ||T|| term exists because a Ritz vector built from a basis
      // with orthogonality loss omega has a residual floor of order
      // omega ||T||, which must stay below the requested tol. ||T|| is the
      // Gershgorin bound of the live projected matrix, a function of
      // tmat_ alone, so a resumed run fires the same passes. The locked
      // thick-restart prefix is always projected out (it is k+8 vectors at
      // most — cheap next to a matvec). Conventions: omega_
      // holds the current generation omega_{j,.} with the implicit
      // diagonal omega_{j,j} = 1, omega_prev_ the previous one; the new
      // generation is computed strictly from OLD values (old_im1 carries
      // the pre-overwrite omega_{j,i-1}).
      if (locked_ > 0) basis_.project_out(w, locked_, 1);
      const double bj = std::max(vec_norm(w), 1e-300);
      const double bjm1 = j > locked_ ? tmat_[(j - 1) * m_ + j] : 0.0;
      double worst = 0.0;
      double old_im1 = 0.0;  // omega_{j,locked_-1}: outside the tail, ~0
      for (std::size_t i = locked_; i + 1 <= j; ++i) {
        const double ai = tmat_[i * m_ + i];
        const double bi = i + 1 < m_ ? tmat_[i * m_ + i + 1] : 0.0;
        const double bim1 = i > locked_ ? tmat_[(i - 1) * m_ + i] : 0.0;
        const double old_i = omega_[i];
        const double old_ip1 = i + 2 <= j ? omega_[i + 1] : 1.0;  // om_{j,j}
        double next = bi * old_ip1 + (ai - a) * old_i + bim1 * old_im1 -
                      bjm1 * omega_prev_[i];
        next = std::abs(next) / bj + kEps;
        omega_prev_[i] = old_i;
        omega_[i] = next;
        old_im1 = old_i;
        worst = std::max(worst, next);
      }
      omega_prev_[j] = 1.0;   // omega_{j,j}
      omega_[j] = kEps;       // omega_{j+1,j}: freshly orthogonal pair
      const double limit =
          std::min(kOmegaLimit, opts_.tol / gershgorin(tmat_, m_, j + 1));
      if (worst > limit) {
        basis_.project_out(w, j + 1, 1);
        for (std::size_t i = 0; i <= j; ++i)
          omega_[i] = omega_prev_[i] = kEps;
        return vec_norm(w);
      }
      return bj;  // w untouched since the norm above: reuse it
    }
  }
  return vec_norm(w);
}

void Lanczos::project_eig(std::size_t jj) const {
  for (std::size_t r = 0; r < jj; ++r)
    for (std::size_t c = 0; c < jj; ++c)
      proj_[r * jj + c] = tmat_[r * m_ + c];
  eigh_sym(proj_, jj, ws_);
}

void Lanczos::thick_restart(std::size_t jj, std::size_t l, double b) const {
  GECOS_SPAN("lanczos.restart");
  // Ritz vectors u_i = V z_i of the l lowest pairs over slots [0, l), in
  // one tiled in-place pass; the residual vector moves from slot jj to l.
  basis_.combine_in_place(ws_.z, jj, l);
  vec_copy(basis_.vec(l), basis_.vec(jj));

  // Restart-boundary health monitors: every kept Ritz vector must still be
  // unit-norm and orthogonal to the carried residual vector. Both are
  // ~1e-13 for an orthogonalizing policy, so a 1e-6 excursion is a real
  // loss of invariants (reported as breakdown), not noise. The reductions
  // also sweep every amplitude for NaN/Inf via the blas1 guards.
  double drift = 0.0, ortho = 0.0;
  for (std::size_t i = 0; i < l; ++i) {
    drift = std::max(drift, std::abs(vec_norm(basis_.vec(i)) - 1.0));
    ortho = std::max(ortho, std::abs(vec_dot(basis_.vec(i), basis_.vec(l))));
  }
  result_.max_norm_drift = std::max(result_.max_norm_drift, drift);
  result_.max_ortho_loss = std::max(result_.max_ortho_loss, ortho);
  if (drift > kHealthLimit || ortho > kHealthLimit)
    throw Error(ErrorKind::breakdown,
                "Lanczos: basis invariants lost at restart " +
                    std::to_string(result_.restarts + 1) + " (norm drift " +
                    std::to_string(drift) + ", orthogonality loss " +
                    std::to_string(ortho) + ")");

  // New projected matrix: diag(theta_i) bordered by the residual couplings
  // b_i = beta * z_{last,i} in row/column l.
  std::fill(tmat_.begin(), tmat_.end(), 0.0);
  for (std::size_t i = 0; i < l; ++i) {
    tmat_[i * m_ + i] = ws_.d[i];
    const double bi = b * ws_.z[(jj - 1) * jj + i];
    tmat_[i * m_ + l] = bi;
    tmat_[l * m_ + i] = bi;
  }
  locked_ = l;
  ++result_.restarts;
  if (result_.restart_history.size() < result_.restart_history.capacity()) {
    LanczosRestartInfo info;
    info.iteration = result_.iterations;
    info.matvecs = result_.matvecs;
    info.lowest_ritz = ws_.d[0];
    info.norm_drift = drift;
    info.ortho_loss = ortho;
    result_.restart_history.push_back(info);
  }
  for (std::size_t i = 0; i <= m_; ++i) omega_[i] = omega_prev_[i] = kEps;
}

const LanczosResult& Lanczos::solve() {
  // Seeded Gaussian start vector written straight into slot 0 (no
  // temporary), normalized by the common path below. The distribution is
  // reset so each solve() draws the same sequence a fresh local would.
  ritz_count_ = 0;
  dist_.reset();
  std::span<cplx> v0 = basis_.vec(0);
  for (cplx& x : v0) x = cplx(dist_(rng_), dist_(rng_));
  return run();
}

const LanczosResult& Lanczos::solve(std::span<const cplx> v0) {
  if (v0.size() != dim_)
    throw std::invalid_argument("Lanczos::solve: start vector size mismatch");
  ritz_count_ = 0;
  // v0 may be this solver's own ritz_vector(0), i.e. slot 0 itself.
  if (v0.data() != basis_.vec(0).data()) vec_copy(basis_.vec(0), v0);
  return run();
}

void Lanczos::save_checkpoint(std::size_t j) const {
  PayloadWriter w;
  // Geometry first, so resume() can reject a mismatched solver before
  // touching any state.
  w.put_u64(dim_);
  w.put_u64(m_);
  w.put_u64(opts_.k);
  w.put_u32(static_cast<std::uint32_t>(opts_.reorth));
  w.put_u64(keep_);
  w.put_u64(locked_);
  w.put_u64(j);
  w.put_u64(result_.iterations);
  w.put_u64(result_.matvecs);
  w.put_u64(result_.restarts);
  for (std::size_t i = 0; i < m_ * m_; ++i) w.put_f64(tmat_[i]);
  for (std::size_t i = 0; i <= m_; ++i) w.put_f64(omega_[i]);
  for (std::size_t i = 0; i <= m_; ++i) w.put_f64(omega_prev_[i]);
  // Engine and distribution serialize exactly through their iostream
  // operators (integer words; max_digits10 floats for the cached spare).
  std::ostringstream rs;
  rs << rng_ << ' ' << dist_;
  w.put_string(rs.str());
  for (std::size_t s = 0; s <= j; ++s) w.put_cplx(basis_.vec(s));
  write_checkpoint(opts_.checkpoint_path, PayloadKind::kLanczosState,
                   w.bytes());
}

const LanczosResult& Lanczos::resume(const std::string& path) {
  const Checkpoint ck =
      read_checkpoint_with_fallback(path, PayloadKind::kLanczosState);
  PayloadReader r(ck.payload);
  const std::uint64_t dim = r.get_u64();
  const std::uint64_t m = r.get_u64();
  const std::uint64_t k = r.get_u64();
  const std::uint32_t reorth = r.get_u32();
  if (dim != dim_ || m != m_ || k != opts_.k ||
      reorth != static_cast<std::uint32_t>(opts_.reorth))
    throw Error(ErrorKind::dim_mismatch,
                path + ": checkpoint geometry (dim " + std::to_string(dim) +
                    ", m " + std::to_string(m) + ", k " + std::to_string(k) +
                    ", reorth " + std::to_string(reorth) +
                    ") does not match this solver (dim " +
                    std::to_string(dim_) + ", m " + std::to_string(m_) +
                    ", k " + std::to_string(opts_.k) + ", reorth " +
                    std::to_string(static_cast<std::uint32_t>(opts_.reorth)) +
                    ")");
  const std::uint64_t keep = r.get_u64();
  const std::uint64_t locked = r.get_u64();
  const std::uint64_t j = r.get_u64();
  if (keep != keep_ || j >= m || locked > j)
    throw Error(ErrorKind::io_corrupt,
                path + ": solver state out of bounds (keep " +
                    std::to_string(keep) + ", locked " +
                    std::to_string(locked) + ", j " + std::to_string(j) +
                    ")");
  result_.iterations = static_cast<std::size_t>(r.get_u64());
  result_.matvecs = static_cast<std::size_t>(r.get_u64());
  result_.restarts = static_cast<std::size_t>(r.get_u64());
  for (std::size_t i = 0; i < m_ * m_; ++i) tmat_[i] = r.get_f64();
  for (std::size_t i = 0; i <= m_; ++i) omega_[i] = r.get_f64();
  for (std::size_t i = 0; i <= m_; ++i) omega_prev_[i] = r.get_f64();
  std::istringstream rs(r.get_string());
  rs >> rng_ >> dist_;
  if (!rs)
    throw Error(ErrorKind::io_corrupt, path + ": RNG state unreadable");
  ritz_count_ = 0;  // the basis slots are overwritten from here on
  for (std::size_t s = 0; s <= j; ++s) r.get_cplx(basis_.vec(s));
  r.require_end();

  locked_ = static_cast<std::size_t>(locked);
  result_.converged = false;
  result_.checkpoints_written = 0;
  result_.resumed_matvecs = result_.matvecs;
  result_.resumed = true;
  result_.max_norm_drift = 0.0;
  result_.max_ortho_loss = 0.0;
  result_.residual_history.clear();
  result_.restart_history.clear();
  std::fill(result_.eigenvalues.begin(), result_.eigenvalues.end(), 0.0);
  std::fill(result_.residuals.begin(), result_.residuals.end(), 0.0);
  next_checkpoint_ = result_.matvecs + opts_.checkpoint_interval;

  // Resume-boundary health monitors: the restored prefix must be an
  // orthonormal basis (the reductions also NaN-sweep every amplitude via
  // the blas1 guards). A checksum-valid checkpoint of a healthy run passes
  // at ~1e-13; failure means the file is from a corrupted run.
  double drift = 0.0, ortho = 0.0;
  for (std::size_t s = 0; s <= j; ++s)
    drift = std::max(drift, std::abs(vec_norm(basis_.vec(s)) - 1.0));
  for (std::size_t s = 0; s < j; ++s)
    ortho = std::max(ortho, std::abs(vec_dot(basis_.vec(s), basis_.vec(j))));
  result_.max_norm_drift = drift;
  result_.max_ortho_loss = ortho;
  if (drift > kHealthLimit || ortho > kHealthLimit)
    throw Error(ErrorKind::breakdown,
                path + ": restored basis is not orthonormal (norm drift " +
                    std::to_string(drift) + ", orthogonality loss " +
                    std::to_string(ortho) + ")");

  return loop(static_cast<std::size_t>(j));
}

const LanczosResult& Lanczos::run() {
  const double n0 = vec_norm(basis_.vec(0));
  if (n0 == 0.0)
    throw std::invalid_argument("Lanczos: start vector must be nonzero");
  vec_scale(basis_.vec(0), cplx(1.0 / n0));

  result_.iterations = 0;
  result_.matvecs = 0;
  result_.restarts = 0;
  result_.converged = false;
  result_.checkpoints_written = 0;
  result_.resumed_matvecs = 0;
  result_.resumed = false;
  result_.max_norm_drift = 0.0;
  result_.max_ortho_loss = 0.0;
  result_.residual_history.clear();
  result_.restart_history.clear();
  locked_ = 0;
  dist_.reset();
  std::fill(tmat_.begin(), tmat_.end(), 0.0);
  for (std::size_t i = 0; i <= m_; ++i) omega_[i] = omega_prev_[i] = kEps;

  std::fill(result_.eigenvalues.begin(), result_.eigenvalues.end(), 0.0);
  std::fill(result_.residuals.begin(), result_.residuals.end(), 0.0);
  next_checkpoint_ = opts_.checkpoint_interval;

  return loop(0);
}

const LanczosResult& Lanczos::loop(std::size_t j0) {
  GECOS_SPAN("lanczos.solve");
  const std::size_t k = opts_.k;
  const bool checkpointing =
      opts_.checkpoint_interval > 0 && !opts_.checkpoint_path.empty();
  solve_start_ns_ = telemetry::now_ns();
  first_metric_ = 0.0;
  std::size_t j = j0;      // index of the newest basis vector
  std::size_t jj = 0;      // current basis size after the extension below
  double b_exit = 0.0;     // residual coupling at loop exit

  for (;;) {
    // The loop-top state (basis prefix 0..j, projected matrix, omega
    // recurrence, RNG, counters) is self-contained: a checkpoint taken
    // here resumes into the bit-identical trajectory.
    if (checkpointing && result_.matvecs >= next_checkpoint_) {
      save_checkpoint(j);
      ++result_.checkpoints_written;
      next_checkpoint_ = result_.matvecs + opts_.checkpoint_interval;
    }
    double b = extend(j);
    ++result_.iterations;
    jj = j + 1;

    // Breakdown: the Krylov space is invariant. Every Ritz pair of the
    // current block is exact; if that is not yet enough pairs, deflate by
    // continuing from a fresh random direction orthogonal to everything
    // (coupling 0 keeps the block structure intact).
    const bool breakdown = b <= 1e-12 * std::max(1.0, std::abs(tmat_[j * m_ + j]));

    project_eig(jj);
    // Worst residual over the requested pairs available so far — the
    // convergence metric of the history and the progress reports.
    const std::size_t avail = std::min(jj, k);
    double worst = 0.0;
    for (std::size_t i = 0; i < avail; ++i) {
      const double res = breakdown ? 0.0 : b * std::abs(ws_.z[j * jj + i]);
      worst = std::max(worst, res);
    }
    if (result_.residual_history.size() <
        result_.residual_history.capacity())
      result_.residual_history.push_back(worst);
    if (opts_.progress) {
      telemetry::ProgressEvent ev;
      ev.phase = "lanczos";
      ev.iteration = result_.iterations;
      ev.metric = worst;
      ev.target = opts_.tol;
      ev.matvecs = result_.matvecs;
      ev.elapsed_s =
          static_cast<double>(telemetry::now_ns() - solve_start_ns_) * 1e-9;
      if (first_metric_ == 0.0 && jj >= k && worst > 0.0)
        first_metric_ = worst;
      ev.eta_s = telemetry::eta_from_decay(first_metric_, worst, opts_.tol,
                                           ev.elapsed_s);
      opts_.progress(ev);
    }
    const bool all_done = jj >= k && worst <= opts_.tol;
    if (all_done || result_.matvecs >= opts_.max_matvecs) {
      result_.converged = all_done;
      b_exit = breakdown ? 0.0 : b;
      break;
    }

    if (breakdown) {
      // Continue from a fresh random direction orthogonal to everything;
      // zero coupling keeps the exact block untouched.
      std::span<cplx> w = basis_.vec(jj);
      for (cplx& x : w) x = cplx(dist_(rng_), dist_(rng_));
      basis_.project_out(w, jj, 2);
      const double nw = vec_norm(w);
      if (nw == 0.0) {  // dim exhausted: nothing further to add
        result_.converged = all_done;
        break;
      }
      vec_scale(w, cplx(1.0 / nw));
      if (jj == m_) {
        // Full basis of an invariant-subspace chain: restart to make room
        // (border couplings are b * z = 0, preserving the block boundary).
        thick_restart(jj, std::min(keep_, jj - 1), 0.0);
        j = locked_;
        continue;
      }
      j = jj;
      continue;
    }

    if (jj == m_) {
      vec_scale(basis_.vec(jj), cplx(1.0 / b));
      thick_restart(jj, keep_, b);
      j = locked_;
      continue;
    }
    tmat_[j * m_ + jj] = b;
    tmat_[jj * m_ + j] = b;
    vec_scale(basis_.vec(jj), cplx(1.0 / b));
    j = jj;
  }

  for (std::size_t i = 0; i < k && i < jj; ++i) {
    result_.eigenvalues[i] = ws_.d[i];
    result_.residuals[i] = b_exit * std::abs(ws_.z[j * jj + i]);
  }

  if (opts_.compute_vectors) {
    // Ritz vectors over basis slots [0, min(k, jj)), where ritz_vector()
    // serves them until the next solve.
    ritz_count_ = std::min(k, jj);
    basis_.combine_in_place(ws_.z, jj, ritz_count_);
  }
  return result_;
}

}  // namespace gecos

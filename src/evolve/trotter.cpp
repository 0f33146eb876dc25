#include "evolve/trotter.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "simd/kernels.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "util/bits.hpp"
#include "util/parallel.hpp"

namespace gecos {

namespace {

/// Runs shorter than 2^3 complex amplitudes are not worth the wide-kernel
/// call; the block path (off-diagonal) or the scalar walk (diagonal)
/// handles them.
constexpr int kMinRunBits = 3;

/// A simd::BlockRot block: 8 aligned amplitudes, index bits 0-2.
constexpr int kBlockBits = 3;
constexpr std::uint64_t kBlockMask = (std::uint64_t{1} << kBlockBits) - 1;

/// Upper bound on the fused phase table's memory (angle + phase, 24 bytes
/// per basis state). Past it the diagonal terms stay one sweep each.
constexpr std::size_t kDiagTableBudget = std::size_t{512} << 20;

}  // namespace

TermExp::TermExp(const ScbTerm& term) : kernel_(term) {
  if (!term.is_valid_hamiltonian())
    throw std::invalid_argument("TermExp: term is not a valid Hamiltonian");
  const bool add_hc = term.add_hc();
  diagonal_ = kernel_.flip == 0;
  // The h.c. partner state s ^ flip is itself selected exactly when no
  // flipped position carries an input constraint (i.e. no transition
  // factors); then A couples |s> <-> |s ^ flip> within the selected set.
  const bool pair_in_sel = (kernel_.flip & kernel_.select_mask) == 0;
  if (diagonal_) {
    // H acts as d(s) = sgn(s) * d0 on selected states. Without h.c. the
    // validity check forces a real base; with h.c. the imaginary part
    // cancels against the conjugate term.
    d0_ = add_hc ? 2.0 * kernel_.base.real() : kernel_.base.real();
  } else {
    // On the pair (|s>, |s2 = s ^ flip>) the Hermitian block is
    // [[0, conj(h)], [h, 0]] with h(s) = <s2|H|s> = sgn(s) * h0:
    //   - bare Hermitian term (no h.c.): h0 = base (A alone is Hermitian);
    //   - h.c. with transitions: s2 is unselected, only A reaches |s2>,
    //     h0 = base;
    //   - h.c. without transitions: both A and A† couple the pair,
    //     h0 = base + (-1)^{pc(sign & flip)} * conj(base), because
    //     sgn(s2) = sgn(s) * (-1)^{pc(sign & flip)}.
    h0_ = kernel_.base;
    if (add_hc && pair_in_sel) {
      const bool neg = std::popcount(kernel_.sign_mask & kernel_.flip) & 1;
      h0_ += neg ? -std::conj(kernel_.base) : std::conj(kernel_.base);
    }
  }

  // The walk: one representative s per selected state (diagonal) or per
  // coupled pair (off-diagonal). When the partner is itself selected, the
  // lowest flip bit (a free bit, since no flipped position is constrained)
  // is pinned to zero to halve the walk.
  const std::uint64_t dim_mask = (std::uint64_t{1} << n_qubits()) - 1;
  const std::uint64_t flip = kernel_.flip;
  std::uint64_t free_mask = dim_mask & ~kernel_.select_mask;
  if (!diagonal_ && pair_in_sel) free_mask &= ~(flip & (~flip + 1));
  // Contiguous-run split: low free bits outside sign and flip give runs of
  // adjacent states with constant phase or rotation data, whose streams s
  // (and s ^ flip) advance through adjacent memory.
  const std::uint64_t run_mask =
      trailing_run_mask(free_mask & ~kernel_.sign_mask & ~flip);
  if (std::popcount(run_mask) >= kMinRunBits) {
    path_ = Path::runs;
    run_bits_ = std::popcount(run_mask);
    walk_mask_ = free_mask & ~run_mask;
  } else if (diagonal_ || n_qubits() < kBlockBits) {
    path_ = Path::walk;
    walk_mask_ = free_mask;
  } else {
    // Block path: the walk enumerates first blocks A (block-index bits
    // outside the selection). With a partner block B = A ^ (flip above the
    // block) whose selected bits match A's, each unordered pair is visited
    // once by pinning the lowest partner-offset bit of A to zero.
    path_ = Path::blocks;
    const std::uint64_t fhi = flip & ~kBlockMask;
    const std::uint64_t pin =
        (kernel_.select_mask & fhi) == 0 ? fhi & (~fhi + 1) : 0;
    walk_mask_ = dim_mask & ~kBlockMask & ~kernel_.select_mask & ~pin;
  }
}

void TermExp::apply(double t, std::span<cplx> x) const {
  if (x.size() != (std::size_t{1} << n_qubits()))
    throw std::invalid_argument("TermExp::apply: size mismatch");
  const std::uint64_t select_val = kernel_.select_val;
  const std::uint64_t sign_mask = kernel_.sign_mask;
  const std::uint64_t flip = kernel_.flip;
  const std::uint64_t walk = walk_mask_;
  const std::size_t count = std::size_t{1} << std::popcount(walk);
  const std::size_t run = std::size_t{1} << run_bits_;
  const std::size_t run_grain =
      std::max<std::size_t>(1, kParallelGrain >> run_bits_);
  const simd::Kernels& kn = simd::active();

  if (diagonal_) {
    if (d0_ == 0.0) return;
    const cplx phase_pos = std::polar(1.0, -t * d0_);
    const cplx phase_neg = std::conj(phase_pos);
    if (path_ == Path::runs) {
      parallel_for(
          count,
          [&](std::size_t i0, std::size_t i1, int) {
            std::uint64_t sub = scatter_bits(i0, walk);
            for (std::size_t i = i0; i < i1; ++i) {
              const std::uint64_t s = sub | select_val;
              kn.scale(x.data() + s, run,
                       (std::popcount(sign_mask & s) & 1) ? phase_neg
                                                          : phase_pos);
              sub = (sub - walk) & walk;
            }
          },
          run_grain);
      return;
    }
    parallel_for(count, [&](std::size_t i0, std::size_t i1, int) {
      std::uint64_t sub = scatter_bits(i0, walk);
      for (std::size_t i = i0; i < i1; ++i) {
        const std::uint64_t s = sub | select_val;
        x[s] *= (std::popcount(sign_mask & s) & 1) ? phase_neg : phase_pos;
        sub = (sub - walk) & walk;
      }
    });
    return;
  }

  const double habs = std::abs(h0_);
  if (habs == 0.0) return;  // coupling cancelled: exp is the identity
  const double c = std::cos(t * habs);
  const double sn = std::sin(t * habs);
  const cplx unit = h0_ / habs;
  // exp(-i t [[0, conj(h)], [h, 0]]) = cos(t|h|) I - i sin(t|h|) H / |h|:
  //   x[s]  <- c x[s] + sgn * v * x[s2],   v = -i sin * conj(unit)
  //   x[s2] <- sgn * u * x[s] + c x[s2],   u = -i sin * unit
  const cplx u = cplx(0.0, -sn) * unit;
  const cplx v = cplx(0.0, -sn) * std::conj(unit);

  switch (path_) {
    case Path::runs:
      parallel_for(
          count,
          [&](std::size_t i0, std::size_t i1, int) {
            std::uint64_t sub = scatter_bits(i0, walk);
            for (std::size_t i = i0; i < i1; ++i) {
              const std::uint64_t s = sub | select_val;
              const bool neg = std::popcount(sign_mask & s) & 1;
              kn.pair_rot(x.data() + s, x.data() + (s ^ flip), run, c,
                          neg ? -u : u, neg ? -v : v);
              sub = (sub - walk) & walk;
            }
          },
          run_grain);
      return;
    case Path::blocks:
      apply_blocks(c, u, v, x);
      return;
    case Path::walk:
      break;
  }
  parallel_for(count, [&](std::size_t i0, std::size_t i1, int) {
    std::uint64_t sub = scatter_bits(i0, walk);
    for (std::size_t i = i0; i < i1; ++i) {
      const std::uint64_t s = sub | select_val;
      const std::uint64_t s2 = s ^ flip;
      const bool neg = std::popcount(sign_mask & s) & 1;
      const cplx xs = x[s], xs2 = x[s2];
      if (neg) {
        x[s] = c * xs - v * xs2;
        x[s2] = -u * xs + c * xs2;
      } else {
        x[s] = c * xs + v * xs2;
        x[s2] = u * xs + c * xs2;
      }
      sub = (sub - walk) & walk;
    }
  });
}

void TermExp::apply_blocks(double c, cplx u, cplx v,
                           std::span<cplx> x) const {
  const std::uint64_t flip = kernel_.flip;
  const std::uint64_t sign_mask = kernel_.sign_mask;
  const std::uint64_t slo = kernel_.select_mask & kBlockMask;
  const std::uint64_t svlo = kernel_.select_val & kBlockMask;
  simd::BlockRot b;
  b.outer_mask = walk_mask_;
  b.base = kernel_.select_val & ~kBlockMask;
  b.partner = flip & ~kBlockMask;
  b.sign = sign_mask & ~kBlockMask;
  b.flo = static_cast<unsigned>(flip & kBlockMask);
  // Pair representatives are the positions meeting the low selection, in
  // every first block A, and in the partner block B too unless a transition
  // factor above the block sets B apart (two_way). With no transition
  // factor on the flip both amplitudes of a pair are representatives, and
  // either coefficient is right: the 2x2 block is Hermitian, so
  // sgn(s ^ flip) * v == sgn(s) * u.
  const auto rep = [&](std::uint64_t q) { return (q & slo) == svlo; };
  const bool two_way =
      b.partner != 0 && (kernel_.select_mask & b.partner) == 0;
  const int pf = std::popcount(sign_mask & b.partner) & 1;
  const auto sgn = [&](int parity, std::uint64_t q) {
    return ((parity ^ std::popcount(sign_mask & q)) & 1) ? -1.0 : 1.0;
  };
  for (int par = 0; par < 2; ++par) {
    for (int blk = 0; blk < 2; ++blk) {
      // Representatives and their partner positions of this block, with
      // the sign parities of this block's and the other block's high bits
      // (the one-block form is its own other block: partner == 0, pf == 0).
      const bool own_reps = blk == 0 || two_way;
      const bool other_reps = b.partner == 0 || blk == 1 || two_way;
      const int own_par = par ^ (blk == 1 ? pf : 0);
      const int other_par = par ^ (blk == 0 ? pf : 0);
      for (std::uint64_t q = 0; q <= kBlockMask; ++q) {
        double alpha = 1.0;
        cplx beta;
        if (own_reps && rep(q)) {
          alpha = c;
          beta = sgn(own_par, q) * v;
        } else if (other_reps && rep(q ^ b.flo)) {
          alpha = c;
          beta = sgn(other_par, q ^ b.flo) * u;
        }
        for (std::size_t slot = 2 * q; slot < 2 * q + 2; ++slot) {
          b.alpha[par][blk][slot] = alpha;
          b.beta_re[par][blk][slot] = beta.real();
          b.beta_im[par][blk][slot] = beta.imag();
        }
      }
    }
  }
  const simd::Kernels& kn = simd::active();
  const std::size_t blocks = std::size_t{1} << std::popcount(walk_mask_);
  parallel_for(
      blocks,
      [&](std::size_t i0, std::size_t i1, int) {
        kn.block_rot(x.data(), b, i0, i1);
      },
      std::max<std::size_t>(1, kParallelGrain >> kBlockBits));
}

double TermExp::apply_bytes() const {
  if (diagonal_ ? d0_ == 0.0 : h0_ == cplx(0.0)) return 0.0;
  // Walked units: selected states or pairs (runs and walk paths), first
  // blocks (block path).
  const double walked =
      std::ldexp(1.0, std::popcount(walk_mask_) + run_bits_);
  if (path_ == Path::blocks) {
    // Whole 8-amplitude blocks of both streams, read + written.
    const double streams = (kernel_.flip & ~kBlockMask) != 0 ? 2.0 : 1.0;
    return walked * streams * 8.0 * 32.0;
  }
  // Selected amplitudes (diagonal) or both pair amplitudes, read + written.
  return walked * (diagonal_ ? 32.0 : 64.0);
}

TrotterEvolver::TrotterEvolver(const ScbSum& h, bool fuse) : fuse_(fuse) {
  n_ = h.num_qubits();
  if (n_ == 0)
    throw std::invalid_argument("TrotterEvolver: empty Hamiltonian");
  std::vector<ScbTerm> terms = h.hermitian_terms();
  // Canonical diagonal-major splitting order: all diagonal terms first
  // (mutually commuting, so their relative order is immaterial), then the
  // off-diagonal terms in input order. Any term order is an equally valid
  // product-formula splitting; this one groups the commuting diagonal
  // family into one block — the split-step convention — which fusion then
  // collapses into a single phase-table sweep. Both the fused and the
  // unfused (fuse = false) paths share this order, so they realize the
  // SAME operator product.
  std::stable_partition(terms.begin(), terms.end(), [](const ScbTerm& t) {
    return TermKernel(t).flip == 0;
  });
  exps_.reserve(terms.size());
  for (const ScbTerm& t : terms) exps_.emplace_back(t);
  if (fuse_) build_phase_table();
}

void TrotterEvolver::build_phase_table() {
  std::size_t nd = 0;
  while (nd < exps_.size() && exps_[nd].diagonal()) ++nd;
  // The table replaces nd sweeps over the selected amplitudes with one
  // full pass: fuse only when their combined coverage beats that pass by
  // ~1.5x and the table fits the budget.
  const std::size_t dim = std::size_t{1} << n_;
  if (nd < 2 || dim * (sizeof(double) + sizeof(cplx)) > kDiagTableBudget)
    return;
  double cov = 0.0;
  for (std::size_t m = 0; m < nd; ++m) {
    if (exps_[m].d0() == 0.0) continue;
    cov += std::ldexp(1.0, static_cast<int>(n_) -
                               std::popcount(exps_[m].kernel().select_mask));
  }
  if (2.0 * cov < 3.0 * static_cast<double>(dim)) return;

  num_fused_ = nd;
  angle_.assign(dim, 0.0);
  const std::uint64_t dim_mask = dim - 1;
  for (std::size_t m = 0; m < nd; ++m) {
    const TermKernel& k = exps_[m].kernel();
    const double d0 = exps_[m].d0();
    if (d0 == 0.0) continue;
    const std::uint64_t free_mask = dim_mask & ~k.select_mask;
    const std::uint64_t select_val = k.select_val;
    const std::uint64_t sign_mask = k.sign_mask;
    const std::size_t count = std::size_t{1} << std::popcount(free_mask);
    double* angle = angle_.data();
    parallel_for(count, [&](std::size_t i0, std::size_t i1, int) {
      std::uint64_t sub = scatter_bits(i0, free_mask);
      for (std::size_t i = i0; i < i1; ++i) {
        const std::uint64_t s = sub | select_val;
        angle[s] += (std::popcount(sign_mask & s) & 1) ? -d0 : d0;
        sub = (sub - free_mask) & free_mask;
      }
    });
  }
  phase_.assign(dim, cplx(0.0));
}

void TrotterEvolver::sweep(double dt, std::span<cplx> x, bool reverse) const {
  // Commuting phases: the table is its own reverse.
  const std::size_t nt = exps_.size();
  if (reverse) {
    for (std::size_t t = nt; t-- > num_fused_;) exps_[t].apply(dt, x);
    if (num_fused_ > 0) apply_phase_table(dt, x);
  } else {
    if (num_fused_ > 0) apply_phase_table(dt, x);
    for (std::size_t t = num_fused_; t < nt; ++t) exps_[t].apply(dt, x);
  }
}

void TrotterEvolver::apply_phase_table(double dt, std::span<cplx> x) const {
  {
    std::scoped_lock lock(phase_mutex_);
    if (!phase_valid_ || phase_dt_ != dt) {
      const double* angle = angle_.data();
      cplx* phase = phase_.data();
      parallel_for(phase_.size(), [&](std::size_t lo, std::size_t hi, int) {
        for (std::size_t s = lo; s < hi; ++s)
          phase[s] = std::polar(1.0, -dt * angle[s]);
      });
      phase_dt_ = dt;
      phase_valid_ = true;
    }
  }
  const simd::Kernels& kn = simd::active();
  parallel_for(x.size(), [&](std::size_t lo, std::size_t hi, int) {
    kn.phase_mul(x.data() + lo, phase_.data() + lo, hi - lo);
  });
}

double TrotterEvolver::step_traffic_bytes(int order) const {
  // Phase table: one full pass, amplitude read + write (32 B) plus the
  // phase read (16 B); every other term: its own sweep's traffic.
  double sweep_bytes =
      num_fused_ > 0 ? std::ldexp(48.0, static_cast<int>(n_)) : 0.0;
  for (std::size_t t = num_fused_; t < exps_.size(); ++t)
    sweep_bytes += exps_[t].apply_bytes();
  return (order == 2 ? 2.0 : 1.0) * sweep_bytes;
}

void TrotterEvolver::step(std::span<cplx> x, double dt, int order) const {
  if (x.size() != (std::size_t{1} << n_))
    throw std::invalid_argument("TrotterEvolver::step: size mismatch");
  if (order != 1 && order != 2)
    throw std::invalid_argument("TrotterEvolver::step: order must be 1 or 2");
  GECOS_SPAN("trotter.step");
  if (telemetry::metrics_enabled()) {
    const std::uint64_t sweeps =
        static_cast<std::uint64_t>(num_groups()) * (order == 2 ? 2 : 1);
    telemetry::count(telemetry::Counter::kernel_sweeps, sweeps);
    telemetry::count(telemetry::Counter::amplitudes_touched, x.size());
    telemetry::count(telemetry::Counter::bytes_moved,
                     static_cast<std::uint64_t>(step_traffic_bytes(order)));
  }
  if (order == 1) {
    sweep(dt, x, false);
  } else {
    sweep(dt / 2, x, false);
    sweep(dt / 2, x, true);
  }
}

void TrotterEvolver::evolve(std::span<cplx> x, double t, int steps,
                            int order) const {
  if (steps < 1)
    throw std::invalid_argument("TrotterEvolver::evolve: steps must be >= 1");
  const double dt = t / steps;
  for (int i = 0; i < steps; ++i) step(x, dt, order);
}

}  // namespace gecos

#include "spectral/thermal.hpp"

#include <cmath>
#include <random>
#include <stdexcept>

#include "linalg/blas1.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace gecos {

ThermalSampler::ThermalSampler(const LinearOperator& h, ThermalOptions opts)
    : op_(h),
      opts_(opts),
      dim_(h.dim()),
      evolver_(h, KrylovOptions{opts.max_subspace, opts.krylov_tol}) {
  if (opts_.num_samples < 2)
    throw std::invalid_argument("ThermalSampler: num_samples must be >= 2");
  if (!(opts_.dbeta > 0.0))
    throw std::invalid_argument("ThermalSampler: dbeta must be > 0");
  if (dim_ < 2)
    throw std::invalid_argument(
        "ThermalSampler: operator dimension must be >= 2");
  psi_.resize(dim_);
  scratch_.resize(dim_);
  o_vals_.resize(opts_.num_samples);
  logw_.resize(opts_.num_samples);
}

ThermalResult ThermalSampler::expectation(const LinearOperator& o,
                                          double beta) {
  if (o.dim() != dim_)
    throw std::invalid_argument(
        "ThermalSampler::expectation: observable dimension mismatch");
  if (!(beta >= 0.0))
    throw std::invalid_argument(
        "ThermalSampler::expectation: beta must be >= 0");

  // Re-seed per call: the sample set depends only on (seed, num_samples),
  // never on what was computed before.
  std::mt19937_64 rng(opts_.seed);
  std::normal_distribution<double> g;
  const double tau = 0.5 * beta;  // imaginary time of the half-projection
  const std::size_t chunks =
      tau > 0.0
          ? static_cast<std::size_t>(std::ceil(tau / opts_.dbeta - 1e-12))
          : 0;
  const double dtau = chunks > 0 ? tau / static_cast<double>(chunks) : 0.0;

  GECOS_SPAN("spectral.thermal.expectation");
  const std::uint64_t t0 = opts_.progress ? telemetry::now_ns() : 0;
  ThermalResult r;
  r.samples = opts_.num_samples;
  for (std::size_t s = 0; s < opts_.num_samples; ++s) {
    for (auto& x : psi_) x = cplx(g(rng), g(rng));
    vec_scale(psi_, cplx(1.0 / vec_norm(psi_)));
    // |psi> <- e^{-tau H} |psi| in renormalized chunks; the weight
    // w = ||e^{-tau H} r||^2 accumulates in log space chunk by chunk.
    double logw = 0.0;
    for (std::size_t c = 0; c < chunks; ++c) {
      evolver_.apply_expm(cplx(-dtau), psi_);
      r.matvecs += evolver_.last_matvecs();
      const double nrm = vec_norm(psi_);
      if (nrm == 0.0)
        throw std::runtime_error(
            "ThermalSampler::expectation: projected state vanished");
      logw += 2.0 * std::log(nrm);
      vec_scale(psi_, cplx(1.0 / nrm));
    }
    logw_[s] = logw;
    vec_fill(scratch_, cplx(0.0));
    o.apply_add(psi_, scratch_, cplx(1.0));
    ++r.matvecs;
    o_vals_[s] = vec_dot(psi_, scratch_).real();
    if (opts_.progress) {
      telemetry::ProgressEvent ev;
      ev.phase = "spectral.thermal";
      ev.iteration = s + 1;
      ev.total = opts_.num_samples;
      ev.matvecs = r.matvecs;
      ev.elapsed_s = static_cast<double>(telemetry::now_ns() - t0) * 1e-9;
      ev.eta_s = ev.elapsed_s / static_cast<double>(s + 1) *
                 static_cast<double>(opts_.num_samples - s - 1);
      opts_.progress(ev);
    }
  }

  // Self-normalizing ratio with weights shifted by the max log-weight: the
  // Boltzmann-dominant sample has weight 1 and the rest decay safely.
  double logmax = logw_[0];
  for (double lw : logw_) logmax = std::max(logmax, lw);
  double sw = 0.0, swo = 0.0, sz = 0.0;
  for (std::size_t s = 0; s < opts_.num_samples; ++s) {
    const double w = std::exp(logw_[s] - logmax);
    sw += w;
    swo += w * o_vals_[s];
    sz += w;
  }
  r.value = swo / sw;
  r.log_z_over_dim =
      logmax + std::log(sz / static_cast<double>(opts_.num_samples));

  // Jackknife over samples: leave-one-out ratios capture the correlation
  // between numerator and denominator of the self-normalized estimator.
  const double n = static_cast<double>(opts_.num_samples);
  double mean = 0.0;
  for (std::size_t s = 0; s < opts_.num_samples; ++s) {
    const double w = std::exp(logw_[s] - logmax);
    o_vals_[s] = (swo - w * o_vals_[s]) / (sw - w);  // reuse as theta_i
    mean += o_vals_[s];
  }
  mean /= n;
  double var = 0.0;
  for (std::size_t s = 0; s < opts_.num_samples; ++s)
    var += (o_vals_[s] - mean) * (o_vals_[s] - mean);
  r.std_error = std::sqrt((n - 1.0) / n * var);
  return r;
}

ThermalResult ThermalSampler::energy(double beta) {
  return expectation(op_, beta);
}

}  // namespace gecos

#include "serve/batch.hpp"

#include <stdexcept>

#include "solver/krylov_evolve.hpp"
#include "telemetry/telemetry.hpp"

namespace gecos::serve {

namespace {

// One N-word: |1><1| projectors at the given modes, identity elsewhere.
void add_number_word(ScbSum& sum, std::size_t num_modes,
                     std::span<const std::uint32_t> modes, cplx coeff) {
  std::vector<Scb> word(num_modes, Scb::I);
  for (const std::uint32_t m : modes) word[m] = Scb::N;
  sum.add(word, coeff);
}

// Site density n_site = sum over the site's spin modes of N.
ScbSum site_density(const HubbardParams& p, std::uint32_t site) {
  const std::size_t num_modes = hubbard_num_modes(p);
  const std::size_t x = site % p.lx;
  const std::size_t y = site / p.lx;
  ScbSum sum(num_modes);
  const int spins = p.spinful ? 2 : 1;
  for (int sp = 0; sp < spins; ++sp) {
    const std::uint32_t m = hubbard_mode(p, x, y, sp);
    add_number_word(sum, num_modes, std::span(&m, 1), cplx(1.0));
  }
  return sum;
}

}  // namespace

ScbSum build_observable(const HubbardParams& p, const ObservableSpec& obs) {
  const std::size_t sites = hubbard_num_sites(p);
  const std::size_t num_modes = hubbard_num_modes(p);
  if (obs.site_a >= sites)
    throw std::invalid_argument("build_observable: site_a out of range");
  switch (obs.kind) {
    case ObservableKind::kDensity:
      return site_density(p, obs.site_a);
    case ObservableKind::kDoublon: {
      if (!p.spinful)
        throw std::invalid_argument(
            "build_observable: doublon needs a spinful lattice");
      const std::size_t x = obs.site_a % p.lx;
      const std::size_t y = obs.site_a / p.lx;
      const std::uint32_t modes[2] = {hubbard_mode(p, x, y, 0),
                                      hubbard_mode(p, x, y, 1)};
      ScbSum sum(num_modes);
      add_number_word(sum, num_modes, modes, cplx(1.0));
      return sum;
    }
    case ObservableKind::kDensityCorr: {
      if (obs.site_b >= sites)
        throw std::invalid_argument("build_observable: site_b out of range");
      // The SCB closure does the work: N * N = N per mode, so the a == b
      // diagonal and the shared-mode cross terms collapse exactly.
      return site_density(p, obs.site_a) * site_density(p, obs.site_b);
    }
    case ObservableKind::kTotalNumber: {
      ScbSum sum(num_modes);
      for (std::uint32_t m = 0; m < num_modes; ++m)
        add_number_word(sum, num_modes, std::span(&m, 1), cplx(1.0));
      return sum;
    }
  }
  throw std::invalid_argument("build_observable: unknown observable kind");
}

BatchResult run_observable_batch(
    const SectorOperator& h, const SectorVector& psi0, double dt,
    std::size_t steps,
    std::span<const SectorOperator> observables,
    double krylov_tol, const telemetry::ProgressFn& progress) {
  if (steps == 0)
    throw std::invalid_argument("run_observable_batch: steps must be >= 1");
  for (const SectorOperator& obs : observables)
    if (!(obs.basis() == h.basis()))
      throw std::invalid_argument(
          "run_observable_batch: observable sector mismatch");
  KrylovOptions ko;
  ko.tol = krylov_tol;
  const KrylovEvolver evolver(h, ko);

  BatchResult out;
  out.times.reserve(steps);
  out.loschmidt.reserve(steps);
  out.values.reserve(steps * observables.size());

  const std::uint64_t t0 = telemetry::now_ns();
  SectorVector psi = psi0;
  for (std::size_t s = 0; s < steps; ++s) {
    evolver.step(psi.amps(), dt);
    out.matvecs += evolver.last_matvecs();
    out.times.push_back(dt * static_cast<double>(s + 1));
    const cplx overlap = psi0.inner(psi);
    out.loschmidt.push_back(std::norm(overlap));
    for (const SectorOperator& obs : observables)
      out.values.push_back(psi.expectation(obs).real());
    if (progress) {
      telemetry::ProgressEvent ev;
      ev.phase = "serve.batch";
      ev.iteration = s + 1;
      ev.total = steps;
      ev.matvecs = static_cast<std::size_t>(out.matvecs);
      ev.elapsed_s =
          static_cast<double>(telemetry::now_ns() - t0) * 1e-9;
      if (s + 1 < steps)
        ev.eta_s = ev.elapsed_s * static_cast<double>(steps - s - 1) /
                   static_cast<double>(s + 1);
      else
        ev.eta_s = 0.0;
      progress(ev);
    }
  }
  return out;
}

}  // namespace gecos::serve

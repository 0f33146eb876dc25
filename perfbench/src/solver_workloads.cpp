// The three in-process workloads, all on the n = 20 Hubbard lattice of
// bench_main's quench_lattice() (5x2 spinful, periodic in x, U = 4,
// mu = 0.5):
//
//   ground_full    — thick-restart Lanczos (k = 2, tol 1e-8) in the full
//                    2^20 space; a request is one Lanczos::solve.
//   sector_quench  — KrylovEvolver steps (dt = 0.02, tol 1e-10) of a CDW
//                    state in the (5,5) sector; a request is a window of
//                    kWindowSteps steps.
//   trotter_quench — fused Strang TrotterEvolver steps (dt = 0.02) of the
//                    same CDW state in the full space; windows as above.
//
// Each run sets up kSetups times (median reported as setup_s), then repeats
// requests until the time budget is spent (quench runs also until
// kMinWindows windows, so their p90 has ten samples beyond it).
// Correctness gates run between requests, outside every timed interval. A
// traced run measures one untraced half and one traced half of the budget;
// per-layer numbers come from the traced half, trace.overhead_frac from the
// two together.
#include <algorithm>
#include <cmath>
#include <memory>
#include <random>

#include "common.hpp"
#include "evolve/trotter.hpp"
#include "fermion/hubbard.hpp"
#include "solver/krylov_evolve.hpp"
#include "solver/lanczos.hpp"
#include "state/state_vector.hpp"
#include "symmetry/sector_operator.hpp"
#include "symmetry/sector_vector.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {

namespace {

using gecos::cplx;
namespace tm = gecos::telemetry;

constexpr int kSetups = 3;
constexpr int kWindowSteps = 5;
constexpr std::size_t kMinWindows = 100;
/// Hard stop for one measured phase, so a run ends inside its time limit.
constexpr double kMaxPhaseS = 120.0;
constexpr double kDt = 0.02;
/// Full-space ground-state energy of the lattice (bench_main kFullE0N20).
constexpr double kGroundEnergy = -13.8785798502;
/// Strang energy-drift envelope: |<H>(t) - <H>(0)| <= kStrangC * dt^2.
/// Measured when the benchmark was defined: the drift stays bounded and
/// peaks at 22.8-23.0 dt^2 for every one of the ten seed patterns over
/// ~900 steps; the gate allows 1.5x that.
constexpr double kStrangC = 35.0;

gecos::HubbardParams lattice() {
  gecos::HubbardParams p;
  p.lx = 5;
  p.ly = 2;
  p.t = 1.0;
  p.u = 4.0;
  p.mu = 0.5;
  p.periodic_x = true;
  p.spinful = true;
  return p;
}

/// The CDW product state (doubly occupied sites on one checkerboard)
/// moved by a lattice symmetry the seed picks: one of lx translations
/// along the periodic x axis, times the swap of the two legs. Every choice
/// has the same physics and per-step cost; only the input state changes.
std::uint64_t cdw_occupation(const gecos::HubbardParams& p,
                             std::uint64_t seed) {
  const std::size_t shift = seed % p.lx;
  const bool swap_legs = (seed / p.lx) % 2 == 1;
  std::uint64_t occ = 0;
  for (std::size_t y = 0; y < p.ly; ++y) {
    for (std::size_t x = 0; x < p.lx; ++x) {
      if ((x + y) % 2 != 0) continue;
      const std::size_t xs = (x + shift) % p.lx;
      const std::size_t ys = swap_legs ? p.ly - 1 - y : y;
      for (int spin = 0; spin < 2; ++spin)
        occ |= std::uint64_t{1} << gecos::hubbard_mode(p, xs, ys, spin);
    }
  }
  return occ;
}

/// Measurements of one timed phase (a sequence of requests).
struct Phase {
  std::vector<double> request_s;  // per solve / per window
  std::vector<double> step_s;     // per evolution step
  double steps = 0;               // Lanczos iterations or evolution steps
  double apply_s = 0;             // operator-apply time inside requests
  double applies = 0;             // operator applies inside requests
  double splits = 0;              // thick restarts / Krylov step splittings
  tm::MetricsSnapshot tele{};     // library counters over the requests
  ProcCounters proc{};            // process counters over the phase
};

/// True while a phase started at `start` should take another request: its
/// time budget or its minimum request count is not yet met, and the hard
/// stop is not reached.
bool keep_going(std::uint64_t start, double seconds, std::size_t requests,
                std::size_t min_requests) {
  const double elapsed = span_s(start, now_ns());
  return elapsed < kMaxPhaseS &&
         (elapsed < seconds || requests < min_requests);
}

/// Runs phases of `measure(seconds, min_requests)` per the options: one
/// untraced phase of the whole budget, or (traced) an untraced half then a
/// traced half with library metrics and span recording on. Returns
/// {untraced, traced}.
template <typename Measure>
std::pair<Phase, Phase> run_phases(const Options& opt, Measure&& measure) {
  if (!opt.trace) return {measure(opt.seconds, kMinWindows), Phase{}};
  Phase base = measure(opt.seconds / 2, 1);
  tm::set_metrics_enabled(true);
  Trace::enable();
  const ProcCounters before = self_counters();
  Phase traced = measure(opt.seconds / 2, 1);
  traced.proc = counters_delta(before, self_counters());
  return {std::move(base), std::move(traced)};
}

/// Accumulates a library-counter delta into a running total (counters and
/// histogram sums only).
void accumulate(tm::MetricsSnapshot& total, const tm::MetricsSnapshot& d) {
  for (std::size_t i = 0; i < total.counters.size(); ++i)
    total.counters[i] += d.counters[i];
  for (std::size_t i = 0; i < total.hists.size(); ++i) {
    total.hists[i].count += d.hists[i].count;
    total.hists[i].sum += d.hists[i].sum;
  }
}

/// Pool busy share of a counter total: task time / (task + idle time).
double pool_utilization(const tm::MetricsSnapshot& d) {
  const double task =
      static_cast<double>(d.hist(tm::Hist::pool_task_ns).sum);
  const double idle =
      static_cast<double>(d.hist(tm::Hist::pool_idle_ns).sum);
  return task + idle > 0.0 ? task / (task + idle) : 0.0;
}

/// Library counters of one request, when metrics are on.
class TeleScope {
 public:
  explicit TeleScope(Phase& ph) : ph_(ph), on_(tm::metrics_enabled()) {
    if (on_) before_ = tm::metrics_snapshot();
  }
  ~TeleScope() {
    if (on_)
      accumulate(ph_.tele, tm::metrics_delta(before_, tm::metrics_snapshot()));
  }

 private:
  Phase& ph_;
  bool on_;
  tm::MetricsSnapshot before_{};
};

/// Cross-check of the forwarding operator, for requests timed with library
/// metrics on: its apply count over a request must equal the library's own
/// Counter::matvecs delta (LinearOperator::apply counts every logical
/// matvec). `before` is the phase's library matvec total at the request's
/// start. solver.self_s is request time minus the forwarded applies, so an
/// operator that missed applies would inflate it; this gate catches that.
/// True when metrics are off.
bool matvecs_agree(const Phase& ph, std::uint64_t before,
                   const TimedOperator& op) {
  return !tm::metrics_enabled() ||
         ph.tele.counter(tm::Counter::matvecs) - before == op.calls();
}

/// End-to-end metrics shared by the three workloads. A "job" here is one
/// request: a solve or a quench window.
void set_end_to_end(RunResult& out, const std::vector<double>& setup,
                    const Phase& ph) {
  const double busy = total(ph.request_s);
  out.inputs["latency_samples"] = static_cast<double>(ph.request_s.size());
  out.inputs["latency_tail_pct"] = tail_percentile(ph.request_s.size());
  Values& v = out.values;
  v.set("setup_s", median(setup));
  v.set("solve_s", median(ph.request_s));
  v.set("steps_per_s", ph.steps / busy);
  v.set("jobs_per_s", static_cast<double>(ph.request_s.size()) / busy);
  v.set("job_latency_p50_s", median(ph.request_s));
  v.set("job_latency_p90_s", percentile(ph.request_s, 90.0));
  v.set("peak_rss_mb", self_counters().peak_rss_mb);
}

/// Per-layer metrics every in-process workload shares.
void set_common_layers(Values& v, const Phase& base, const Phase& traced,
                       const Tally& tally) {
  v.set("util.pool_utilization", pool_utilization(traced.tele));
  v.set("proc.cpu_s", traced.proc.cpu_s);
  v.set("proc.minor_faults", traced.proc.minor_faults);
  v.set("proc.ctx_switches", traced.proc.ctx_switches);
  v.set("trace.overhead_frac",
        median(traced.request_s) / median(base.request_s) - 1.0);
  v.set("failed_frac", tally.failed_frac());
}

/// The library's modelled traffic (Counter::bytes_moved) over the measured
/// operator-apply time, in GB/s: a model, not a measured bandwidth.
double modelled_gbs(const Phase& ph) {
  return static_cast<double>(ph.tele.counter(tm::Counter::bytes_moved)) /
         ph.apply_s * 1e-9;
}

/// Seeded Gaussian start vector for Lanczos::solve(v0).
std::vector<cplx> start_vector(std::size_t dim, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> dist;
  std::vector<cplx> v(dim);
  for (cplx& x : v) {
    const double re = dist(rng);
    x = cplx(re, dist(rng));
  }
  return v;
}

}  // namespace

void run_ground_full(const Options& opt, RunResult& out) {
  const gecos::HubbardParams p = lattice();
  gecos::LanczosOptions lo;
  lo.k = 2;
  lo.tol = 1e-8;

  std::vector<double> setup;
  std::unique_ptr<gecos::ScbSum> h;
  std::unique_ptr<TimedOperator> op;
  std::unique_ptr<gecos::Lanczos> solver;
  for (int i = 0; i < kSetups; ++i) {
    solver.reset();  // free the 784 MiB basis before building the next
    op.reset();
    h.reset();
    Span s("setup");
    h = std::make_unique<gecos::ScbSum>(gecos::hubbard_scb(p));
    op = std::make_unique<TimedOperator>(*h, "ops.apply");
    solver = std::make_unique<gecos::Lanczos>(*op, lo);
    setup.push_back(s.stop());
  }
  const std::vector<cplx> v0 = start_vector(op->dim(), opt.seed);
  out.inputs["start_vector_seed"] = static_cast<double>(opt.seed);

  const auto measure = [&](double seconds, std::size_t) {
    Phase ph;
    const std::uint64_t start = now_ns();
    do {
      op->reset();
      const std::uint64_t matvecs0 = ph.tele.counter(tm::Counter::matvecs);
      const gecos::LanczosResult* r = nullptr;
      Span s("lanczos.solve");
      {
        TeleScope tele(ph);
        r = &solver->solve(v0);
      }
      ph.request_s.push_back(s.stop());
      ph.steps += static_cast<double>(r->iterations);
      ph.splits += static_cast<double>(r->restarts);
      ph.applies += static_cast<double>(op->calls());
      ph.apply_s += op->busy_s();
      out.tally.record(
          energy_gate(r->converged, r->eigenvalues[0], kGroundEnergy, 1e-10) &&
          matvecs_agree(ph, matvecs0, *op));
      out.inputs["ground_energy"] = r->eigenvalues[0];
      out.inputs["iterations"] = static_cast<double>(r->iterations);
    } while (span_s(start, now_ns()) < seconds);
    return ph;
  };
  const auto [base, traced] = run_phases(opt, measure);

  Values& v = out.values;
  if (!opt.trace) {
    set_end_to_end(out, setup, base);
    return;
  }
  const double solves = static_cast<double>(traced.request_s.size());
  v.set("ops.apply_s", traced.apply_s / solves);
  v.set("ops.apply_ms", traced.apply_s / traced.applies * 1e3);
  v.set("ops.matvecs", traced.applies / solves);
  v.set("ops.modelled_gbs", modelled_gbs(traced));
  v.set("solver.self_s", (total(traced.request_s) - traced.apply_s) / solves);
  v.set("solver.iterations", traced.steps / solves);
  v.set("solver.restarts", traced.splits / solves);
  set_common_layers(v, base, traced, out.tally);
  // Ceilings at this workload's working sets: the 16 MiB vectors the
  // matvec streams, and the whole Krylov basis orthogonalization sweeps.
  const std::size_t vec_bytes = op->dim() * sizeof(cplx);
  solver.reset();
  v.set("host.triad_gbs", triad_gbs(vec_bytes));
  v.set("host.triad_basis_gbs",
        triad_gbs((lo.max_subspace + 1) * vec_bytes / 3));
}

void run_sector_quench(const Options& opt, RunResult& out) {
  const gecos::HubbardParams p = lattice();
  const std::uint64_t occ = cdw_occupation(p, opt.seed);
  gecos::KrylovOptions ko;
  ko.tol = 1e-10;

  std::vector<double> setup, compile_ms;
  std::unique_ptr<gecos::ScbSum> h;
  std::unique_ptr<gecos::SectorOperator> hs;
  std::unique_ptr<TimedOperator> op;
  std::unique_ptr<gecos::KrylovEvolver> ev;
  for (int i = 0; i < kSetups; ++i) {
    ev.reset();
    op.reset();
    hs.reset();
    h.reset();
    Span s("setup");
    h = std::make_unique<gecos::ScbSum>(gecos::hubbard_scb(p));
    const gecos::SectorBasis basis = gecos::hubbard_sector_of(p, occ);
    Span c("symmetry.compile");
    hs = std::make_unique<gecos::SectorOperator>(basis, *h);
    compile_ms.push_back(c.stop() * 1e3);
    op = std::make_unique<TimedOperator>(*hs, "symmetry.apply");
    ev = std::make_unique<gecos::KrylovEvolver>(*op, ko);
    setup.push_back(s.stop());
  }
  gecos::SectorVector psi = gecos::SectorVector::config_state(hs->basis(), occ);
  const double n0 = psi.norm();
  const double e0 = psi.expectation(*hs).real();
  out.inputs["cdw_occupation"] = static_cast<double>(occ);
  out.inputs["sector_dim"] = static_cast<double>(hs->dim());
  double max_drift = 0.0;

  const auto measure = [&](double seconds, std::size_t min_windows) {
    Phase ph;
    const std::uint64_t start = now_ns();
    do {
      op->reset();
      const std::uint64_t matvecs0 = ph.tele.counter(tm::Counter::matvecs);
      Span w("quench.window");
      {
        TeleScope tele(ph);
        for (int k = 0; k < kWindowSteps; ++k) {
          Span s("krylov.step");
          ev->step(psi.amps(), kDt);
          ph.step_s.push_back(s.stop());
          ph.splits += static_cast<double>(ev->last_substeps() - 1);
        }
      }
      ph.request_s.push_back(w.stop());
      ph.steps += kWindowSteps;
      ph.applies += static_cast<double>(op->calls());
      ph.apply_s += op->busy_s();
      const double drift = std::abs(psi.expectation(*hs).real() - e0);
      max_drift = std::max(max_drift, drift);
      out.tally.record(within(psi.norm(), n0, 1e-10) && drift <= 1e-8 &&
                       matvecs_agree(ph, matvecs0, *op));
    } while (keep_going(start, seconds, ph.request_s.size(), min_windows));
    return ph;
  };
  const auto [base, traced] = run_phases(opt, measure);
  out.inputs["max_energy_drift"] = max_drift;

  Values& v = out.values;
  if (!opt.trace) {
    set_end_to_end(out, setup, base);
    return;
  }
  const double windows = static_cast<double>(traced.request_s.size());
  const double per_step = traced.applies / traced.steps;
  v.set("symmetry.apply_s", traced.apply_s / windows);
  v.set("symmetry.apply_ms", traced.apply_s / traced.applies * 1e3);
  v.set("symmetry.matvecs_per_step", per_step);
  v.set("symmetry.compile_ms", median(compile_ms));
  v.set("symmetry.modelled_gbs", modelled_gbs(traced));
  v.set("solver.self_s", (total(traced.request_s) - traced.apply_s) / windows);
  v.set("solver.iterations", traced.applies / windows);
  v.set("solver.restarts", traced.splits / windows);
  set_common_layers(v, base, traced, out.tally);
  // Ceilings at the ~1 MiB sector vectors and at the part of the Krylov
  // basis one step touches.
  const std::size_t vec_bytes = hs->dim() * sizeof(cplx);
  v.set("host.triad_gbs", triad_gbs(vec_bytes));
  v.set("host.triad_basis_gbs",
        triad_gbs(static_cast<std::size_t>(std::ceil(per_step) + 1) *
                  vec_bytes / 3));
}

void run_trotter_quench(const Options& opt, RunResult& out) {
  const gecos::HubbardParams p = lattice();
  const std::uint64_t occ = cdw_occupation(p, opt.seed);
  const std::size_t n = gecos::hubbard_num_modes(p);

  std::vector<double> setup, compile_ms;
  std::unique_ptr<gecos::ScbSum> h;
  std::unique_ptr<gecos::TrotterEvolver> ev;
  for (int i = 0; i < kSetups; ++i) {
    ev.reset();
    h.reset();
    Span s("setup");
    h = std::make_unique<gecos::ScbSum>(gecos::hubbard_scb(p));
    Span c("evolve.compile");
    ev = std::make_unique<gecos::TrotterEvolver>(*h);  // fused, Strang
    compile_ms.push_back(c.stop() * 1e3);
    setup.push_back(s.stop());
  }
  gecos::StateVector psi = gecos::StateVector::product(n, occ);
  const double e0 = psi.expectation(*h).real();
  out.inputs["cdw_occupation"] = static_cast<double>(occ);
  double max_drift = 0.0;

  const auto measure = [&](double seconds, std::size_t min_windows) {
    Phase ph;
    const std::uint64_t start = now_ns();
    do {
      Span w("quench.window");
      {
        TeleScope tele(ph);
        for (int k = 0; k < kWindowSteps; ++k) {
          Span s("trotter.step");
          ev->step(psi.amps(), kDt);
          ph.step_s.push_back(s.stop());
        }
      }
      ph.request_s.push_back(w.stop());
      ph.steps += kWindowSteps;
      const double drift = std::abs(psi.expectation(*h).real() - e0);
      max_drift = std::max(max_drift, drift);
      out.tally.record(within(psi.norm(), 1.0, 1e-12) &&
                       drift <= kStrangC * kDt * kDt);
    } while (keep_going(start, seconds, ph.request_s.size(), min_windows));
    return ph;
  };
  const auto [base, traced] = run_phases(opt, measure);
  out.inputs["max_energy_drift_per_dt2"] = max_drift / (kDt * kDt);

  Values& v = out.values;
  if (!opt.trace) {
    set_end_to_end(out, setup, base);
    return;
  }
  v.set("evolve.step_ms", median(traced.step_s) * 1e3);
  v.set("evolve.compile_ms", median(compile_ms));
  v.set("evolve.modelled_gbs",
        ev->step_traffic_bytes(2) * traced.steps / total(traced.step_s) * 1e-9);
  set_common_layers(v, base, traced, out.tally);
  v.set("host.triad_gbs", triad_gbs(psi.dim() * sizeof(cplx)));
}

}  // namespace perfbench

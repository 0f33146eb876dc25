// Scheduler suite: deterministic results across scheduler instances,
// full-space ground-state and spectral jobs bitwise equal to the same
// solvers run in-process, priority ordering under a busy executor,
// observable batching (one Krylov pass for K coalesced expectation jobs,
// bitwise equal to sequential runs), cooperative cancel, runtime-failure
// kind propagation, abandon-and-resume through the job journal + solver
// checkpoint, terminal-result persistence across a process-lifetime
// boundary (simulated by a fresh Scheduler on the same state dir with the
// executor never started), the fresh-solve fallback for a checkpoint of
// another reorthogonalization policy, and the failure of a job whose
// checkpoint is corrupt.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "fermion/hubbard.hpp"
#include "io/checkpoint.hpp"
#include "serve/batch.hpp"
#include "serve/scheduler.hpp"
#include "solver/lanczos.hpp"
#include "spectral/continued_fraction.hpp"
#include "symmetry/sector_operator.hpp"
#include "symmetry/sector_vector.hpp"
#include "test_util.hpp"
#include "util/parallel.hpp"

using namespace gecos;
using namespace gecos::serve;

namespace {

/// True when fn throws a gecos::Error of `kind` whose what() names the kind
/// exactly once ("<kind>: <message>"), also when fetch() rebuilds a failed
/// job's recorded error.
bool throws_kind(ErrorKind kind, const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    const std::string what = e.what();
    const std::string prefix = std::string(error_kind_name(kind)) + ": ";
    return e.kind() == kind && what.rfind(prefix, 0) == 0 &&
           what.find(prefix, prefix.size()) == std::string::npos;
  } catch (...) {
    return false;
  }
  return false;
}

/// 3x2 spinful half-filling: sector dim C(6,3)^2 = 400, solves in tens of
/// milliseconds — the fast workhorse spec.
JobSpec small_ground() {
  JobSpec s;
  s.kind = JobKind::kGroundState;
  s.lattice.lx = 3;
  s.lattice.ly = 2;
  s.lattice.u = 4.0;
  s.lattice.mu = 0.5;
  s.lattice.periodic_x = true;
  s.lattice.spinful = true;
  s.use_sector = true;
  s.n_up = 3;
  s.n_down = 3;
  return s;
}

/// 4x2 spinful half-filling: sector dim C(8,4)^2 = 4900, seconds to solve —
/// the slow spec the ordering and resume tests lean on.
JobSpec big_ground() {
  JobSpec s = small_ground();
  s.lattice.lx = 4;
  s.n_up = 4;
  s.n_down = 4;
  return s;
}

/// Expectation job on the small lattice (CDW initial state by default);
/// per-test observable lists vary, everything else shares one evolution key.
JobSpec small_expectation(std::vector<ObservableSpec> obs) {
  JobSpec s = small_ground();
  s.kind = JobKind::kExpectation;
  s.dt = 0.05;
  s.steps = 8;
  s.observables = std::move(obs);
  return s;
}

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace

int main() {
  set_num_threads(2);
  const std::string root = "sched_test_state";
  std::error_code ec;
  std::filesystem::remove_all(root, ec);

  // -- identical specs give bitwise-identical results across instances ------
  JobResult small_ref;
  {
    Scheduler s1;
    Scheduler s2;
    const std::uint64_t i1 = s1.submit(small_ground());
    const std::uint64_t i2 = s2.submit(small_ground());
    CHECK(s1.wait(i1, 600.0));
    CHECK(s2.wait(i2, 600.0));
    const JobResult r1 = s1.fetch(i1);
    const JobResult r2 = s2.fetch(i2);
    CHECK(r1.converged && r2.converged);
    CHECK(bitwise_equal(r1.eigenvalues, r2.eigenvalues));
    CHECK(bitwise_equal(r1.residuals, r2.residuals));
    CHECK(bitwise_equal(r1.residual_history, r2.residual_history));
    CHECK_EQ(r1.matvecs, r2.matvecs);
    CHECK_EQ(r1.iterations, r2.iterations);
    small_ref = r1;
    s1.stop(false);
    s2.stop(false);
  }

  // -- full-space ground state: bitwise equal to an in-process Lanczos -----
  {
    JobSpec spec = small_ground();
    spec.use_sector = false;  // the 2^12 full space of the 3x2 lattice
    Scheduler sched;
    const std::uint64_t id = sched.submit(spec);
    CHECK(sched.wait(id, 600.0));
    const JobResult r = sched.fetch(id);
    const ScbSum h = hubbard_scb(spec.lattice);
    LanczosOptions lo;  // the scheduler's options for this spec
    lo.k = spec.num_eigenpairs;
    lo.tol = spec.tol;
    lo.max_matvecs = static_cast<std::size_t>(spec.max_matvecs);
    lo.seed = spec.seed;
    lo.compute_vectors = false;
    Lanczos solver(h, lo);
    const LanczosResult& ref = solver.solve();
    CHECK(r.converged && ref.converged);
    CHECK(bitwise_equal(r.eigenvalues, ref.eigenvalues));
    CHECK(bitwise_equal(r.residuals, ref.residuals));
    CHECK(bitwise_equal(r.residual_history, ref.residual_history));
    CHECK_EQ(r.matvecs, static_cast<std::uint64_t>(ref.matvecs));
    CHECK_EQ(r.iterations, static_cast<std::uint64_t>(ref.iterations));
    // The full space holds sectors below the half-filled one at mu = 0.5.
    CHECK(r.eigenvalues[0] <= small_ref.eigenvalues[0] + 1e-10);
    sched.stop(false);
  }

  // -- spectral job: bitwise equal to an in-process SpectralFunction --------
  {
    JobSpec spec = small_ground();
    spec.kind = JobKind::kSpectral;
    spec.observables = {{ObservableKind::kDensity, 0, 0}};  // the probe
    spec.max_moments = 48;
    spec.w_points = 65;
    Scheduler sched;
    const std::uint64_t id = sched.submit(spec);
    CHECK(sched.wait(id, 600.0));
    const JobResult r = sched.fetch(id);

    const HubbardParams& p = spec.lattice;
    const std::uint64_t occ = hubbard_cdw_occupation(p);
    const SectorOperator h(hubbard_sector_of(p, occ), hubbard_scb(p));
    const SectorOperator probe(h.basis(),
                               build_observable(p, spec.observables[0]));
    const SectorVector psi0 = SectorVector::config_state(h.basis(), occ);
    SpectralFunctionOptions so;
    so.max_moments = static_cast<std::size_t>(spec.max_moments);
    SpectralFunction sf(h, so);
    const std::size_t moments = sf.build(probe, psi0.amps());
    std::vector<double> omega(spec.w_points);
    const double dw = (spec.w_max - spec.w_min) /
                      static_cast<double>(spec.w_points - 1);
    for (std::size_t i = 0; i < omega.size(); ++i)
      omega[i] = spec.w_min + dw * static_cast<double>(i);
    std::vector<double> spectral(spec.w_points);
    sf.evaluate(omega, spec.eta, spectral);
    CHECK_EQ(r.iterations, static_cast<std::uint64_t>(moments));
    CHECK(bitwise_equal(r.omega, omega));
    CHECK(bitwise_equal(r.spectral, spectral));
    sched.stop(false);
  }

  // -- priority: a high-priority late arrival overtakes the queue -----------
  {
    Scheduler sched;
    // The blocker occupies the executor while A and B queue behind it.
    JobSpec blocker = small_expectation({});
    blocker.kind = JobKind::kQuench;
    blocker.steps = 20;
    (void)sched.submit(blocker);
    // The low-priority job is a long quench (hundreds of fixed-cost Krylov
    // steps — a much wider timing margin than a fast-converging solve).
    // Its step count differs from the blocker's so their evolution keys
    // cannot coalesce.
    JobSpec slow = small_expectation({});
    slow.kind = JobKind::kQuench;
    slow.steps = 300;
    const std::uint64_t slow_id = sched.submit(slow);
    JobSpec fast = small_ground();
    fast.priority = 5;  // submitted later, runs first
    const std::uint64_t fast_id = sched.submit(fast);
    CHECK(sched.wait(fast_id, 600.0));
    CHECK(sched.fetch(fast_id).converged);
    // The long low-priority quench cannot have finished already: the
    // executor provably took the late high-priority job first. (Margin:
    // the quench needs hundreds of Krylov steps after the fast job's
    // terminal notification; this check runs milliseconds after it.)
    CHECK(sched.status(slow_id).state != JobState::kDone);
    CHECK(sched.wait(slow_id, 600.0));
    CHECK(sched.fetch(slow_id).converged);
    sched.stop(false);
  }

  // -- observable batching: one pass, bitwise equal to sequential runs ------
  {
    const std::vector<std::vector<ObservableSpec>> requests = {
        {{ObservableKind::kDensity, 0, 0}, {ObservableKind::kDensity, 3, 0}},
        {{ObservableKind::kDoublon, 1, 0}},
        {{ObservableKind::kDensityCorr, 0, 2},
         {ObservableKind::kTotalNumber, 0, 0}},
    };

    // Batched: enqueue the backlog first, then start the executor — the
    // equal evolution keys coalesce into exactly one pass.
    SchedulerOptions batched_opts;
    batched_opts.autostart = false;
    Scheduler batched(batched_opts);
    std::vector<std::uint64_t> ids;
    for (const auto& obs : requests)
      ids.push_back(batched.submit(small_expectation(obs)));
    batched.start();
    for (const std::uint64_t id : ids) CHECK(batched.wait(id, 600.0));
    const ServerStats bs = batched.stats();
    CHECK_EQ(bs.batch_passes, 1u);
    CHECK_EQ(bs.batched_jobs, static_cast<std::uint64_t>(requests.size()));

    // Sequential: same jobs one at a time — no batching possible.
    Scheduler seq;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const std::uint64_t sid = seq.submit(small_expectation(requests[i]));
      CHECK(seq.wait(sid, 600.0));
      const JobResult sr = seq.fetch(sid);
      const JobResult br = batched.fetch(ids[i]);
      CHECK(bitwise_equal(br.times, sr.times));
      CHECK(bitwise_equal(br.loschmidt, sr.loschmidt));
      CHECK(bitwise_equal(br.values, sr.values));
      CHECK_EQ(br.values.size(),
               requests[i].size() * static_cast<std::size_t>(8));
    }
    CHECK_EQ(seq.stats().batch_passes, 0u);
    batched.stop(false);
    seq.stop(false);
  }

  // -- cancel: queued jobs cancel immediately, fetch reports cancelled ------
  {
    SchedulerOptions o;
    o.autostart = false;  // executor never runs: the job stays queued
    Scheduler sched(o);
    const std::uint64_t id = sched.submit(small_ground());
    CHECK(sched.cancel(id));
    CHECK(sched.status(id).state == JobState::kCancelled);
    CHECK(throws_kind(ErrorKind::cancelled, [&] { (void)sched.fetch(id); }));
    CHECK(!sched.cancel(id));  // already terminal
    CHECK(throws_kind(ErrorKind::not_found, [&] { (void)sched.cancel(999); }));
    CHECK(throws_kind(ErrorKind::not_found, [&] { (void)sched.status(999); }));
    // wait() on a job that will never run times out false, not hang.
    CHECK(!sched.wait(sched.submit(small_ground()), 0.05));
    CHECK_EQ(sched.list().size(), 2u);
    CHECK_EQ(sched.stats().cancelled, 1u);
  }

  // -- runtime failures carry a machine-readable kind -----------------------
  {
    Scheduler sched;
    // Bits above the lattice's 12 modes pass spec validation (the sector
    // counts mask them off) but make the initial configuration invalid at
    // state-construction time — a runtime failure, not a submit rejection.
    JobSpec bad = small_expectation({{ObservableKind::kDensity, 0, 0}});
    bad.initial_occupation = (1ull << 40) | 0b111000111;
    const std::uint64_t id = sched.submit(bad);
    CHECK(sched.wait(id, 600.0));
    const JobStatus st = sched.status(id);
    CHECK(st.state == JobState::kFailed);
    CHECK_EQ(st.error_kind, std::string("protocol"));
    CHECK(!st.error_message.empty());
    CHECK(throws_kind(ErrorKind::protocol, [&] { (void)sched.fetch(id); }));
    CHECK_EQ(sched.stats().failed, 1u);
    sched.stop(false);
  }

  // -- abandon + restart: the journal and checkpoint survive a stop ---------
  {
    JobSpec spec = big_ground();
    spec.checkpoint_interval = 25;

    // Uninterrupted reference on its own state dir.
    JobResult ref;
    {
      SchedulerOptions o;
      o.state_dir = root + "/ref";
      Scheduler sched(o);
      const std::uint64_t id = sched.submit(spec);
      CHECK(sched.wait(id, 600.0));
      ref = sched.fetch(id);
      sched.stop(false);
    }

    // Interrupted run: stop(abandon) mid-solve, then a successor scheduler
    // on the same state dir picks the journaled job back up. If the solve
    // wins the race and finishes first, the comparison still must hold —
    // the test degrades to terminal-journal persistence.
    const std::string dir = root + "/resume";
    std::uint64_t id = 0;
    {
      SchedulerOptions o;
      o.state_dir = dir;
      Scheduler sched(o);
      id = sched.submit(spec);
      // Give the solve time to make real progress (and usually write a
      // checkpoint) before abandoning it.
      for (int poll = 0; poll < 200; ++poll) {
        const JobStatus st = sched.status(id);
        if (st.state != JobState::kQueued && st.matvecs > 30) break;
        if (st.state == JobState::kDone) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      sched.stop(true);
    }
    JobResult resumed;
    {
      SchedulerOptions o;
      o.state_dir = dir;
      Scheduler sched(o);
      CHECK(sched.wait(id, 600.0));  // same id, straight from the journal
      resumed = sched.fetch(id);
      sched.stop(false);
    }
    // The PR 6 resume contract: eigenvalues, residuals and the matvec /
    // iteration counts are bit-identical to the uninterrupted run.
    // residual_history is deliberately NOT compared — a resumed solve
    // reports the history since the checkpoint, not a replay of the past
    // (same contract tests/test_resume.cpp and tools/serve_smoke.cpp pin).
    CHECK(resumed.converged);
    CHECK(bitwise_equal(resumed.eigenvalues, ref.eigenvalues));
    CHECK(bitwise_equal(resumed.residuals, ref.residuals));
    CHECK_EQ(resumed.matvecs, ref.matvecs);
    CHECK_EQ(resumed.iterations, ref.iterations);

    // Terminal persistence: a third scheduler that never starts its
    // executor serves the done result purely from the journal.
    {
      SchedulerOptions o;
      o.state_dir = dir;
      o.autostart = false;
      Scheduler sched(o);
      const JobResult from_journal = sched.fetch(id);
      CHECK(bitwise_equal(from_journal.eigenvalues, resumed.eigenvalues));
      CHECK(bitwise_equal(from_journal.residual_history,
                          resumed.residual_history));
      CHECK_EQ(from_journal.matvecs, resumed.matvecs);
      CHECK(from_journal.converged);
    }
  }

  // -- a checkpoint the solver rejects is dropped, not a failed job ---------
  {
    // A daemon upgraded across a change of the default reorthogonalization
    // policy finds its predecessor's checkpoint under the job's key. resume()
    // rejects it (Error{dim_mismatch}); the job must solve from the start
    // and match a fresh solve bit for bit.
    JobSpec spec = small_ground();
    spec.checkpoint_interval = 10;
    const std::string dir = root + "/policy";
    std::filesystem::create_directories(dir);
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(job_key(spec)));
    const std::string ck = dir + "/ck_" + hex + ".ckpt";
    {
      const ScbSum h = hubbard_scb(spec.lattice);
      const SectorOperator hs(
          hubbard_sector(spec.lattice, spec.n_up, spec.n_down), h);
      LanczosOptions lo;
      lo.k = spec.num_eigenpairs;
      lo.compute_vectors = false;
      lo.reorth = LanczosReorth::kFull;
      lo.checkpoint_path = ck;
      lo.checkpoint_interval = 10;
      CHECK(Lanczos(hs, lo).solve().checkpoints_written > 0);
    }
    CHECK(checkpoint_exists(ck));
    SchedulerOptions o;
    o.state_dir = dir;
    Scheduler sched(o);
    const std::uint64_t id = sched.submit(spec);
    CHECK(sched.wait(id, 600.0));
    CHECK_EQ(sched.stats().failed, 0u);
    const bool done = sched.status(id).state == JobState::kDone;
    CHECK(done);
    if (done) {  // fetch() of a failed job would throw its recorded Error
      const JobResult r = sched.fetch(id);
      CHECK(r.converged);
      CHECK(!r.resumed);
      CHECK(bitwise_equal(r.eigenvalues, small_ref.eigenvalues));
      CHECK(bitwise_equal(r.residuals, small_ref.residuals));
      CHECK_EQ(r.matvecs, small_ref.matvecs);
      CHECK(!checkpoint_exists(ck));  // the finished job cleans up
    }
    sched.stop(false);
  }

  // -- a corrupt checkpoint fails the job, naming its kind once -------------
  {
    // Garbage bytes under the job's checkpoint name: resume() reports
    // io_corrupt, which (unlike dim_mismatch) fails the job. The recorded
    // message carries no "io_corrupt: " prefix of its own, so the Error
    // fetch() rebuilds from kind + message names the kind exactly once.
    JobSpec spec = small_ground();
    spec.checkpoint_interval = 10;
    const std::string dir = root + "/corrupt";
    std::filesystem::create_directories(dir);
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(job_key(spec)));
    std::ofstream(dir + "/ck_" + hex + ".ckpt", std::ios::binary)
        << "not a checkpoint";
    SchedulerOptions o;
    o.state_dir = dir;
    Scheduler sched(o);
    const std::uint64_t id = sched.submit(spec);
    CHECK(sched.wait(id, 600.0));
    const JobStatus st = sched.status(id);
    CHECK(st.state == JobState::kFailed);
    CHECK_EQ(st.error_kind, std::string("io_corrupt"));
    CHECK(!st.error_message.empty());
    CHECK(st.error_message.find("io_corrupt: ") == std::string::npos);
    CHECK(throws_kind(ErrorKind::io_corrupt, [&] { (void)sched.fetch(id); }));
    sched.stop(false);
  }

  std::filesystem::remove_all(root, ec);
  return gecos::test::finish("test_scheduler");
}

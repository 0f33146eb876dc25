#include "serve/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "io/checkpoint.hpp"
#include "serve/batch.hpp"
#include "solver/lanczos.hpp"
#include "spectral/continued_fraction.hpp"
#include "symmetry/sector_vector.hpp"
#include "telemetry/telemetry.hpp"

namespace gecos::serve {

namespace {

// Internal control-flow exceptions thrown by the progress callback to pull
// a solver off the executor thread. Never escape the scheduler.
struct JobCancelled {};
struct JobAbandoned {};

bool is_terminal(JobState s) {
  return s == JobState::kDone || s == JobState::kFailed ||
         s == JobState::kCancelled;
}

bool is_evolution(JobKind k) {
  return k == JobKind::kQuench || k == JobKind::kExpectation;
}

// The evolution start state: explicit occupation, or the CDW default.
std::uint64_t initial_occupation(const JobSpec& spec) {
  return spec.initial_occupation != 0
             ? spec.initial_occupation
             : hubbard_cdw_occupation(spec.lattice);
}

void fill_ground_state(JobResult& out, const LanczosResult& res) {
  out.kind = JobKind::kGroundState;
  out.eigenvalues = res.eigenvalues;
  out.residuals = res.residuals;
  out.residual_history = res.residual_history;
  out.matvecs = res.matvecs;
  out.iterations = res.iterations;
  out.converged = res.converged;
  out.resumed = res.resumed;
}

}  // namespace

Scheduler::Scheduler(SchedulerOptions opts) : opts_(std::move(opts)) {
  if (!opts_.state_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opts_.state_dir, ec);
    if (ec)
      throw Error(ErrorKind::io_corrupt,
                  "cannot create state dir " + opts_.state_dir);
    if (opts_.resume_jobs) load_journals();
  }
  if (opts_.autostart) start();
}

Scheduler::~Scheduler() { stop(/*abandon_running=*/true); }

std::uint64_t Scheduler::submit(const JobSpec& spec) {
  validate_job_spec(spec);
  std::unique_lock<std::mutex> lk(mutex_);
  const std::uint64_t id = next_id_++;
  Job job;
  job.id = id;
  job.spec = spec;
  job.key = job_key(spec);
  ++submitted_;
  telemetry::count(telemetry::Counter::jobs_submitted);
  write_journal_locked(job);
  jobs_.emplace(id, std::move(job));
  work_cv_.notify_one();
  return id;
}

bool Scheduler::cancel(std::uint64_t id) {
  std::unique_lock<std::mutex> lk(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end())
    throw Error(ErrorKind::not_found, "no such job: " + std::to_string(id));
  Job& job = it->second;
  if (is_terminal(job.state)) return false;
  job.cancel_requested = true;
  if (job.state == JobState::kQueued) {
    job.state = JobState::kCancelled;
    ++cancelled_;
    write_journal_locked(job);
    cv_.notify_all();
  }
  return true;
}

JobStatus Scheduler::status(std::uint64_t id) const {
  std::unique_lock<std::mutex> lk(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end())
    throw Error(ErrorKind::not_found, "no such job: " + std::to_string(id));
  return status_locked(it->second);
}

std::vector<JobStatus> Scheduler::list() const {
  std::unique_lock<std::mutex> lk(mutex_);
  std::vector<JobStatus> out;
  out.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) out.push_back(status_locked(job));
  return out;
}

JobResult Scheduler::fetch(std::uint64_t id) const {
  std::unique_lock<std::mutex> lk(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end())
    throw Error(ErrorKind::not_found, "no such job: " + std::to_string(id));
  const Job& job = it->second;
  switch (job.state) {
    case JobState::kDone:
      return job.result;
    case JobState::kCancelled:
      throw Error(ErrorKind::cancelled,
                  "job " + std::to_string(id) + " was cancelled");
    case JobState::kFailed: {
      ErrorKind kind = ErrorKind::breakdown;
      parse_error_kind(job.error_kind, kind);
      throw Error(kind, job.error_message);
    }
    case JobState::kQueued:
    case JobState::kRunning:
      throw Error(ErrorKind::not_found,
                  "job " + std::to_string(id) + " has no result yet");
  }
  throw Error(ErrorKind::not_found, "job in unknown state");
}

bool Scheduler::wait(std::uint64_t id, double timeout_s) const {
  std::unique_lock<std::mutex> lk(mutex_);
  if (jobs_.find(id) == jobs_.end())
    throw Error(ErrorKind::not_found, "no such job: " + std::to_string(id));
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_s));
  return cv_.wait_until(lk, deadline, [&] {
    auto it = jobs_.find(id);
    return it != jobs_.end() && is_terminal(it->second.state);
  });
}

ServerStats Scheduler::stats() const {
  std::unique_lock<std::mutex> lk(mutex_);
  ServerStats st;
  st.submitted = submitted_;
  st.completed = completed_;
  st.failed = failed_;
  st.cancelled = cancelled_;
  st.batch_passes = batch_passes_;
  st.batched_jobs = batched_jobs_;
  for (const auto& [id, job] : jobs_) {
    if (job.state == JobState::kQueued) ++st.queue_depth;
    if (job.state == JobState::kRunning) ++st.running;
  }
  return st;
}

void Scheduler::start() {
  std::unique_lock<std::mutex> lk(mutex_);
  if (running_) return;
  stopping_ = false;
  abandon_ = false;
  running_ = true;
  executor_ = std::thread([this] { executor_loop(); });
}

void Scheduler::stop(bool abandon_running) {
  {
    std::unique_lock<std::mutex> lk(mutex_);
    if (!running_) return;
    stopping_ = true;
    abandon_ = abandon_running;
    work_cv_.notify_all();
  }
  executor_.join();
  std::unique_lock<std::mutex> lk(mutex_);
  running_ = false;
  stopping_ = false;
  abandon_ = false;
}

void Scheduler::executor_loop() {
  std::unique_lock<std::mutex> lk(mutex_);
  while (true) {
    work_cv_.wait(lk, [&] {
      if (stopping_) return true;
      for (const auto& [id, job] : jobs_)
        if (job.state == JobState::kQueued) return true;
      return false;
    });
    if (stopping_) return;
    // Highest priority first; the id-ascending map walk breaks ties toward
    // the earliest submission (strict > keeps the first seen).
    std::uint64_t best = 0;
    const Job* best_job = nullptr;
    for (const auto& [id, job] : jobs_) {
      if (job.state != JobState::kQueued) continue;
      if (best_job == nullptr || job.spec.priority > best_job->spec.priority) {
        best = id;
        best_job = &job;
      }
    }
    if (best_job == nullptr) continue;  // lost a race with cancel()
    jobs_.at(best).state = JobState::kRunning;
    lk.unlock();
    run_job(best);
    lk.lock();
  }
}

void Scheduler::run_job(std::uint64_t leader) {
  std::vector<std::uint64_t> ids{leader};
  JobSpec spec;
  {
    std::unique_lock<std::mutex> lk(mutex_);
    spec = jobs_.at(leader).spec;
    if (is_evolution(spec.kind)) {
      // Observable batching: pull every queued job riding the same
      // evolution into this pass (a quench is an expectation job with zero
      // observables, so the two kinds coalesce freely).
      const std::uint64_t ekey = evolution_key(spec);
      for (auto& [id, job] : jobs_) {
        if (id == leader || job.state != JobState::kQueued) continue;
        if (!is_evolution(job.spec.kind)) continue;
        if (evolution_key(job.spec) != ekey) continue;
        job.state = JobState::kRunning;
        ids.push_back(id);
      }
    }
  }
  try {
    switch (spec.kind) {
      case JobKind::kGroundState: {
        JobResult result;
        run_ground_state(spec, leader, result);
        finish_done(leader, std::move(result));
        break;
      }
      case JobKind::kQuench:
      case JobKind::kExpectation:
        run_evolution_batch(ids);
        break;
      case JobKind::kSpectral: {
        JobResult result;
        run_spectral(spec, leader, result);
        finish_done(leader, std::move(result));
        break;
      }
    }
  } catch (const JobAbandoned&) {
    for (const std::uint64_t id : ids) requeue(id);
  } catch (const JobCancelled&) {
    for (const std::uint64_t id : ids) finish_cancelled(id);
  } catch (const Error& e) {
    for (const std::uint64_t id : ids)
      finish_failed(id, e.kind(), e.message());
  } catch (const std::invalid_argument& e) {
    // validate_job_spec should have caught this at submit; a leak through
    // is still the requester's data, not solver state.
    for (const std::uint64_t id : ids)
      finish_failed(id, ErrorKind::protocol, e.what());
  } catch (const std::exception& e) {
    for (const std::uint64_t id : ids)
      finish_failed(id, ErrorKind::breakdown, e.what());
  }
}

void Scheduler::run_ground_state(const JobSpec& spec, std::uint64_t id,
                                 JobResult& out) {
  LanczosOptions lo;
  lo.k = spec.num_eigenpairs;
  lo.tol = spec.tol;
  lo.max_matvecs = static_cast<std::size_t>(spec.max_matvecs);
  lo.seed = spec.seed;
  lo.compute_vectors = false;
  lo.progress = progress_for(id, /*cancel_throws=*/true);
  std::string ck;
  if (!opts_.state_dir.empty() && spec.checkpoint_interval > 0) {
    ck = checkpoint_path(job_key(spec));
    lo.checkpoint_path = ck;
    lo.checkpoint_interval =
        static_cast<std::size_t>(spec.checkpoint_interval);
  }
  const auto run = [&](const LinearOperator& h) {
    Lanczos solver(h, lo);
    const LanczosResult* res = nullptr;
    if (!ck.empty() && checkpoint_exists(ck)) {
      try {
        res = &solver.resume(ck);
      } catch (const Error& e) {
        // A checkpoint of another solver geometry or reorthogonalization
        // policy (one written by an older build, say) can never resume
        // here: drop it and solve from the start. resume() rejects it
        // before touching solver state. Any other error fails the job.
        if (e.kind() != ErrorKind::dim_mismatch) throw;
        remove_checkpoint(ck);
      }
    }
    fill_ground_state(out, res != nullptr ? *res : solver.solve());
  };
  if (spec.use_sector) {
    run(SectorOperator(hubbard_sector(spec.lattice, spec.n_up, spec.n_down),
                       hubbard_scb(spec.lattice)));
  } else {
    run(hubbard_scb(spec.lattice));
  }
  if (!ck.empty()) remove_checkpoint(ck);
}

void Scheduler::run_evolution_batch(const std::vector<std::uint64_t>& ids) {
  std::vector<JobSpec> specs;
  specs.reserve(ids.size());
  {
    std::unique_lock<std::mutex> lk(mutex_);
    for (const std::uint64_t id : ids) specs.push_back(jobs_.at(id).spec);
  }
  const JobSpec& lead = specs.front();
  const HubbardParams& p = lead.lattice;
  const std::uint64_t occ = initial_occupation(lead);

  // Union the observable lists; cols[i] maps job i's observables to columns
  // of the combined per-step sweep.
  std::vector<ObservableSpec> combined;
  std::vector<std::vector<std::size_t>> cols(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    for (const ObservableSpec& o : specs[i].observables) {
      std::size_t at = combined.size();
      for (std::size_t c = 0; c < combined.size(); ++c) {
        if (combined[c].kind == o.kind && combined[c].site_a == o.site_a &&
            combined[c].site_b == o.site_b) {
          at = c;
          break;
        }
      }
      if (at == combined.size()) combined.push_back(o);
      cols[i].push_back(at);
    }
  }

  const SectorOperator h(hubbard_sector_of(p, occ), hubbard_scb(p));
  std::vector<SectorOperator> obs_ops;
  obs_ops.reserve(combined.size());
  for (const ObservableSpec& o : combined)
    obs_ops.emplace_back(h.basis(), build_observable(p, o));
  const SectorVector psi0 = SectorVector::config_state(h.basis(), occ);

  const BatchResult br = run_observable_batch(
      h, psi0, lead.dt, static_cast<std::size_t>(lead.steps), obs_ops,
      lead.tol, progress_for(ids.front(), /*cancel_throws=*/false));

  if (ids.size() > 1) {
    std::unique_lock<std::mutex> lk(mutex_);
    ++batch_passes_;
    batched_jobs_ += ids.size();
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    JobResult r;
    r.kind = specs[i].kind;
    r.times = br.times;
    r.loschmidt = br.loschmidt;
    r.matvecs = br.matvecs;
    r.iterations = lead.steps;
    r.converged = true;
    r.values.reserve(br.times.size() * cols[i].size());
    for (std::size_t s = 0; s < br.times.size(); ++s)
      for (const std::size_t c : cols[i])
        r.values.push_back(br.values[s * combined.size() + c]);
    finish_done(ids[i], std::move(r));
  }
}

void Scheduler::run_spectral(const JobSpec& spec, std::uint64_t id,
                             JobResult& out) {
  const HubbardParams& p = spec.lattice;
  const std::uint64_t occ = initial_occupation(spec);
  const SectorOperator h(hubbard_sector_of(p, occ), hubbard_scb(p));
  const SectorVector psi0 = SectorVector::config_state(h.basis(), occ);

  SpectralFunctionOptions so;
  so.max_moments = static_cast<std::size_t>(spec.max_moments);
  so.progress = progress_for(id, /*cancel_throws=*/true);
  SpectralFunction sf(h, so);
  std::size_t moments = 0;
  if (!spec.observables.empty()) {
    const SectorOperator probe(
        h.basis(), build_observable(p, spec.observables.front()));
    moments = sf.build(probe, psi0.amps());
  } else {
    moments = sf.build(psi0.amps());
  }

  out.kind = JobKind::kSpectral;
  out.iterations = moments;
  out.matvecs = moments;
  out.converged = true;
  out.omega.resize(spec.w_points);
  const double dw = (spec.w_max - spec.w_min) /
                    static_cast<double>(spec.w_points - 1);
  for (std::uint64_t i = 0; i < spec.w_points; ++i)
    out.omega[i] = spec.w_min + dw * static_cast<double>(i);
  out.spectral.resize(spec.w_points);
  sf.evaluate(out.omega, spec.eta, out.spectral);
}

void Scheduler::finish_done(std::uint64_t id, JobResult result) {
  std::unique_lock<std::mutex> lk(mutex_);
  Job& job = jobs_.at(id);
  if (job.cancel_requested) {
    // Cancelled mid-run but the pass carried it to completion (evolution
    // riders); honor the cancellation, drop the result.
    job.state = JobState::kCancelled;
    ++cancelled_;
  } else {
    job.state = JobState::kDone;
    job.result = std::move(result);
    ++completed_;
    telemetry::count(telemetry::Counter::jobs_completed);
  }
  write_journal_locked(job);
  cv_.notify_all();
}

void Scheduler::finish_failed(std::uint64_t id, ErrorKind kind,
                              const std::string& message) {
  std::unique_lock<std::mutex> lk(mutex_);
  Job& job = jobs_.at(id);
  job.state = JobState::kFailed;
  job.error_kind = error_kind_name(kind);
  job.error_message = message;
  ++failed_;
  write_journal_locked(job);
  cv_.notify_all();
}

void Scheduler::finish_cancelled(std::uint64_t id) {
  std::unique_lock<std::mutex> lk(mutex_);
  Job& job = jobs_.at(id);
  job.state = JobState::kCancelled;
  ++cancelled_;
  write_journal_locked(job);
  cv_.notify_all();
}

void Scheduler::requeue(std::uint64_t id) {
  std::unique_lock<std::mutex> lk(mutex_);
  Job& job = jobs_.at(id);
  job.state = JobState::kQueued;
  job.iteration = 0;
  job.matvecs = 0;
  job.metric = 0.0;
  job.target = 0.0;
  job.elapsed_s = 0.0;
  job.eta_s = -1.0;
  // The journal already says queued (running is never journaled), and the
  // solver checkpoint — keyed by job_key — stays on disk, so a successor
  // scheduler resumes instead of restarting.
  cv_.notify_all();
}

std::string Scheduler::journal_path(std::uint64_t id) const {
  return opts_.state_dir + "/job_" + std::to_string(id) + ".job";
}

std::string Scheduler::checkpoint_path(std::uint64_t key) const {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(key));
  return opts_.state_dir + "/ck_" + hex + ".ckpt";
}

void Scheduler::write_journal_locked(const Job& job) {
  if (opts_.state_dir.empty()) return;
  PayloadWriter w;
  w.put_u64(job.id);
  const JobState journaled =
      job.state == JobState::kRunning ? JobState::kQueued : job.state;
  w.put_u32(static_cast<std::uint32_t>(journaled));
  encode_job_spec(w, job.spec);
  if (journaled == JobState::kDone) encode_job_result(w, job.result);
  if (journaled == JobState::kFailed) {
    w.put_string(job.error_kind);
    w.put_string(job.error_message);
  }
  write_checkpoint(journal_path(job.id), PayloadKind::kServeJob, w.bytes());
}

void Scheduler::load_journals() {
  namespace fs = std::filesystem;
  std::error_code ec;
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(opts_.state_dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 8 && name.rfind("job_", 0) == 0 &&
        name.compare(name.size() - 4, 4, ".job") == 0)
      paths.push_back(entry.path().string());
  }
  std::sort(paths.begin(), paths.end());
  for (const std::string& path : paths) {
    try {
      const Checkpoint ck = read_checkpoint(path, PayloadKind::kServeJob);
      PayloadReader r(ck.payload);
      Job job;
      job.id = r.get_u64();
      const std::uint32_t state = r.get_u32();
      job.spec = decode_job_spec(r);
      job.key = job_key(job.spec);
      switch (static_cast<JobState>(state)) {
        case JobState::kQueued:
        case JobState::kRunning:  // defensive: treat as queued
          job.state = JobState::kQueued;
          break;
        case JobState::kDone:
          job.state = JobState::kDone;
          job.result = decode_job_result(r);
          break;
        case JobState::kFailed:
          job.state = JobState::kFailed;
          job.error_kind = r.get_string();
          job.error_message = r.get_string();
          break;
        case JobState::kCancelled:
          job.state = JobState::kCancelled;
          break;
        default:
          throw Error(ErrorKind::io_corrupt, "unknown journaled job state");
      }
      r.require_end();
      next_id_ = std::max(next_id_, job.id + 1);
      jobs_.insert_or_assign(job.id, std::move(job));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "gecos-serve: skipping damaged job journal %s: %s\n",
                   path.c_str(), e.what());
    }
  }
}

JobStatus Scheduler::status_locked(const Job& job) const {
  JobStatus st;
  st.id = job.id;
  st.state = job.state;
  st.kind = job.spec.kind;
  st.priority = job.spec.priority;
  st.iteration = job.iteration;
  st.matvecs = job.matvecs;
  st.metric = job.metric;
  st.target = job.target;
  st.elapsed_s = job.elapsed_s;
  st.eta_s = job.eta_s;
  st.error_kind = job.error_kind;
  st.error_message = job.error_message;
  return st;
}

telemetry::ProgressFn Scheduler::progress_for(std::uint64_t id,
                                              bool cancel_throws) {
  return [this, id, cancel_throws](const telemetry::ProgressEvent& ev) {
    std::unique_lock<std::mutex> lk(mutex_);
    Job& job = jobs_.at(id);
    job.iteration = ev.iteration;
    job.matvecs = ev.matvecs;
    job.metric = ev.metric;
    job.target = ev.target;
    job.elapsed_s = ev.elapsed_s;
    job.eta_s = ev.eta_s;
    if (abandon_) throw JobAbandoned{};
    if (cancel_throws && job.cancel_requested) throw JobCancelled{};
  };
}

}  // namespace gecos::serve

// Job scheduler: priority queue, durable jobs, observable batching.
//
// The execution core of gecosd, usable in-process without any socket (the
// serve_batch bench and the scheduler tests drive it directly; the Server
// is a thin protocol shim over it). One executor thread drains a priority
// queue (higher priority first, submission order within a priority); the
// solvers themselves parallelize through the existing thread pool, so one
// job at a time saturates the machine and jobs never fight over it. Each
// job compiles its own Hamiltonian, sector operator and observables from
// the lattice and frees them when it ends: a compile costs 1-4% of the run
// that uses it, so no object outlives its job.
//
// Durability rides entirely on src/io/: every submitted job is journaled
// to `<state_dir>/job_<id>.job` (PayloadKind::kServeJob) at accept time
// and rewritten only on reaching a terminal state, so a SIGKILL'd daemon
// restarts with every non-terminal job re-enqueued. Ground-state jobs with
// a checkpoint_interval additionally write the PR 6 Lanczos checkpoint at
// `<state_dir>/ck_<job_key>.ckpt`; on restart the re-enqueued job resumes
// from it, and the PR 6 guarantee — a resumed trajectory is bit-identical
// to the uninterrupted one for a fixed thread count — now holds end-to-end
// through a daemon kill (pinned by tools/serve_smoke.cpp in CI). The
// checkpoint is keyed by job_key(), not job id, so a warm re-submission of
// an identical spec also finds it. A checkpoint that Lanczos::resume
// rejects as another geometry or reorthogonalization policy (written by
// an older build) is removed and the job solves from the start.
//
// Observable batching: when the executor pops an expectation job it
// collects EVERY other queued expectation job with the same
// evolution_key(), unions their observable lists, runs ONE
// run_observable_batch() pass and splits the columns back out per job —
// K requests against one (H, psi0) trajectory cost one evolution. Cancel
// is cooperative: queued jobs cancel immediately; a running ground-state
// job observes the flag at its next progress callback; evolution jobs
// check at terminal transition. See DESIGN.md "Serving layer".
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.hpp"
#include "telemetry/progress.hpp"

namespace gecos::serve {

/// Tuning knobs for a Scheduler.
struct SchedulerOptions {
  /// Directory for job journals and solver checkpoints; empty disables
  /// persistence entirely (jobs die with the process). Created if absent.
  std::string state_dir;
  /// Scan state_dir at construction and re-enqueue non-terminal jobs.
  bool resume_jobs = true;
  /// Start the executor thread immediately. false lets tests enqueue a
  /// deterministic backlog and then call start().
  bool autostart = true;
};

/// Priority job queue + executor + durable job journal.
class Scheduler {
 public:
  /// Loads/resumes journaled jobs when state_dir is set and (unless
  /// autostart is off) starts the executor thread.
  explicit Scheduler(SchedulerOptions opts = {});
  /// Stops the executor (abandoning a running job back to the queue
  /// journal, checkpoint intact) and joins it.
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;             ///< one owner
  Scheduler& operator=(const Scheduler&) = delete;  ///< one owner

  /// Validates, journals and enqueues a job; returns its id. Throws
  /// Error{protocol} on an invalid spec.
  std::uint64_t submit(const JobSpec& spec);

  /// Requests cancellation. Returns true when the job will end cancelled
  /// (it was queued, or running and will observe the flag); false when it
  /// is already terminal. Throws Error{not_found} on an unknown id.
  bool cancel(std::uint64_t id);

  /// Point-in-time status snapshot. Throws Error{not_found}.
  JobStatus status(std::uint64_t id) const;

  /// Status of every known job, id-ascending.
  std::vector<JobStatus> list() const;

  /// Result of a kDone job. Throws Error{not_found} on an unknown or
  /// still-pending id, Error{cancelled} on a cancelled job, and the job's
  /// own recorded Error on a failed one.
  JobResult fetch(std::uint64_t id) const;

  /// Blocks until the job is terminal or timeout_s elapses; returns true
  /// when terminal. Throws Error{not_found}.
  bool wait(std::uint64_t id, double timeout_s) const;

  /// Aggregate counters (job totals, queue depth, batch passes); the
  /// reserved cache fields read 0.
  ServerStats stats() const;

  /// Starts the executor thread if not running (autostart=false path).
  void start();

  /// Stops the executor and joins it. abandon_running interrupts a running
  /// ground-state job at its next progress callback and re-journals it
  /// queued (checkpoint intact, so a successor scheduler resumes it);
  /// false waits for the running job to finish first. Queued jobs stay
  /// queued in the journal either way.
  void stop(bool abandon_running);

 private:
  struct Job {
    std::uint64_t id = 0;
    JobSpec spec;
    std::uint64_t key = 0;       // job_key(spec)
    JobState state = JobState::kQueued;
    JobResult result;            // valid when state == kDone
    std::string error_kind;      // valid when state == kFailed
    std::string error_message;   // valid when state == kFailed
    bool cancel_requested = false;
    // Live progress (updated by the solver's progress callback).
    std::uint64_t iteration = 0;
    std::uint64_t matvecs = 0;
    double metric = 0.0;
    double target = 0.0;
    double elapsed_s = 0.0;
    double eta_s = -1.0;
  };

  void executor_loop();
  // Runs one popped job (plus coalesced batch peers for expectation jobs)
  // outside the lock; commits terminal states back under it.
  void run_job(std::uint64_t id);
  void run_ground_state(const JobSpec& spec, std::uint64_t id,
                        JobResult& out);
  void run_evolution_batch(const std::vector<std::uint64_t>& ids);
  void run_spectral(const JobSpec& spec, std::uint64_t id, JobResult& out);
  // Terminal-state commit helpers (lock taken inside).
  void finish_done(std::uint64_t id, JobResult result);
  void finish_failed(std::uint64_t id, ErrorKind kind,
                     const std::string& message);
  void finish_cancelled(std::uint64_t id);
  // Journal I/O (no lock requirements; paths derived from opts_).
  std::string journal_path(std::uint64_t id) const;
  std::string checkpoint_path(std::uint64_t key) const;
  void write_journal_locked(const Job& job);
  void load_journals();
  JobStatus status_locked(const Job& job) const;
  // Progress callback bridging a solver to one job's live fields; throws
  // to implement abandon, and — when cancel_throws (single-job kinds only;
  // a batched pass must not die because one rider cancelled) — cancel.
  telemetry::ProgressFn progress_for(std::uint64_t id, bool cancel_throws);
  void requeue(std::uint64_t id);

  SchedulerOptions opts_;
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;       // job state transitions
  std::condition_variable work_cv_;          // queue/not-stopping changes
  std::map<std::uint64_t, Job> jobs_;
  std::uint64_t next_id_ = 1;
  bool running_ = false;    // executor thread live
  bool stopping_ = false;   // executor asked to exit
  bool abandon_ = false;    // interrupt the running solve via its callback
  std::thread executor_;
  // Aggregate counters (protected by mutex_).
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t batch_passes_ = 0;
  std::uint64_t batched_jobs_ = 0;
};

}  // namespace gecos::serve

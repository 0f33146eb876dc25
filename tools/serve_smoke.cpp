// Client/server smoke: daemon kill-and-resume, end to end over the socket.
//
// The serving layer's headline durability claim is that a SIGKILL'd daemon
// loses no work: journaled jobs re-enqueue on restart and a mid-flight
// ground-state solve resumes from its solver checkpoint bit-identically
// (for a fixed thread count). This harness proves it with a real daemon
// process and a real SIGKILL:
//
//   1. reference: an in-process Scheduler solves the job uninterrupted
//   2. fork+exec gecosd, submit the same spec over the socket
//   3. poll for the solver checkpoint file, then SIGKILL the daemon
//   4. restart gecosd on the same state dir, poll the SAME job id to done
//   5. assert the job resumed from the checkpoint, its E0 is the recorded
//      n = 20 ground-state energy to 1e-10, and its eigenvalues, residuals
//      and matvec/iteration counts are bitwise equal to the reference; then
//      shut the daemon down cleanly
//
// The job is the n = 20 ground state: the 5x2 spinful Hubbard ladder in its
// (4,4) sector (dim C(10,4)^2 = 44,100), 78 matvecs with a checkpoint every
// 25, so the first checkpoint lands about a third of the way into the
// solve. A kill that lands before the first checkpoint, or a restarted job
// that does not resume from it, fails the run: a pass always went through
// the resume path.
//
// Flags: --gecosd PATH  daemon binary (default ./gecosd)
//        --dir DIR      scratch directory (default serve_smoke_state)
//        --socket PATH  daemon socket (default serve_smoke.sock; short
//                       relative paths dodge the AF_UNIX length cap)
//        --threads K    worker threads, fixed across all runs (default 2)
// Exit 0 on PASS, 1 on FAIL, 2 on usage/setup errors.
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "io/checkpoint.hpp"
#include "serve/client.hpp"
#include "serve/scheduler.hpp"
#include "util/parallel.hpp"

using namespace gecos;
using namespace gecos::serve;

namespace {

// Recorded ground-state energy of the n = 20 quench lattice (bench_main's
// kFullE0N20, perfbench ground_full's gate); the (4,4) sector holds it.
constexpr double kE0N20 = -13.8785798502;

// The n = 20 quench lattice of bench_main and perfbench: 5x2 spinful
// Hubbard, periodic in x, U = 4, mu = 0.5, ground state in the (4,4) sector.
JobSpec smoke_spec() {
  JobSpec spec;
  spec.kind = JobKind::kGroundState;
  spec.lattice.lx = 5;
  spec.lattice.ly = 2;
  spec.lattice.t = 1.0;
  spec.lattice.u = 4.0;
  spec.lattice.mu = 0.5;
  spec.lattice.periodic_x = true;
  spec.lattice.spinful = true;
  spec.use_sector = true;
  spec.n_up = 4;
  spec.n_down = 4;
  spec.checkpoint_interval = 25;
  return spec;
}

// Mirrors Scheduler::checkpoint_path so the harness can watch for the
// solver checkpoint landing.
std::string ck_path(const std::string& state_dir, const JobSpec& spec) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(job_key(spec)));
  return state_dir + "/ck_" + hex + ".ckpt";
}

pid_t spawn_daemon(const std::string& binary, const std::string& socket,
                   const std::string& state_dir, int threads) {
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    return -1;
  }
  if (pid == 0) {
    const std::string threads_s = std::to_string(threads);
    std::vector<char*> argv;
    const char* args[] = {binary.c_str(),    "--socket",
                          socket.c_str(),    "--state-dir",
                          state_dir.c_str(), "--threads",
                          threads_s.c_str()};
    for (const char* a : args) argv.push_back(const_cast<char*>(a));
    argv.push_back(nullptr);
    ::execv(binary.c_str(), argv.data());
    std::perror("execv gecosd");
    ::_exit(127);
  }
  return pid;
}

// Connects with retries while the daemon boots.
std::unique_ptr<Client> connect_daemon(const std::string& socket,
                                       double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  for (;;) {
    try {
      return std::make_unique<Client>(socket);
    } catch (const Error&) {
      if (std::chrono::steady_clock::now() >= deadline) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
}

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

int fail(const char* what) {
  std::fprintf(stderr, "serve_smoke: FAIL: %s\n", what);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string gecosd = "./gecosd";
  std::string dir = "serve_smoke_state";
  std::string socket = "serve_smoke.sock";
  int threads = 2;
  for (int i = 1; i < argc; ++i) {
    const auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "serve_smoke: %s requires an argument\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--gecosd") == 0) gecosd = need_value("--gecosd");
    else if (std::strcmp(argv[i], "--dir") == 0) dir = need_value("--dir");
    else if (std::strcmp(argv[i], "--socket") == 0)
      socket = need_value("--socket");
    else if (std::strcmp(argv[i], "--threads") == 0) {
      const char* v = need_value("--threads");
      try {
        threads = parse_threads_env(v);
      } catch (const std::invalid_argument&) {
        std::fprintf(stderr,
                     "serve_smoke: --threads '%s': expected an integer in "
                     "[1, 1024]\n",
                     v);
        return 2;
      }
    } else {
      std::fprintf(stderr, "serve_smoke: unknown argument '%s'\n", argv[i]);
      return 2;
    }
  }
  set_num_threads(threads);

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  const std::string daemon_dir = dir + "/daemon";
  const JobSpec spec = smoke_spec();

  try {
    // 1. Uninterrupted in-process reference.
    JobResult ref;
    {
      SchedulerOptions so;
      so.state_dir = dir + "/ref";
      Scheduler sched(so);
      const std::uint64_t id = sched.submit(spec);
      if (!sched.wait(id, 600.0)) return fail("reference solve timed out");
      ref = sched.fetch(id);
      sched.stop(false);
    }
    std::fprintf(stderr,
                 "serve_smoke: reference E0=%.12f matvecs=%llu iters=%llu\n",
                 ref.eigenvalues.at(0),
                 static_cast<unsigned long long>(ref.matvecs),
                 static_cast<unsigned long long>(ref.iterations));

    // 2. Daemon run #1: submit over the socket, kill mid-solve.
    const pid_t pid1 = spawn_daemon(gecosd, socket, daemon_dir, threads);
    if (pid1 < 0) return 2;
    std::uint64_t job_id = 0;
    {
      const auto client = connect_daemon(socket, 20.0);
      job_id = client->submit(spec);
    }
    // 3. Wait for the first solver checkpoint, then SIGKILL.
    const std::string ck = ck_path(daemon_dir, spec);
    bool saw_checkpoint = false;
    for (int poll = 0; poll < 12000; ++poll) {  // <= 60 s
      if (checkpoint_exists(ck)) {
        saw_checkpoint = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ::kill(pid1, SIGKILL);
    int status = 0;
    ::waitpid(pid1, &status, 0);
    if (!saw_checkpoint)
      return fail("daemon killed before its first checkpoint");
    std::fprintf(stderr, "serve_smoke: daemon killed after a checkpoint\n");

    // 4. Daemon run #2 on the same state dir: the journaled job re-enqueues
    // under its original id and resumes from the checkpoint.
    const pid_t pid2 = spawn_daemon(gecosd, socket, daemon_dir, threads);
    if (pid2 < 0) return 2;
    JobResult resumed;
    bool clean_shutdown = false;
    {
      const auto client = connect_daemon(socket, 20.0);
      const JobStatus st = client->wait(job_id, 600.0);
      if (st.state != JobState::kDone) {
        std::fprintf(stderr, "serve_smoke: job ended %u (%s: %s)\n",
                     static_cast<unsigned>(st.state), st.error_kind.c_str(),
                     st.error_message.c_str());
        ::kill(pid2, SIGKILL);
        ::waitpid(pid2, &status, 0);
        return fail("resumed job did not reach done");
      }
      resumed = client->fetch(job_id);
      const ServerStats stats = client->stats();
      std::fprintf(stderr,
                   "serve_smoke: resumed E0=%.12f matvecs=%llu resumed=%d "
                   "(daemon completed=%llu)\n",
                   resumed.eigenvalues.at(0),
                   static_cast<unsigned long long>(resumed.matvecs),
                   resumed.resumed ? 1 : 0,
                   static_cast<unsigned long long>(stats.completed));
      client->shutdown();
      clean_shutdown = true;
    }
    ::waitpid(pid2, &status, 0);
    if (!clean_shutdown || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
      return fail("daemon did not exit cleanly after shutdown");

    // 5. The acceptance assertions: the job resumed, hit the recorded E0,
    // and solved bit-identically across the kill.
    if (!resumed.resumed)
      return fail("the restarted job did not resume from the checkpoint");
    const double e0_diff = std::abs(resumed.eigenvalues.at(0) - kE0N20);
    std::fprintf(stderr, "serve_smoke: |E0 - recorded| = %.3e (tol 1e-10)\n",
                 e0_diff);
    if (!(e0_diff <= 1e-10))
      return fail("resumed E0 differs from the recorded n = 20 value");
    if (!bitwise_equal(resumed.eigenvalues, ref.eigenvalues))
      return fail("eigenvalues differ from the uninterrupted reference");
    if (!bitwise_equal(resumed.residuals, ref.residuals))
      return fail("residuals differ from the uninterrupted reference");
    if (resumed.matvecs != ref.matvecs)
      return fail("matvec count differs from the uninterrupted reference");
    if (resumed.iterations != ref.iterations)
      return fail("iteration count differs from the reference");
    if (!resumed.converged) return fail("resumed solve did not converge");

    std::fprintf(stderr, "serve_smoke: PASS\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve_smoke: FAIL: %s\n", e.what());
    return 1;
  }
}

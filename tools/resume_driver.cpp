// Kill-and-resume driver for the checkpoint/restore subsystem.
//
// Runs the bench quench lattice (2D spinful Hubbard, n = 16 --quick / 20
// full) through the checkpointing Lanczos ground-state solve and proves the
// crash-recovery story end to end, with a real SIGKILL instead of a
// simulated interrupt:
//
//   resume_driver run      solve to convergence, writing checkpoints
//   resume_driver resume   continue from an existing checkpoint file
//   resume_driver selftest fork this binary in `run` mode, SIGKILL it as
//                          soon as the first checkpoint appears, resume
//                          in-process and assert the recovered E0 matches
//                          the uninterrupted reference to --tol
//
// The full-size reference is the recorded n = 20 ground-state energy
// -13.8785798502 (see src/bench/bench_main.cpp); --quick computes its own
// reference with an uninterrupted solve first. CI runs
// `resume_driver selftest --quick` as the kill-and-resume smoke step.
//
// Flags: --checkpoint PATH  checkpoint file (default resume_driver.ckpt)
//        --interval N       matvecs between checkpoint writes (default 25)
//        --quick            n = 16 lattice + self-computed reference
//        --threads K        worker threads (default: library default)
//        --expected E       override the reference energy
//        --tol T            |E0_resumed - reference| bound (default 1e-10)
//        --progress         throttled solver progress (iteration, residual,
//                           matvecs, ETA) on stderr during every solve
#include <sys/stat.h>
#include <sys/wait.h>

#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "fermion/hubbard.hpp"
#include "io/checkpoint.hpp"
#include "ops/scb_sum.hpp"
#include "solver/lanczos.hpp"
#include "telemetry/progress.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

using namespace gecos;

namespace {

constexpr double kFullE0N20 = -13.8785798502;  // recorded n = 20 reference

struct Args {
  std::string mode;
  std::string checkpoint = "resume_driver.ckpt";
  std::size_t interval = 25;
  bool quick = false;
  int threads = 0;
  double expected = std::nan("");
  double tol = 1e-10;
  bool progress = false;
};

/// The bench quench lattice (src/bench/bench_main.cpp quench_lattice):
/// 2D spinful Hubbard, n = 16 quick / 20 full — the selftest assertion
/// value kFullE0N20 belongs to exactly this Hamiltonian.
HubbardParams lattice(bool quick) {
  HubbardParams hq;
  hq.lx = quick ? 4 : 5;
  hq.ly = 2;
  hq.t = 1.0;
  hq.u = 4.0;
  hq.mu = 0.5;
  hq.periodic_x = true;
  hq.spinful = true;
  return hq;
}

/// The ground-state options of perfbench ground_full (k = 2, tol = 1e-8)
/// plus the checkpoint wiring from the command line.
LanczosOptions options(const Args& a) {
  LanczosOptions lo;
  lo.k = 2;
  lo.tol = 1e-8;
  lo.checkpoint_path = a.checkpoint;
  lo.checkpoint_interval = a.interval;
  if (a.progress) {
    lo.progress = telemetry::stderr_progress(a.mode.c_str());
    lo.progress_interval = 10;
  }
  return lo;
}

bool parse(int argc, char** argv, Args& a) {
  if (argc < 2) return false;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string f = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (f == "--quick") {
      a.quick = true;
    } else if (f == "--progress") {
      a.progress = true;
    } else if (f == "--checkpoint") {
      const char* v = next();
      if (!v) return false;
      a.checkpoint = v;
    } else if (f == "--interval") {
      const char* v = next();
      if (!v) return false;
      a.interval = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (f == "--threads") {
      const char* v = next();
      if (!v) return false;
      try {
        a.threads = parse_threads_env(v);
      } catch (const std::invalid_argument&) {
        std::fprintf(stderr,
                     "resume_driver: --threads '%s': expected an integer in "
                     "[1, 1024]\n",
                     v);
        return false;
      }
    } else if (f == "--expected") {
      const char* v = next();
      if (!v) return false;
      a.expected = std::strtod(v, nullptr);
    } else if (f == "--tol") {
      const char* v = next();
      if (!v) return false;
      a.tol = std::strtod(v, nullptr);
    } else {
      std::fprintf(stderr, "resume_driver: unknown flag %s\n", f.c_str());
      return false;
    }
  }
  return a.mode == "run" || a.mode == "resume" || a.mode == "selftest";
}

int do_run(const Args& a) {
  const ScbSum h = hubbard_scb(lattice(a.quick));
  Lanczos solver(h, options(a));
  const LanczosResult& r = solver.solve();
  std::printf("run: E0=%.12f matvecs=%zu checkpoints=%zu converged=%d\n",
              r.eigenvalues[0], r.matvecs, r.checkpoints_written,
              r.converged ? 1 : 0);
  return r.converged ? 0 : 1;
}

int do_resume(const Args& a) {
  const ScbSum h = hubbard_scb(lattice(a.quick));
  Lanczos solver(h, options(a));
  const LanczosResult& r = solver.resume(a.checkpoint);
  std::printf("resume: E0=%.12f matvecs=%zu saved=%zu converged=%d\n",
              r.eigenvalues[0], r.matvecs, r.resumed_matvecs,
              r.converged ? 1 : 0);
  if (!r.converged) return 1;
  if (!std::isnan(a.expected)) {
    const double diff = std::abs(r.eigenvalues[0] - a.expected);
    std::printf("resume: |E0 - expected| = %.3e (tol %.3e)\n", diff, a.tol);
    if (!(diff <= a.tol)) return 1;
  }
  return 0;
}

/// Blocks until `path` exists (checkpoint writes are atomic renames, so
/// existence implies a complete file) or the deadline passes.
bool wait_for_file(const std::string& path, double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  struct stat st;
  while (::stat(path.c_str(), &st) != 0) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return true;
}

int do_selftest(const Args& a, const char* self) {
  remove_checkpoint(a.checkpoint);

  // Reference energy of the uninterrupted run: the recorded value at full
  // size, a fresh in-process solve at --quick size.
  double expected = a.expected;
  if (std::isnan(expected)) {
    if (a.quick) {
      const ScbSum h = hubbard_scb(lattice(true));
      Args plain = a;
      plain.checkpoint.clear();  // reference run writes nothing
      LanczosOptions lo = options(plain);
      lo.checkpoint_interval = 0;
      Lanczos solver(h, lo);
      expected = solver.solve().eigenvalues[0];
      std::printf("selftest: quick reference E0=%.12f (matvecs=%zu)\n",
                  expected, solver.result().matvecs);
    } else {
      expected = kFullE0N20;
    }
  }

  // Victim process: this same binary in `run` mode. fork + immediate exec
  // is safe even with the parent's worker threads already running.
  std::vector<std::string> cargs = {self,
                                    "run",
                                    "--checkpoint",
                                    a.checkpoint,
                                    "--interval",
                                    std::to_string(a.interval)};
  if (a.quick) cargs.push_back("--quick");
  if (a.threads > 0) {
    cargs.push_back("--threads");
    cargs.push_back(std::to_string(a.threads));
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("resume_driver: fork");
    return 1;
  }
  if (pid == 0) {
    std::vector<char*> cv;
    cv.reserve(cargs.size() + 1);
    for (std::string& s : cargs) cv.push_back(s.data());
    cv.push_back(nullptr);
    ::execv("/proc/self/exe", cv.data());
    std::perror("resume_driver: execv");
    ::_exit(127);
  }

  // SIGKILL the victim the moment its first checkpoint lands: no atexit
  // handlers, no flushing — the hard-crash case the format is built for.
  if (!wait_for_file(a.checkpoint, 600.0)) {
    std::fprintf(stderr, "selftest: no checkpoint appeared, killing child\n");
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    return 1;
  }
  ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) {
    std::printf("selftest: child killed mid-run (SIGKILL)\n");
  } else {
    // The child can legitimately win the race and finish; the resume below
    // still exercises recovery from its last checkpoint.
    std::printf("selftest: child exited before the kill landed (status %d)\n",
                status);
  }

  const ScbSum h = hubbard_scb(lattice(a.quick));
  Lanczos solver(h, options(a));
  const LanczosResult& r = solver.resume(a.checkpoint);
  const double diff = std::abs(r.eigenvalues[0] - expected);
  std::printf(
      "selftest: resumed E0=%.12f |diff|=%.3e matvecs=%zu saved=%zu "
      "converged=%d\n",
      r.eigenvalues[0], diff, r.matvecs, r.resumed_matvecs,
      r.converged ? 1 : 0);
  remove_checkpoint(a.checkpoint);
  const bool pass = r.converged && diff <= a.tol && r.resumed_matvecs > 0;
  std::printf("selftest: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: %s run|resume|selftest [--quick] [--checkpoint P]\n"
                 "       [--interval N] [--threads K] [--expected E] "
                 "[--tol T] [--progress]\n",
                 argv[0]);
    return 2;
  }
  if (a.threads > 0) set_num_threads(a.threads);
  try {
    if (a.mode == "run") return do_run(a);
    if (a.mode == "resume") return do_resume(a);
    return do_selftest(a, argv[0]);
  } catch (const Error& e) {
    std::fprintf(stderr, "resume_driver: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "resume_driver: %s\n", e.what());
    return 1;
  }
}

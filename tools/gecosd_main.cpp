// gecosd: the gecos simulation daemon.
//
// Listens on a unix-domain socket, accepts ground-state / quench /
// expectation / spectral jobs over the GECOSRV1 protocol and runs them on
// one Scheduler executor: priority queue, observable batching, per-job
// operator compilation, and durable job journals in --state-dir so a
// killed daemon restarts with in-flight jobs resumed from their solver
// checkpoints (bit-identically, for a fixed thread count — the property
// tools/serve_smoke.cpp pins in CI). Submit and inspect jobs with
// tools/gecos_client.cpp or any serve::Client.
//
// Flags: --socket PATH    unix socket to listen on (default gecosd.sock;
//                         AF_UNIX caps the path near 107 bytes, so prefer
//                         short relative paths)
//        --state-dir DIR  job journals + solver checkpoints (default
//                         gecosd-state; empty string disables durability)
//        --threads K      worker threads for the solver kernels, an
//                         integer in [1, 1024]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "serve/scheduler.hpp"
#include "serve/server.hpp"
#include "util/parallel.hpp"

namespace {

int usage(const char* argv0, int code) {
  std::fprintf(stderr,
               "usage: %s [--socket PATH] [--state-dir DIR] [--threads K]\n",
               argv0);
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path = "gecosd.sock";
  std::string state_dir = "gecosd-state";
  for (int i = 1; i < argc; ++i) {
    const auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s requires an argument\n", argv[0], flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--socket") == 0) {
      socket_path = need_value("--socket");
    } else if (std::strcmp(argv[i], "--state-dir") == 0) {
      state_dir = need_value("--state-dir");
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      const char* v = need_value("--threads");
      try {
        gecos::set_num_threads(gecos::parse_threads_env(v));
      } catch (const std::invalid_argument&) {
        std::fprintf(stderr,
                     "%s: --threads '%s': expected an integer in [1, 1024]\n",
                     argv[0], v);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      return usage(argv[0], 0);
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0], argv[i]);
      return usage(argv[0], 2);
    }
  }
  try {
    gecos::serve::SchedulerOptions so;
    so.state_dir = state_dir;
    gecos::serve::Scheduler scheduler(so);
    gecos::serve::Server server(scheduler, socket_path);
    std::fprintf(stderr, "gecosd: listening on %s (state dir %s)\n",
                 socket_path.c_str(),
                 state_dir.empty() ? "<none>" : state_dir.c_str());
    server.serve();
    // Clean exit: finish (or abandon-and-journal) the running job, leave
    // queued jobs journaled for the next daemon.
    scheduler.stop(/*abandon_running=*/true);
    std::fprintf(stderr, "gecosd: shutdown complete\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gecosd: fatal: %s\n", e.what());
    return 1;
  }
}

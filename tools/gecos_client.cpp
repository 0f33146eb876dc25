// gecos_client: command-line client for a running gecosd daemon.
//
// One subcommand per protocol request, speaking GECOSRV1 over the daemon's
// unix socket via serve::Client:
//
//   gecos_client [--socket PATH] submit [spec flags...]   -> prints job id
//   gecos_client [--socket PATH] status ID                -> one status line
//   gecos_client [--socket PATH] wait ID [--timeout S]    -> poll to terminal
//   gecos_client [--socket PATH] fetch ID                 -> result values
//   gecos_client [--socket PATH] cancel ID
//   gecos_client [--socket PATH] stats
//   gecos_client [--socket PATH] shutdown
//
// Spec flags for submit (defaults in serve::JobSpec):
//   --kind ground|quench|expectation|spectral
//   --lx N --ly N --t V --u V --mu V [--open-x] [--spinless]
//   --n-up N --n-down N           ground-state sector counts
//   --k N --tol V --max-matvecs N --seed N --checkpoint-interval N
//   --dt V --steps N --occupation BITS
//   --obs density:A | doublon:A | corr:A,B | total   (repeatable)
//   --eta V --moments N --w-min V --w-max V --w-points N
//   --priority N
//
// Daemon-side failures arrive as gecos::Error with the machine-readable
// kind name; this tool prints "error (<kind>): <message>" and exits 1.
// Usage errors exit 2.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "serve/client.hpp"

using gecos::serve::JobKind;
using gecos::serve::JobSpec;
using gecos::serve::JobState;
using gecos::serve::JobStatus;
using gecos::serve::ObservableKind;
using gecos::serve::ObservableSpec;

namespace {

const char* state_name(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "unknown";
}

void print_status(const JobStatus& st) {
  std::printf("job %llu: %s iter=%llu matvecs=%llu metric=%.3e elapsed=%.2fs",
              static_cast<unsigned long long>(st.id), state_name(st.state),
              static_cast<unsigned long long>(st.iteration),
              static_cast<unsigned long long>(st.matvecs), st.metric,
              st.elapsed_s);
  if (st.state == JobState::kFailed)
    std::printf(" error=%s (%s)", st.error_kind.c_str(),
                st.error_message.c_str());
  std::printf("\n");
}

int usage(const char* argv0, int code) {
  std::fprintf(stderr,
               "usage: %s [--socket PATH] "
               "submit|status|wait|fetch|cancel|stats|shutdown [args...]\n"
               "(see the header of tools/gecos_client.cpp for spec flags)\n",
               argv0);
  return code;
}

// Parses "kind:site" / "corr:a,b" / "total" into an ObservableSpec.
bool parse_observable(const std::string& text, ObservableSpec& out) {
  if (text == "total") {
    out = {ObservableKind::kTotalNumber, 0, 0};
    return true;
  }
  const auto colon = text.find(':');
  if (colon == std::string::npos) return false;
  const std::string kind = text.substr(0, colon);
  const std::string rest = text.substr(colon + 1);
  if (kind == "density" || kind == "doublon") {
    out.kind = kind == "density" ? ObservableKind::kDensity
                                 : ObservableKind::kDoublon;
    out.site_a = static_cast<std::uint32_t>(std::atoi(rest.c_str()));
    out.site_b = 0;
    return !rest.empty();
  }
  if (kind == "corr") {
    const auto comma = rest.find(',');
    if (comma == std::string::npos) return false;
    out.kind = ObservableKind::kDensityCorr;
    out.site_a =
        static_cast<std::uint32_t>(std::atoi(rest.substr(0, comma).c_str()));
    out.site_b =
        static_cast<std::uint32_t>(std::atoi(rest.substr(comma + 1).c_str()));
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path = "gecosd.sock";
  int i = 1;
  if (i + 1 < argc && std::strcmp(argv[i], "--socket") == 0) {
    socket_path = argv[i + 1];
    i += 2;
  }
  if (i >= argc) return usage(argv[0], 2);
  const std::string cmd = argv[i++];

  try {
    gecos::serve::Client client(socket_path);

    if (cmd == "submit") {
      JobSpec spec;
      for (; i < argc; ++i) {
        const auto need_value = [&](const char* flag) -> const char* {
          if (i + 1 >= argc) {
            std::fprintf(stderr, "%s: %s requires an argument\n", argv[0],
                         flag);
            std::exit(2);
          }
          return argv[++i];
        };
        const std::string flag = argv[i];
        if (flag == "--kind") {
          const std::string k = need_value("--kind");
          if (k == "ground") spec.kind = JobKind::kGroundState;
          else if (k == "quench") spec.kind = JobKind::kQuench;
          else if (k == "expectation") spec.kind = JobKind::kExpectation;
          else if (k == "spectral") spec.kind = JobKind::kSpectral;
          else {
            std::fprintf(stderr, "%s: unknown job kind '%s'\n", argv[0],
                         k.c_str());
            return 2;
          }
        } else if (flag == "--lx") {
          spec.lattice.lx = std::atoi(need_value("--lx"));
        } else if (flag == "--ly") {
          spec.lattice.ly = std::atoi(need_value("--ly"));
        } else if (flag == "--t") {
          spec.lattice.t = std::atof(need_value("--t"));
        } else if (flag == "--u") {
          spec.lattice.u = std::atof(need_value("--u"));
        } else if (flag == "--mu") {
          spec.lattice.mu = std::atof(need_value("--mu"));
        } else if (flag == "--open-x") {
          spec.lattice.periodic_x = false;
        } else if (flag == "--spinless") {
          spec.lattice.spinful = false;
        } else if (flag == "--n-up") {
          spec.n_up = static_cast<std::uint32_t>(std::atoi(need_value("--n-up")));
        } else if (flag == "--n-down") {
          spec.n_down =
              static_cast<std::uint32_t>(std::atoi(need_value("--n-down")));
        } else if (flag == "--k") {
          spec.num_eigenpairs =
              static_cast<std::uint32_t>(std::atoi(need_value("--k")));
        } else if (flag == "--tol") {
          spec.tol = std::atof(need_value("--tol"));
        } else if (flag == "--max-matvecs") {
          spec.max_matvecs = std::strtoull(need_value("--max-matvecs"),
                                           nullptr, 10);
        } else if (flag == "--seed") {
          spec.seed = std::strtoull(need_value("--seed"), nullptr, 10);
        } else if (flag == "--checkpoint-interval") {
          spec.checkpoint_interval =
              std::strtoull(need_value("--checkpoint-interval"), nullptr, 10);
        } else if (flag == "--dt") {
          spec.dt = std::atof(need_value("--dt"));
        } else if (flag == "--steps") {
          spec.steps = std::strtoull(need_value("--steps"), nullptr, 10);
        } else if (flag == "--occupation") {
          spec.initial_occupation =
              std::strtoull(need_value("--occupation"), nullptr, 0);
        } else if (flag == "--obs") {
          ObservableSpec o;
          const char* text = need_value("--obs");
          if (!parse_observable(text, o)) {
            std::fprintf(stderr, "%s: bad observable '%s'\n", argv[0], text);
            return 2;
          }
          spec.observables.push_back(o);
        } else if (flag == "--eta") {
          spec.eta = std::atof(need_value("--eta"));
        } else if (flag == "--moments") {
          spec.max_moments =
              std::strtoull(need_value("--moments"), nullptr, 10);
        } else if (flag == "--w-min") {
          spec.w_min = std::atof(need_value("--w-min"));
        } else if (flag == "--w-max") {
          spec.w_max = std::atof(need_value("--w-max"));
        } else if (flag == "--w-points") {
          spec.w_points =
              std::strtoull(need_value("--w-points"), nullptr, 10);
        } else if (flag == "--priority") {
          spec.priority =
              static_cast<std::uint32_t>(std::atoi(need_value("--priority")));
        } else {
          std::fprintf(stderr, "%s: unknown submit flag '%s'\n", argv[0],
                       flag.c_str());
          return 2;
        }
      }
      const std::uint64_t id = client.submit(spec);
      std::printf("%llu\n", static_cast<unsigned long long>(id));
      return 0;
    }

    if (cmd == "status" || cmd == "wait" || cmd == "fetch" ||
        cmd == "cancel") {
      if (i >= argc) {
        std::fprintf(stderr, "%s: %s requires a job id\n", argv[0],
                     cmd.c_str());
        return 2;
      }
      const std::uint64_t id = std::strtoull(argv[i++], nullptr, 10);
      if (cmd == "status") {
        print_status(client.status(id));
        return 0;
      }
      if (cmd == "wait") {
        double timeout_s = 3600.0;
        if (i + 1 < argc && std::strcmp(argv[i], "--timeout") == 0)
          timeout_s = std::atof(argv[i + 1]);
        const JobStatus st = client.wait(id, timeout_s);
        print_status(st);
        return st.state == JobState::kDone ? 0 : 1;
      }
      if (cmd == "cancel") {
        std::printf("%s\n",
                    client.cancel(id) ? "cancelled" : "already terminal");
        return 0;
      }
      // fetch
      const gecos::serve::JobResult res = client.fetch(id);
      if (!res.eigenvalues.empty()) {
        std::printf("eigenvalues:");
        for (const double e : res.eigenvalues) std::printf(" %.12f", e);
        std::printf("\nconverged=%d matvecs=%llu resumed=%d\n",
                    res.converged ? 1 : 0,
                    static_cast<unsigned long long>(res.matvecs),
                    res.resumed ? 1 : 0);
      }
      for (std::size_t s = 0; s < res.times.size(); ++s) {
        std::printf("t=%.6f", res.times[s]);
        if (s < res.loschmidt.size())
          std::printf(" loschmidt=%.12f", res.loschmidt[s]);
        if (!res.times.empty() && !res.values.empty()) {
          const std::size_t per_step = res.values.size() / res.times.size();
          for (std::size_t c = 0; c < per_step; ++c)
            std::printf(" v%zu=%.12f", c, res.values[s * per_step + c]);
        }
        std::printf("\n");
      }
      for (std::size_t k = 0; k < res.omega.size(); ++k)
        std::printf("w=%.6f A=%.12e\n", res.omega[k], res.spectral[k]);
      return 0;
    }

    if (cmd == "stats") {
      const gecos::serve::ServerStats st = client.stats();
      std::printf(
          "jobs: submitted=%llu completed=%llu failed=%llu cancelled=%llu "
          "queued=%llu running=%llu\n"
          "batching: passes=%llu jobs=%llu\n",
          static_cast<unsigned long long>(st.submitted),
          static_cast<unsigned long long>(st.completed),
          static_cast<unsigned long long>(st.failed),
          static_cast<unsigned long long>(st.cancelled),
          static_cast<unsigned long long>(st.queue_depth),
          static_cast<unsigned long long>(st.running),
          static_cast<unsigned long long>(st.batch_passes),
          static_cast<unsigned long long>(st.batched_jobs));
      return 0;
    }

    if (cmd == "shutdown") {
      client.shutdown();
      std::printf("daemon shutting down\n");
      return 0;
    }

    std::fprintf(stderr, "%s: unknown command '%s'\n", argv[0], cmd.c_str());
    return usage(argv[0], 2);
  } catch (const gecos::Error& e) {
    std::fprintf(stderr, "error (%s): %s\n",
                 gecos::error_kind_name(e.kind()), e.message());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

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
//   --lx N --ly N --t V --u V --mu V [--periodic-x] [--spinful]
//   --n-up N --n-down N           ground-state sector counts
//   --k N --tol V --max-matvecs N --seed N --checkpoint-interval N
//   --dt V --steps N --occupation N (decimal bitmask)
//   --obs density:A | doublon:A | corr:A,B | total   (repeatable)
//   --eta V --moments N --w-min V --w-max V --w-points N
//   --priority N
//
// N must be decimal digits within the field's range and V a finite number
// (util/parse.hpp). The command line is parsed before connecting, so a
// usage error exits 2 naming the flag whether or not a daemon is running.
// Daemon-side failures arrive as gecos::Error with the machine-readable
// kind name; this tool prints "error (<kind>): <message>" and exits 1.
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "serve/client.hpp"
#include "util/parse.hpp"

using gecos::serve::JobKind;
using gecos::serve::JobSpec;
using gecos::serve::JobState;
using gecos::serve::JobStatus;
using gecos::serve::ObservableKind;
using gecos::serve::ObservableSpec;

namespace {

const char* prog = "gecos_client";  // argv[0], the prefix of error lines

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

int usage(int code) {
  std::fprintf(stderr,
               "usage: %s [--socket PATH] "
               "submit|status|wait|fetch|cancel|stats|shutdown [args...]\n"
               "(see the header of tools/gecos_client.cpp for spec flags)\n",
               prog);
  return code;
}

// The usage-error line for a missing (text == nullptr) or malformed value.
bool bad_value(const char* flag, const char* text, const std::string& want) {
  if (text == nullptr)
    std::fprintf(stderr, "%s: %s requires an argument\n", prog, flag);
  else
    std::fprintf(stderr, "%s: %s '%s': expected %s\n", prog, flag, text,
                 want.c_str());
  return false;
}

// Integer value of `flag` into out, range-checked against T; false after an
// error line naming the flag.
template <typename T>
bool int_arg(const char* flag, const char* text, T& out) {
  constexpr std::uint64_t hi = std::numeric_limits<T>::max();
  const std::optional<std::uint64_t> v = gecos::parse_uint(text, 0, hi);
  if (!v)
    return bad_value(flag, text,
                     "an integer in [0, " + std::to_string(hi) + "]");
  out = static_cast<T>(*v);
  return true;
}

// Finite real value of `flag` into out; false after an error line.
bool real_arg(const char* flag, const char* text, double& out) {
  const std::optional<double> v = gecos::parse_double(text);
  if (!v) return bad_value(flag, text, "a finite number");
  out = *v;
  return true;
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
  const auto site = [](const std::string& t, std::uint32_t& to) {
    const std::optional<std::uint64_t> v = gecos::parse_uint(
        t.c_str(), 0, std::numeric_limits<std::uint32_t>::max());
    if (v) to = static_cast<std::uint32_t>(*v);
    return v.has_value();
  };
  if (kind == "density" || kind == "doublon") {
    out.kind = kind == "density" ? ObservableKind::kDensity
                                 : ObservableKind::kDoublon;
    out.site_b = 0;
    return site(rest, out.site_a);
  }
  if (kind == "corr") {
    const auto comma = rest.find(',');
    if (comma == std::string::npos) return false;
    out.kind = ObservableKind::kDensityCorr;
    return site(rest.substr(0, comma), out.site_a) &&
           site(rest.substr(comma + 1), out.site_b);
  }
  return false;
}

// Parses submit's spec flags argv[i..argc) into spec, leaving i at argc;
// false after an error line naming the offending flag.
bool parse_submit(int argc, char** argv, int& i, JobSpec& spec) {
  for (; i < argc; ++i) {
    const char* f = argv[i];
    const std::string flag = f;
    // The flag's value, or nullptr when the command line ends first.
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    bool ok = true;
    if (flag == "--kind") {
      const char* k = next();
      const std::string kind = k == nullptr ? "" : k;
      if (kind == "ground") spec.kind = JobKind::kGroundState;
      else if (kind == "quench") spec.kind = JobKind::kQuench;
      else if (kind == "expectation") spec.kind = JobKind::kExpectation;
      else if (kind == "spectral") spec.kind = JobKind::kSpectral;
      else ok = bad_value(f, k, "ground, quench, expectation or spectral");
    } else if (flag == "--periodic-x") {
      spec.lattice.periodic_x = true;
    } else if (flag == "--spinful") {
      spec.lattice.spinful = true;
    } else if (flag == "--obs") {
      const char* text = next();
      ObservableSpec o;
      if (text != nullptr && parse_observable(text, o))
        spec.observables.push_back(o);
      else
        ok = bad_value(f, text, "density:A, doublon:A, corr:A,B or total");
    } else if (flag == "--lx") ok = int_arg(f, next(), spec.lattice.lx);
    else if (flag == "--ly") ok = int_arg(f, next(), spec.lattice.ly);
    else if (flag == "--t") ok = real_arg(f, next(), spec.lattice.t);
    else if (flag == "--u") ok = real_arg(f, next(), spec.lattice.u);
    else if (flag == "--mu") ok = real_arg(f, next(), spec.lattice.mu);
    else if (flag == "--n-up") ok = int_arg(f, next(), spec.n_up);
    else if (flag == "--n-down") ok = int_arg(f, next(), spec.n_down);
    else if (flag == "--k") ok = int_arg(f, next(), spec.num_eigenpairs);
    else if (flag == "--tol") ok = real_arg(f, next(), spec.tol);
    else if (flag == "--max-matvecs")
      ok = int_arg(f, next(), spec.max_matvecs);
    else if (flag == "--seed") ok = int_arg(f, next(), spec.seed);
    else if (flag == "--checkpoint-interval")
      ok = int_arg(f, next(), spec.checkpoint_interval);
    else if (flag == "--dt") ok = real_arg(f, next(), spec.dt);
    else if (flag == "--steps") ok = int_arg(f, next(), spec.steps);
    else if (flag == "--occupation")
      ok = int_arg(f, next(), spec.initial_occupation);
    else if (flag == "--eta") ok = real_arg(f, next(), spec.eta);
    else if (flag == "--moments") ok = int_arg(f, next(), spec.max_moments);
    else if (flag == "--w-min") ok = real_arg(f, next(), spec.w_min);
    else if (flag == "--w-max") ok = real_arg(f, next(), spec.w_max);
    else if (flag == "--w-points") ok = int_arg(f, next(), spec.w_points);
    else if (flag == "--priority") ok = int_arg(f, next(), spec.priority);
    else {
      std::fprintf(stderr, "%s: unknown submit flag '%s'\n", prog, f);
      ok = false;
    }
    if (!ok) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  prog = argv[0];
  std::string socket_path = "gecosd.sock";
  int i = 1;
  if (i + 1 < argc && std::strcmp(argv[i], "--socket") == 0) {
    socket_path = argv[i + 1];
    i += 2;
  }
  if (i >= argc) return usage(2);
  const std::string cmd = argv[i++];

  // Parse everything before connecting: usage errors exit 2 either way.
  JobSpec spec;
  std::uint64_t id = 0;
  double timeout_s = 3600.0;
  if (cmd == "submit") {
    if (!parse_submit(argc, argv, i, spec)) return 2;
  } else if (cmd == "status" || cmd == "wait" || cmd == "fetch" ||
             cmd == "cancel") {
    if (i >= argc) {
      std::fprintf(stderr, "%s: %s requires a job id\n", prog, cmd.c_str());
      return 2;
    }
    if (!int_arg("job id", argv[i++], id)) return 2;
    if (cmd == "wait" && i < argc && std::strcmp(argv[i], "--timeout") == 0) {
      ++i;
      if (!real_arg("--timeout", i < argc ? argv[i++] : nullptr, timeout_s))
        return 2;
    }
  } else if (cmd != "stats" && cmd != "shutdown") {
    std::fprintf(stderr, "%s: unknown command '%s'\n", prog, cmd.c_str());
    return usage(2);
  }
  if (i < argc) {
    std::fprintf(stderr, "%s: %s: unexpected argument '%s'\n", prog,
                 cmd.c_str(), argv[i]);
    return 2;
  }

  try {
    gecos::serve::Client client(socket_path);

    if (cmd == "submit") {
      std::printf("%llu\n",
                  static_cast<unsigned long long>(client.submit(spec)));
      return 0;
    }
    if (cmd == "status") {
      print_status(client.status(id));
      return 0;
    }
    if (cmd == "wait") {
      const JobStatus st = client.wait(id, timeout_s);
      print_status(st);
      return st.state == JobState::kDone ? 0 : 1;
    }
    if (cmd == "cancel") {
      std::printf("%s\n",
                  client.cancel(id) ? "cancelled" : "already terminal");
      return 0;
    }
    if (cmd == "fetch") {
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

    // shutdown
    client.shutdown();
    std::printf("daemon shutting down\n");
    return 0;
  } catch (const gecos::Error& e) {
    std::fprintf(stderr, "error (%s): %s\n",
                 gecos::error_kind_name(e.kind()), e.message());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

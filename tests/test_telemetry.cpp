// Telemetry suite: strict env policy (in a re-exec'd child process),
// histogram percentiles against a sorted reference, counts from exited
// threads and solver counters at 1 and 4 workers, span nesting and thread
// attribution, the TraceWriter JSON output, bit-identical solver
// trajectories with telemetry on vs off, solver progress callbacks and
// per-iteration histories, and the zero-allocation pins: telemetry
// disabled, enabled on a warm solve, and enabled on a fresh thread.
#include "alloc_probe.hpp"  // first: replaces global operator new
// clang-format off
#include <sys/wait.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>
// clang-format on

#include "fermion/hubbard.hpp"
#include "linalg/blas1.hpp"
#include "ops/scb_sum.hpp"
#include "simd/simd.hpp"
#include "solver/krylov_evolve.hpp"
#include "solver/lanczos.hpp"
#include "telemetry/progress.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "test_util.hpp"
#include "util/parallel.hpp"
#include "util/parse.hpp"

using namespace gecos;
namespace tel = gecos::telemetry;

namespace {

/// Child half of the env-policy tests: this binary re-exec'd with one
/// GECOS_* variable set. Static init (telemetry::init_from_env) already ran
/// — an empty GECOS_TRACE exited 2 before reaching main. The
/// lazily parsed knobs are forced here: a bad GECOS_THREADS / GECOS_SIMD
/// throws and maps to exit 3. A valid environment records one span (so a
/// GECOS_TRACE file has content) and exits 0.
int env_child_main() {
  try {
    (void)num_threads();
    (void)simd_tier();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "env-child: %s\n", e.what());
    return 3;
  }
  { GECOS_SPAN("test.child"); }
  return 0;
}

/// Forks, pins the child environment to exactly one GECOS_* setting
/// (value == nullptr means "unset"), re-execs this binary in --env-child
/// mode and returns the child's exit status (128 + signal on a crash).
int run_env_child(const char* var, const char* value) {
  const pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    ::unsetenv("GECOS_TRACE");
    ::unsetenv("GECOS_THREADS");
    ::unsetenv("GECOS_SIMD");
    if (value != nullptr) ::setenv(var, value, 1);
    const char* argv[] = {"test_telemetry", "--env-child", nullptr};
    ::execv("/proc/self/exe", const_cast<char**>(argv));
    ::_exit(127);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

/// The small deterministic Hamiltonian the solver tests reuse: a periodic
/// n = 8 Hubbard ring (same system test_lanczos pins against dense eigh).
ScbSum ring8() {
  HubbardParams p;
  p.lx = 8;
  p.u = 2.0;
  p.mu = 0.3;
  p.periodic_x = true;
  return hubbard_scb(p);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--env-child") == 0)
    return env_child_main();

  // -- env policy in a fresh process: strict parses, loud failures ---------
  // (first, before this process starts pool threads)
  {
    CHECK_EQ(run_env_child("GECOS_THREADS", "4"), 0);
    CHECK_EQ(run_env_child("GECOS_THREADS", "abc"), 3);
    CHECK_EQ(run_env_child("GECOS_THREADS", "0"), 3);
    CHECK_EQ(run_env_child("GECOS_THREADS", "4 "), 3);
    CHECK_EQ(run_env_child("GECOS_SIMD", "scalar"), 0);
    CHECK_EQ(run_env_child("GECOS_SIMD", "sse9"), 3);
    CHECK_EQ(run_env_child("GECOS_TRACE", ""), 2);

    // A valid GECOS_TRACE writes the trace file from the atexit hook.
    const std::string path =
        "/tmp/gecos_test_env_trace_" + std::to_string(::getpid()) + ".json";
    std::remove(path.c_str());
    CHECK_EQ(run_env_child("GECOS_TRACE", path.c_str()), 0);
    std::ifstream in(path);
    CHECK(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string trace = ss.str();
    CHECK(trace.find("traceEvents") != std::string::npos);
    CHECK(trace.find("test.child") != std::string::npos);
    std::remove(path.c_str());
  }

  // -- expand_trace_path: every %p becomes the pid, nothing else changes ----
  {
    const std::string pid = std::to_string(::getpid());
    CHECK_EQ(tel::expand_trace_path("plain.json"), std::string("plain.json"));
    CHECK_EQ(tel::expand_trace_path("t_%p.json"), "t_" + pid + ".json");
    CHECK_EQ(tel::expand_trace_path("%p/%p"), pid + "/" + pid);
    CHECK_EQ(tel::expand_trace_path("%p"), pid);
    CHECK_EQ(tel::expand_trace_path(""), std::string(""));
    // A lone trailing % is not a placeholder and passes through.
    CHECK_EQ(tel::expand_trace_path("x%"), std::string("x%"));
    CHECK_EQ(tel::expand_trace_path("x%q"), std::string("x%q"));
  }

  // -- GECOS_TRACE %p: concurrent processes sharing one env value get one
  // file each instead of clobbering a single path (the gecosd scenario) -----
  {
    const std::string dir =
        "/tmp/gecos_test_trace_pp_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string pattern = dir + "/t_%p.json";
    CHECK_EQ(run_env_child("GECOS_TRACE", pattern.c_str()), 0);
    CHECK_EQ(run_env_child("GECOS_TRACE", pattern.c_str()), 0);
    std::size_t files = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      CHECK(name.rfind("t_", 0) == 0);  // expanded, no literal %p left
      CHECK(name.find('%') == std::string::npos);
      std::ifstream in(entry.path());
      std::stringstream ss;
      ss << in.rdbuf();
      const std::string trace = ss.str();
      CHECK(trace.find("traceEvents") != std::string::npos);
      CHECK(trace.find("test.child") != std::string::npos);
      ++files;
    }
    CHECK_EQ(files, std::size_t{2});  // two children, two distinct files
    std::filesystem::remove_all(dir);
  }

  // -- strict parsers directly: value round-trips and offending tokens ------
  {
    CHECK_EQ(parse_threads_env("1"), 1);
    CHECK_EQ(parse_threads_env("8"), 8);
    CHECK_EQ(parse_threads_env("1024"), 1024);
    for (const char* bad : {"", "abc", "8x", "0", "-2", "1025", " 4"}) {
      bool threw = false;
      try {
        parse_threads_env(bad);
      } catch (const std::invalid_argument& e) {
        threw = true;
        if (bad[0] != '\0')
          CHECK(std::string(e.what()).find(bad) != std::string::npos);
      }
      CHECK(threw);
    }
    CHECK(parse_uint("18446744073709551615", 0, UINT64_MAX) == UINT64_MAX);
    CHECK(!parse_uint("18446744073709551616", 0, UINT64_MAX));  // ERANGE
    CHECK(parse_double("-1.5e-3") == -1.5e-3);
    for (const char* bad : {"", "nan", "inf", "1e999", "1.5x", " 1"})
      CHECK(!parse_double(bad));
    CHECK(parse_simd_tier("scalar") == SimdTier::scalar);
    CHECK(parse_simd_tier("avx2") == SimdTier::avx2);
    CHECK(parse_simd_tier("avx512") == SimdTier::avx512);
    bool threw = false;
    try {
      parse_simd_tier("neon");
    } catch (const std::invalid_argument& e) {
      threw = true;
      CHECK(std::string(e.what()).find("neon") != std::string::npos);
    }
    CHECK(threw);
  }

  // -- histogram buckets: bit_width bins with tight upper bounds ------------
  {
    CHECK_EQ(tel::hist_bucket(0), std::size_t{0});
    CHECK_EQ(tel::hist_bucket(1), std::size_t{1});
    CHECK_EQ(tel::hist_bucket(2), std::size_t{2});
    CHECK_EQ(tel::hist_bucket(3), std::size_t{2});
    CHECK_EQ(tel::hist_bucket(4), std::size_t{3});
    CHECK_EQ(tel::hist_bucket_upper(0), std::uint64_t{0});
    CHECK_EQ(tel::hist_bucket_upper(1), std::uint64_t{1});
    CHECK_EQ(tel::hist_bucket_upper(2), std::uint64_t{3});
    for (std::uint64_t v : {std::uint64_t{1}, std::uint64_t{5},
                            std::uint64_t{1} << 20, ~std::uint64_t{0}}) {
      const std::size_t b = tel::hist_bucket(v);
      CHECK(v <= tel::hist_bucket_upper(b));
      CHECK(b == 0 || v > tel::hist_bucket_upper(b - 1));
    }
  }

  // -- histogram percentiles vs a sorted reference: the estimate for any
  // percentile is exactly the bucket upper bound of the rank-matched sample,
  // which brackets the true value within a factor of two -------------------
  {
    const bool metrics_was = tel::metrics_enabled();
    tel::set_metrics_enabled(true);
    const std::size_t n = 2000;
    std::mt19937_64 rng(20260808);
    std::uniform_int_distribution<std::uint64_t> val(1, std::uint64_t{1}
                                                            << 30);
    std::vector<std::uint64_t> ref(n);
    const tel::MetricsSnapshot before = tel::metrics_snapshot();
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      ref[i] = val(rng);
      sum += ref[i];
      tel::observe(tel::Hist::checkpoint_write_ns, ref[i]);
    }
    const tel::MetricsSnapshot d =
        tel::metrics_delta(before, tel::metrics_snapshot());
    const tel::HistogramSnapshot& h = d.hist(tel::Hist::checkpoint_write_ns);
    CHECK_EQ(h.count, static_cast<std::uint64_t>(n));
    CHECK_EQ(h.sum, sum);
    CHECK_NEAR(h.mean(), static_cast<double>(sum) / static_cast<double>(n),
               1e-6);
    std::sort(ref.begin(), ref.end());
    for (double p : {0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
      const double rank = p / 100.0 * static_cast<double>(n);
      std::size_t idx = static_cast<std::size_t>(std::ceil(rank));
      if (idx == 0) idx = 1;
      const std::uint64_t v = ref[idx - 1];  // rank-matched sorted sample
      const double est = h.percentile(p);
      CHECK_NEAR(est, static_cast<double>(
                          tel::hist_bucket_upper(tel::hist_bucket(v))),
                 0.0);
      CHECK(est >= static_cast<double>(v));
      CHECK(est < 2.0 * static_cast<double>(v));
    }
    tel::set_metrics_enabled(metrics_was);
  }

  // -- counts from threads that have exited: a snapshot after the joins sees
  // every increment ---------------------------------------------------------
  {
    const bool metrics_was = tel::metrics_enabled();
    tel::set_metrics_enabled(true);
    const tel::MetricsSnapshot before = tel::metrics_snapshot();
    tel::count(tel::Counter::checkpoint_restores, 7);
    std::vector<std::thread> ts;
    for (int i = 0; i < 4; ++i)
      ts.emplace_back(
          [] { tel::count(tel::Counter::checkpoint_restores, 1000); });
    for (std::thread& t : ts) t.join();
    const tel::MetricsSnapshot d =
        tel::metrics_delta(before, tel::metrics_snapshot());
    CHECK_EQ(d.counter(tel::Counter::checkpoint_restores),
             std::uint64_t{4007});
    tel::set_metrics_enabled(metrics_was);
  }

  // -- solver counters at 1 and 4 workers: Counter::matvecs is the logical
  // apply() chokepoint, so its delta matches LanczosResult::matvecs exactly
  // and the matvec_ns histogram records once per apply ----------------------
  {
    const bool metrics_was = tel::metrics_enabled();
    const int threads_was = num_threads();
    const ScbSum h = ring8();
    LanczosOptions lo;
    lo.k = 2;
    lo.tol = 1e-10;
    for (int workers : {1, 4}) {
      set_num_threads(workers);
      tel::set_metrics_enabled(true);
      Lanczos solver(h, lo);
      const tel::MetricsSnapshot before = tel::metrics_snapshot();
      const LanczosResult& r = solver.solve();
      const tel::MetricsSnapshot d =
          tel::metrics_delta(before, tel::metrics_snapshot());
      CHECK(r.converged);
      CHECK_EQ(d.counter(tel::Counter::matvecs),
               static_cast<std::uint64_t>(r.matvecs));
      CHECK_EQ(d.hist(tel::Hist::matvec_ns).count,
               static_cast<std::uint64_t>(r.matvecs));
      CHECK(d.counter(tel::Counter::kernel_sweeps) > 0);
      CHECK(d.counter(tel::Counter::amplitudes_touched) > 0);
      CHECK(d.counter(tel::Counter::bytes_moved) >
            d.counter(tel::Counter::amplitudes_touched));
      std::printf("lanczos @%d workers: matvecs=%llu sweeps=%llu\n", workers,
                  static_cast<unsigned long long>(
                      d.counter(tel::Counter::matvecs)),
                  static_cast<unsigned long long>(
                      d.counter(tel::Counter::kernel_sweeps)));
    }
    tel::set_metrics_enabled(metrics_was);
    set_num_threads(threads_was);
  }

  // -- span nesting, depth and thread attribution ---------------------------
  {
    const bool tracing_was = tel::tracing_enabled();
    tel::set_tracing_enabled(true);
    tel::trace_clear();
    {
      GECOS_SPAN("test.outer");
      { GECOS_SPAN("test.inner"); }
      { GECOS_SPAN("test.inner"); }
    }
    std::thread worker([] { GECOS_SPAN("test.worker"); });
    worker.join();
    const std::vector<tel::TraceEvent> evs = tel::trace_events();
    CHECK_EQ(tel::trace_dropped_events(), std::uint64_t{0});
    std::size_t outer = 0, inner = 0, other = 0;
    std::uint32_t outer_tid = 0, worker_tid = 0;
    std::uint64_t outer_ts = 0, outer_end = 0;
    for (const tel::TraceEvent& e : evs) {
      if (std::strcmp(e.name, "test.outer") == 0) {
        ++outer;
        CHECK_EQ(e.depth, std::uint32_t{0});
        outer_tid = e.tid;
        outer_ts = e.ts_ns;
        outer_end = e.ts_ns + e.dur_ns;
      } else if (std::strcmp(e.name, "test.worker") == 0) {
        ++other;
        CHECK_EQ(e.depth, std::uint32_t{0});
        worker_tid = e.tid;
      }
    }
    for (const tel::TraceEvent& e : evs) {
      if (std::strcmp(e.name, "test.inner") == 0) {
        ++inner;
        CHECK_EQ(e.depth, std::uint32_t{1});
        CHECK_EQ(e.tid, outer_tid);
        CHECK(e.ts_ns >= outer_ts);
        CHECK(e.ts_ns + e.dur_ns <= outer_end);
      }
    }
    CHECK_EQ(outer, std::size_t{1});
    CHECK_EQ(inner, std::size_t{2});
    CHECK_EQ(other, std::size_t{1});
    CHECK(worker_tid != outer_tid);

    // TraceWriter: the events above serialize as loadable trace JSON.
    const std::string path =
        "/tmp/gecos_test_trace_" + std::to_string(::getpid()) + ".json";
    const tel::TraceWriter tw;
    CHECK(tw.write_file(path));
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string json = ss.str();
    CHECK(!json.empty() && json.front() == '{');
    CHECK(json.find("\"traceEvents\"") != std::string::npos);
    CHECK(json.find("test.outer") != std::string::npos);
    CHECK(json.find("\"ph\": \"X\"") != std::string::npos);
    std::remove(path.c_str());

    tel::trace_clear();
    CHECK(tel::trace_events().empty());
    tel::set_tracing_enabled(tracing_was);
  }

  // -- telemetry never changes the numbers: bit-identical trajectories with
  // metrics + tracing on vs off ---------------------------------------------
  {
    const ScbSum h = ring8();
    LanczosOptions lo;
    lo.k = 2;
    lo.tol = 1e-10;
    tel::set_metrics_enabled(false);
    tel::set_tracing_enabled(false);
    Lanczos off(h, lo);
    const LanczosResult r_off = off.solve();  // copy: solver reuses buffers
    tel::set_metrics_enabled(true);
    tel::set_tracing_enabled(true);
    Lanczos on(h, lo);
    const LanczosResult& r_on = on.solve();
    CHECK_EQ(r_off.iterations, r_on.iterations);
    CHECK_EQ(r_off.matvecs, r_on.matvecs);
    CHECK_EQ(r_off.residual_history.size(), r_on.residual_history.size());
    bool identical = r_off.eigenvalues == r_on.eigenvalues &&
                     r_off.residual_history == r_on.residual_history;
    CHECK(identical);

    // KrylovEvolver::apply_expm at a z with both a decaying and an
    // oscillating part: the final state and the per-extension residual
    // trajectory carry the same bytes either way.
    std::vector<cplx> psi_off(h.dim()), psi_on(h.dim());
    std::mt19937_64 rng(20260808);
    std::normal_distribution<double> g;
    for (std::size_t i = 0; i < h.dim(); ++i)
      psi_off[i] = psi_on[i] = cplx(g(rng), g(rng));
    const cplx z(-0.3, -0.7);
    KrylovOptions ko;
    ko.max_subspace = 12;  // forces step splitting on the way
    tel::set_metrics_enabled(false);
    tel::set_tracing_enabled(false);
    const KrylovEvolver ev_off(h, ko);
    ev_off.apply_expm(z, psi_off);
    const KrylovStepInfo& k_off = ev_off.last_step();
    tel::set_metrics_enabled(true);
    tel::set_tracing_enabled(true);
    const KrylovEvolver ev_on(h, ko);
    ev_on.apply_expm(z, psi_on);
    const KrylovStepInfo& k_on = ev_on.last_step();
    tel::set_metrics_enabled(false);
    tel::set_tracing_enabled(false);
    CHECK(k_off.substeps > 1);
    CHECK_EQ(k_off.matvecs, k_on.matvecs);
    CHECK_EQ(k_off.substeps, k_on.substeps);
    CHECK_EQ(k_off.residual_history.size(), k_on.residual_history.size());
    identical =
        k_off.residual_history.size() == k_on.residual_history.size() &&
        std::memcmp(k_off.residual_history.data(),
                    k_on.residual_history.data(),
                    k_off.residual_history.size() * sizeof(double)) == 0 &&
        std::memcmp(psi_off.data(), psi_on.data(),
                    psi_off.size() * sizeof(cplx)) == 0;
    CHECK(identical);
    tel::trace_clear();
  }

  // -- progress callbacks and per-iteration histories -----------------------
  {
    const ScbSum h = ring8();
    std::vector<tel::ProgressEvent> events;

    LanczosOptions lo;
    lo.k = 2;
    lo.tol = 1e-10;
    lo.progress = [&](const tel::ProgressEvent& e) { events.push_back(e); };
    Lanczos solver(h, lo);
    const LanczosResult& r = solver.solve();
    CHECK(r.converged);
    CHECK(!events.empty());
    for (std::size_t i = 0; i < events.size(); ++i) {
      CHECK(std::strcmp(events[i].phase, "lanczos") == 0);
      CHECK(events[i].elapsed_s >= 0.0);
      CHECK_NEAR(events[i].target, lo.tol, 0.0);
      if (i > 0) {
        CHECK(events[i].iteration > events[i - 1].iteration);
        CHECK(events[i].matvecs >= events[i - 1].matvecs);
      }
    }
    CHECK(!r.residual_history.empty());
    CHECK(r.residual_history.back() <= lo.tol);
    CHECK_EQ(r.restart_history.size(), r.restarts);

    // KrylovEvolver: the per-extension Saad residual estimates land in
    // last_step().
    KrylovEvolver ev(h, KrylovOptions{});
    std::vector<cplx> psi(h.dim(), cplx(0.0));
    psi[1] = cplx(1.0);
    ev.apply_expm(cplx(0.0, -0.5), psi);
    CHECK_NEAR(vec_norm(psi), 1.0, 1e-12);
    const KrylovStepInfo& info = ev.last_step();
    CHECK(info.matvecs > 0);
    CHECK(info.subspace > 0);
    CHECK(info.substeps >= 1);
    CHECK(!info.residual_history.empty());

    // eta_from_decay: converged -> 0, no decay -> unknown, decay -> finite.
    CHECK_NEAR(tel::eta_from_decay(1.0, 1e-9, 1e-8, 5.0), 0.0, 0.0);
    CHECK_NEAR(tel::eta_from_decay(1.0, 1.0, 1e-8, 5.0), -1.0, 0.0);
    CHECK_NEAR(tel::eta_from_decay(0.0, 0.5, 1e-8, 5.0), -1.0, 0.0);
    const double eta = tel::eta_from_decay(1.0, 1e-4, 1e-8, 10.0);
    CHECK(eta > 0.0);
    CHECK_NEAR(eta, 10.0, 1e-9);  // equal decades ahead and behind
  }

  // -- allocation pins: a warm re-solve allocates nothing with telemetry
  // disabled (the instrumented hot paths cost one branch) AND with metrics +
  // tracing enabled once the span ring exists -------------------------------
  {
    const int threads_was = num_threads();
    set_num_threads(4);
    const ScbSum h = ring8();
    LanczosOptions lo;
    lo.k = 2;
    lo.tol = 1e-10;
    Lanczos solver(h, lo);

    tel::set_metrics_enabled(false);
    tel::set_tracing_enabled(false);
    solver.solve();  // warm-up: kernel cache, pool, workspaces
    long before = gecos::test::allocations();
    solver.solve();
    const long disabled_delta = gecos::test::allocations() - before;

    tel::set_metrics_enabled(true);
    tel::set_tracing_enabled(true);
    tel::trace_clear();
    solver.solve();  // warm-up: the span ring
    before = gecos::test::allocations();
    solver.solve();
    const long enabled_delta = gecos::test::allocations() - before;
    tel::set_metrics_enabled(false);
    tel::set_tracing_enabled(false);
    tel::trace_clear();
    set_num_threads(threads_was);

#if GECOS_ALLOC_PROBE_ACTIVE
    std::printf("alloc probe: disabled=%ld enabled=%ld allocations\n",
                disabled_delta, enabled_delta);
    CHECK_EQ(disabled_delta, 0);
    CHECK_EQ(enabled_delta, 0);
#else
    (void)disabled_delta;
    (void)enabled_delta;
#endif
  }

  // -- allocation pin on a fresh thread: once the span ring exists, a thread
  // that has never recorded anything counts, observes and records a span
  // without allocating (no per-thread metrics or trace state) --------------
  {
    tel::set_metrics_enabled(true);
    tel::set_tracing_enabled(true);
    { GECOS_SPAN("test.ring_warmup"); }
    long fresh_delta = -1;
    std::thread fresh([&fresh_delta] {
      const long before = gecos::test::allocations();
      tel::count(tel::Counter::checkpoint_restores);
      tel::observe(tel::Hist::checkpoint_write_ns, 1000);
      { GECOS_SPAN("test.fresh_thread"); }
      fresh_delta = gecos::test::allocations() - before;
    });
    fresh.join();
    tel::set_metrics_enabled(false);
    tel::set_tracing_enabled(false);
    tel::trace_clear();
#if GECOS_ALLOC_PROBE_ACTIVE
    std::printf("alloc probe: fresh thread=%ld allocations\n", fresh_delta);
    CHECK_EQ(fresh_delta, 0);
#else
    (void)fresh_delta;
#endif
  }

  return gecos::test::finish("test_telemetry");
}

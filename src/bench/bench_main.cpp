// Benchmark runner for the packed symplectic Pauli engine, the fermionic
// Jordan-Wigner workloads, the Krylov solver layer and the U(1)
// symmetry-sector subsystem.
//
// Establishes the repo's perf trajectory (BENCH_pauli.json): term -> Pauli
// expansion, PauliSum products, matrix-free statevector application, dense
// matmul and expm, the fermion_* entries measuring the paper's central
// claim head-to-head — SCB term count and build time of second-quantized
// Hamiltonians versus their expanded Pauli representation — the threaded
// apply/evolution throughput, Lanczos/Krylov solver runs, and the sector_*
// entries pinning the sector-restricted solvers against their full-space
// references. The packed paths are measured against the retained legacy
// implementations (ops/pauli_ref.hpp and a per-qubit apply loop) so
// regressions and speedup claims are visible in one artifact.
//
// Every entry is a named *section*; `--only <substr>` (repeatable) runs the
// matching subset, which is what keeps the dev loop short now that a full
// run takes minutes, and `--list` prints the registered entry names. Each
// section seeds its own RNG, so a filtered run reproduces the inputs of the
// full run exactly. The spectral_* entries pin the continued-fraction,
// KPM and thermal-sampling estimators against dense eigh references.
//
// Usage: bench_main [--quick] [--out PATH] [--threads K] [--repeat K]
//        [--simd TIER] [--only SUBSTR]... [--trace PATH] [--progress]
//        [--list] [--help]
// (see print_help)
#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "evolve/trotter.hpp"
#include "fermion/hubbard.hpp"
#include "io/checkpoint.hpp"
#include "fermion/jordan_wigner.hpp"
#include "linalg/blas1.hpp"
#include "linalg/expm.hpp"
#include "linalg/matrix.hpp"
#include "ops/conversion.hpp"
#include "ops/pauli.hpp"
#include "ops/pauli_ref.hpp"
#include "ops/scb_sum.hpp"
#include "ops/term.hpp"
#include "serve/batch.hpp"
#include "serve/scheduler.hpp"
#include "simd/simd.hpp"
#include "solver/krylov_evolve.hpp"
#include "solver/lanczos.hpp"
#include "spectral/continued_fraction.hpp"
#include "spectral/kpm.hpp"
#include "spectral/thermal.hpp"
#include "state/state_vector.hpp"
#include "symmetry/sector_operator.hpp"
#include "symmetry/sector_vector.hpp"
#include "telemetry/progress.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "util/parallel.hpp"

using namespace gecos;

namespace {

std::size_t sink = 0;  // defeats dead-code elimination of benchmark bodies

int g_repeat = 5;  // timed runs per entry (--repeat)

// Min-time STREAM-triad bandwidth in GB/s, filled by the stream_triad
// section (which runs before every entry that reports achieved_gbs).
// Stays 0 when --only filtered stream_triad out; stream_fraction fields
// are then 0 too.
double g_triad_gbs = 0;

/// min + median seconds per call over the repeated timed runs. The median
/// is the headline number (robust against one-off stalls); the min is the
/// least-noise sample, the best trajectory anchor on shared machines where
/// ambient load inflates every other statistic.
struct Timing {
  double median = 0;
  double min = 0;
};

/// Timing over g_repeat runs of >= min_seconds each.
Timing time_per_op(const std::function<void()>& fn, double min_seconds) {
  using clock = std::chrono::steady_clock;
  fn();  // warmup
  std::vector<double> samples;
  for (int r = 0; r < g_repeat; ++r) {
    int iters = 0;
    const auto start = clock::now();
    double elapsed = 0;
    while (elapsed < min_seconds) {
      fn();
      ++iters;
      elapsed = std::chrono::duration<double>(clock::now() - start).count();
    }
    samples.push_back(elapsed / iters);
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  const double median = n % 2 ? samples[n / 2]
                              : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
  return {median, samples.front()};
}

struct BenchResult {
  // Constructor (not aggregate init) so the existing two-field push_back
  // sites stay untouched: the telemetry block is attached by the run loop.
  BenchResult(std::string n, std::vector<std::pair<std::string, double>> f)
      : name(std::move(n)), fields(std::move(f)) {}
  std::string name;
  std::vector<std::pair<std::string, double>> fields;
  /// Nested "telemetry" block: the metrics-registry delta over the entry
  /// (matvecs, modeled bytes, pool utilization). Filled by the run loop
  /// from snapshot pairs; empty when metrics were off for the entry.
  std::vector<std::pair<std::string, double>> telemetry;
};

std::string json_escape_free_format(double v) {
  std::ostringstream os;
  os.precision(9);
  os << v;
  return os.str();
}

bool write_json(const std::string& path, bool quick,
                const std::vector<BenchResult>& results) {
  std::ofstream out(path);
  out << "{\n  \"schema\": \"gecos-bench-v4\",\n";
  out << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  // Hardware context: numbers in one report are only comparable to another
  // report from the same (core count, ISA tier) machine. The avx2/avx512
  // flags record tier *usability* (compiled in AND host CPUID, FMA
  // included); simd_tier is the tier the run actually dispatched to
  // (GECOS_SIMD / --simd override included).
  out << "  \"hw\": {\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"avx2\": "
      << (simd_tier_available(SimdTier::avx2) ? "true" : "false")
      << ", \"avx512\": "
      << (simd_tier_available(SimdTier::avx512) ? "true" : "false")
      << ", \"simd_tier\": \"" << simd_tier_name(simd_tier()) << "\"},\n";
  out << "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    out << "    {\"name\": \"" << results[i].name << "\"";
    for (const auto& [k, v] : results[i].fields)
      out << ", \"" << k << "\": " << json_escape_free_format(v);
    if (!results[i].telemetry.empty()) {
      out << ", \"telemetry\": {";
      for (std::size_t j = 0; j < results[i].telemetry.size(); ++j) {
        const auto& [k, v] = results[i].telemetry[j];
        out << (j ? ", " : "") << "\"" << k
            << "\": " << json_escape_free_format(v);
      }
      out << "}";
    }
    out << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  out.flush();
  return out.good();
}

PauliString random_string(std::size_t n, std::mt19937& rng) {
  static const std::array<Scb, 4> t = {Scb::I, Scb::X, Scb::Y, Scb::Z};
  std::vector<Scb> ops(n);
  for (auto& o : ops) o = t[rng() % 4];
  return PauliString(std::move(ops));
}

/// A term whose bare product expands to exactly 2^k Pauli strings.
ScbTerm make_expanding_term(std::size_t n, std::size_t k, std::mt19937& rng) {
  static const std::array<Scb, 4> branching = {Scb::N, Scb::M, Scb::Sm,
                                               Scb::Sp};
  static const std::array<Scb, 4> fixed = {Scb::I, Scb::X, Scb::Y, Scb::Z};
  std::vector<Scb> ops(n);
  for (std::size_t q = 0; q < n; ++q)
    ops[q] = q < k ? branching[rng() % 4] : fixed[rng() % 4];
  return ScbTerm(cplx(0.8, -0.3), std::move(ops), false);
}

/// Pre-refactor apply_terms: per-qubit bare_amplitude on every basis state.
void legacy_apply_terms(const std::vector<ScbTerm>& terms,
                        std::span<const cplx> x, std::span<cplx> y) {
  const std::size_t dim = x.size();
  for (const ScbTerm& t : terms) {
    const std::uint64_t flip = t.flip_mask();
    for (std::uint64_t s = 0; s < dim; ++s) {
      const cplx amp = t.bare_amplitude(s);
      if (amp != cplx(0.0)) y[s ^ flip] += amp * x[s];
    }
    if (t.add_hc()) {
      for (std::uint64_t s = 0; s < dim; ++s) {
        const cplx amp = std::conj(t.bare_amplitude(s ^ flip));
        if (amp != cplx(0.0)) y[s ^ flip] += amp * x[s];
      }
    }
  }
}

/// The shared quench lattice of the threaded/solver/sector entries: one
/// baseline scope so parallel_apply, hubbard_quench, lanczos_ground_state,
/// krylov_quench, sector_xcheck and sector_quench all measure the SAME
/// Hamiltonian (2D spinful, n = 16 quick / 20 full).
HubbardParams quench_lattice(bool quick) {
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

/// Fixed RNG seed: every section seeds its own generator with this, so a
/// --only run feeds each benchmark the exact inputs of a full run.
constexpr std::uint32_t kSeed = 20260730;

/// The molecular workload shared by fermion_molecular and
/// fermion_apply_xcheck — one definition, so the cross-check gate always
/// covers the exact Hamiltonian the timing entry benchmarks.
FermionSum molecular_workload(bool quick, std::size_t& modes) {
  modes = quick ? 16 : 20;
  return random_two_body(modes, 16, quick ? 12 : 24, kSeed);
}

/// Full-space Lanczos ground-state energy of the n = 20 quench lattice as
/// recorded by the PR 4 run (bit-identical across that PR's repeated runs).
/// sector_xcheck gates the ground-sector solve against it without paying
/// for a full-space re-solve.
constexpr double kFullE0N20 = -13.8785798502;

/// Dense matrix of any LinearOperator, column by column — the bench-side
/// reference builder of the spectral_* gates (small dimensions only).
Matrix dense_operator(const LinearOperator& a) {
  const std::size_t d = a.dim();
  Matrix m(d, d);
  std::vector<cplx> x(d), y(d);
  for (std::size_t c = 0; c < d; ++c) {
    std::fill(x.begin(), x.end(), cplx(0.0));
    std::fill(y.begin(), y.end(), cplx(0.0));
    x[c] = cplx(1.0);
    a.apply_add(x, y, cplx(1.0));
    for (std::size_t r = 0; r < d; ++r) m(r, c) = y[r];
  }
  return m;
}

/// Integrated |A_cf - exact Lorentzian pole sum| over a 601-point grid
/// bracketing the spectrum — the acceptance metric of spectral_greens. The
/// exact weights |<j|phi>|^2 come from the eigenvector projection.
double cf_integrated_dev(const SpectralFunction& sf, const EigenSystem& es,
                         std::span<const cplx> phi, double eta) {
  const std::size_t d = es.eigenvalues.size();
  std::vector<double> w(d);
  for (std::size_t j = 0; j < d; ++j) {
    cplx amp(0.0);
    for (std::size_t i = 0; i < d; ++i)
      amp += std::conj(es.eigenvectors(i, j)) * phi[i];
    w[j] = std::norm(amp);
  }
  const double lo = es.eigenvalues.front() - 1.0;
  const double hi = es.eigenvalues.back() + 1.0;
  const double dx = (hi - lo) / 600.0;
  double dev = 0.0;
  for (int i = 0; i <= 600; ++i) {
    const double omega = lo + dx * i;
    double ref = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      const double e = omega - es.eigenvalues[j];
      ref += w[j] * (eta / M_PI) / (e * e + eta * eta);
    }
    const double diff = std::abs(sf.evaluate_at(omega, eta) - ref);
    dev += (i == 0 || i == 600) ? 0.5 * diff : diff;
  }
  return dev * dx;
}

/// Integrated |rho_kpm - exact-moment Jackson reconstruction| over the
/// interior 90% of the KPM bracket — the acceptance metric of
/// spectral_kpm_dos. The reference moments come from the eigenvalues with
/// the estimator's own bounds and kernel, so the shared broadening cancels.
double kpm_integrated_dev(const KpmDos& kpm, const EigenSystem& es) {
  const std::size_t mcount = kpm.moments().size();
  const double shift = 0.5 * (kpm.e_max() + kpm.e_min());
  const double scale = 0.5 * (kpm.e_max() - kpm.e_min());
  const double dinv = 1.0 / static_cast<double>(es.eigenvalues.size());
  std::vector<double> mu(mcount, 0.0);
  for (double e : es.eigenvalues) {
    const double x = (e - shift) / scale;
    double tp = 1.0, tc = x;
    mu[0] += dinv;
    mu[1] += dinv * x;
    for (std::size_t k = 2; k < mcount; ++k) {
      const double tn = 2.0 * x * tc - tp;
      tp = tc;
      tc = tn;
      mu[k] += dinv * tc;
    }
  }
  const double m1 = static_cast<double>(mcount) + 1.0;
  const double cot = std::cos(M_PI / m1) / std::sin(M_PI / m1);
  std::vector<double> jack(mcount);
  for (std::size_t k = 0; k < mcount; ++k) {
    const double kd = static_cast<double>(k);
    jack[k] = ((m1 - kd) * std::cos(M_PI * kd / m1) +
               std::sin(M_PI * kd / m1) * cot) /
              m1;
  }
  const double width = kpm.e_max() - kpm.e_min();
  const double lo = kpm.e_min() + 0.05 * width;
  const double dx = 0.9 * width / 600.0;
  double dev = 0.0;
  for (int i = 0; i <= 600; ++i) {
    const double omega = lo + dx * i;
    const double x = (omega - shift) / scale;
    double cp = 1.0, cc = x;
    double s = jack[0] * mu[0] + 2.0 * jack[1] * mu[1] * cc;
    for (std::size_t k = 2; k < mcount; ++k) {
      const double cn = 2.0 * x * cc - cp;
      cp = cc;
      cc = cn;
      s += 2.0 * jack[k] * mu[k] * cc;
    }
    const double ref = s / (M_PI * std::sqrt(1.0 - x * x) * scale);
    const double diff = std::abs(kpm.evaluate_at(omega) - ref);
    dev += (i == 0 || i == 600) ? 0.5 * diff : diff;
  }
  return dev * dx;
}

/// Exact <H>_beta from the eigenvalues alone (the observable is diagonal in
/// its own eigenbasis) — the acceptance reference of spectral_thermal.
double thermal_energy_ref(const std::vector<double>& eigenvalues,
                          double beta) {
  const double e0 = eigenvalues.front();
  double z = 0.0, acc = 0.0;
  for (double e : eigenvalues) {
    const double w = std::exp(-beta * (e - e0));
    z += w;
    acc += w * e;
  }
  return acc / z;
}

void print_help(const char* prog) {
  std::printf(
      "usage: %s [--quick] [--out PATH] [--threads K] [--repeat K]\n"
      "       [--simd TIER] [--only SUBSTR]... [--trace PATH] [--progress]\n"
      "       [--list] [--help]\n"
      "\n"
      "Runs the GECOS benchmark suite and writes a JSON report.\n"
      "\n"
      "  --quick       smaller workloads and shorter timing windows (0.05 s\n"
      "                instead of 0.25 s per sample); CI uses this as a\n"
      "                smoke test, so absolute numbers are noisier\n"
      "  --out PATH    output path for the JSON report (default:\n"
      "                BENCH_pauli.json)\n"
      "  --threads K   worker count for the parallel statevector kernels;\n"
      "                the parallel_apply/hubbard_quench entries measure\n"
      "                1 vs K explicitly (without the flag: 1 vs 4; other\n"
      "                entries follow GECOS_THREADS, else hardware\n"
      "                concurrency)\n"
      "  --repeat K    timed runs per entry (default 5); every timed entry\n"
      "                reports the median and the min across the runs\n"
      "  --simd TIER   force the SIMD dispatch tier (scalar | avx2 | avx512)\n"
      "                for every kernel in the run, same spelling as the\n"
      "                GECOS_SIMD environment variable; forcing a tier this\n"
      "                host cannot run is an error. Without the flag the\n"
      "                widest available tier is used (see the hw block)\n"
      "  --only SUBSTR run only the bench entries whose name contains\n"
      "                SUBSTR (repeatable; a filter matching no entry is an\n"
      "                error). Entries run in their full-suite order and\n"
      "                the JSON schema is unchanged; without an explicit\n"
      "                --out the partial report goes to BENCH_partial.json\n"
      "                so the tracked full-suite artifact is never\n"
      "                clobbered\n"
      "  --trace PATH  record scoped spans during the run and write a\n"
      "                chrome://tracing / Perfetto trace-event JSON to PATH\n"
      "                on exit (same format as GECOS_TRACE=<path>; validate\n"
      "                or digest it with tools/trace_report.py)\n"
      "  --progress    stream throttled solver progress lines (iteration,\n"
      "                residual, matvecs, ETA) to stderr from the\n"
      "                Lanczos-based entries\n"
      "  --list        print the registered bench entry names (one per\n"
      "                line, full-suite order) and exit without running\n"
      "                anything; with --only filters it prints exactly the\n"
      "                entries the same filters would run (a filter preview)\n"
      "  --help        print this message and exit\n"
      "\n"
      "Output schema \"gecos-bench-v4\":\n"
      "  {\"schema\": \"gecos-bench-v4\", \"quick\": bool,\n"
      "   \"hw\": {\"nproc\", \"avx2\", \"avx512\", \"simd_tier\"},\n"
      "   \"benchmarks\": [{\"name\": str, <numeric fields>,\n"
      "                    \"telemetry\": {<counter deltas>}}]}\n"
      "v4 adds the per-entry \"telemetry\" object: the metrics-registry\n"
      "delta over the entry — matvecs (logical operator applications),\n"
      "kernel_sweeps, amplitudes_touched, bytes_moved (the same analytic\n"
      "traffic models as the roofline fields), pool_dispatches and\n"
      "pool_utilization (pool task time / (task + idle)). Every other\n"
      "field and the entry names are unchanged from v3.\n"
      "Fields ending in seconds_per_op are the MEDIAN over --repeat timed\n"
      "runs; the matching min_* field is the minimum across the same runs\n"
      "(the least-noise sample — compare trajectories on that). *_per_sec\n"
      "are derived from the median; speedup_vs_ref compares against the\n"
      "retained legacy implementation in the same binary and run.\n"
      "stream_triad measures the machine's streaming memory bandwidth; the\n"
      "achieved_gbs fields of scb_apply / hubbard_quench / sector_quench\n"
      "divide each entry's modeled memory traffic by its min time, and\n"
      "stream_fraction is achieved_gbs over the triad roofline (how close\n"
      "the kernel runs to memory-bound peak). fermion_*\n"
      "entries report scb_terms vs pauli_strings and the build time of each\n"
      "representation; parallel_apply and hubbard_quench report the threaded\n"
      "statevector/evolution throughput (hubbard_quench also times the\n"
      "unfused one-sweep-per-term evolver and reports fused_speedup, the\n"
      "gain of the diagonal phase table alone, plus the fused-vs-unfused\n"
      "trajectory gate); lanczos_ground_state and\n"
      "krylov_quench cover the Krylov solver layer; lanczos_resume gates\n"
      "checkpoint/restore (interrupt mid-solve, resume from the file,\n"
      "require the recovered E0 within 1e-10 of the uninterrupted\n"
      "reference); sector_* entries cover\n"
      "the U(1) symmetry-sector subsystem (sector_xcheck gates the sector\n"
      "ground state against the full-space value, sector_ground_state is\n"
      "the n >= 28 scale proof, sector_quench the sector-native evolution);\n"
      "spectral_* entries cover the spectral & thermal workloads, each\n"
      "gated against a dense eigh reference (spectral_greens: continued-\n"
      "fraction A(w) full-space and sector-restricted within 1e-8\n"
      "integrated deviation; spectral_kpm_dos: exact-trace KPM DOS within\n"
      "the same gate, stochastic trace timed; spectral_thermal: sampled\n"
      "<H>_beta inside its own error bars across a beta sweep,\n"
      "bit-reproducible under the fixed seed). telemetry_overhead gates\n"
      "the instrumentation cost itself: the quench Strang step is timed\n"
      "with telemetry off, with metrics on, and with metrics + tracing on,\n"
      "and the enabled-over-off ratios must stay within 1%% (metrics) and\n"
      "5%% (traced) at full size (relaxed gates under --quick, where the\n"
      "short timing windows are noise-dominated). serve_batch gates the\n"
      "serving layer: 16 coalesced expectation requests run as one batched\n"
      "evolution pass must beat the 16 sequential passes by >= 5x with\n"
      "bitwise-identical values, and a warm re-submit of an identical\n"
      "ground-state job to a live Scheduler must be served from the\n"
      "artifact cache (artifact_hits > 0, zero kernel compiles / sector\n"
      "table builds in the warm telemetry delta) while reproducing the\n"
      "cold solve trajectory bit-for-bit.\n"
      "See DESIGN.md \"Benchmark methodology\", \"Krylov solver layer\",\n"
      "\"Symmetry sectors\", \"Spectral & thermal workloads\",\n"
      "\"Telemetry & tracing\", \"Serving layer\" and README.md\n"
      "\"Reading BENCH_pauli.json\".\n",
      prog);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool list_only = false;  // --list: print entry names, run nothing
  int threads_flag = 0;  // 0 = not given; parallel entries then default to 4
  std::string out_path = "BENCH_pauli.json";
  bool out_given = false;
  std::string trace_path;        // --trace PATH (empty = no trace)
  bool progress_flag = false;    // --progress: stderr solver progress
  std::vector<std::string> only;  // --only filters (empty = run everything)
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    else if (std::strcmp(argv[i], "--out") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --out requires a PATH argument\n", argv[0]);
        return 2;
      }
      out_path = argv[++i];
      out_given = true;
    } else if (std::strcmp(argv[i], "--repeat") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --repeat requires a count argument\n",
                     argv[0]);
        return 2;
      }
      const int k = std::atoi(argv[++i]);
      if (k < 1) {
        std::fprintf(stderr, "%s: --repeat needs a positive count, got '%s'\n",
                     argv[0], argv[i]);
        return 2;
      }
      g_repeat = k;
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --threads requires a count argument\n",
                     argv[0]);
        return 2;
      }
      const int k = std::atoi(argv[++i]);
      if (k < 1) {
        std::fprintf(stderr, "%s: --threads needs a positive count, got '%s'\n",
                     argv[0], argv[i]);
        return 2;
      }
      threads_flag = k;
      set_num_threads(k);
    } else if (std::strcmp(argv[i], "--simd") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr,
                     "%s: --simd requires a tier argument "
                     "(scalar | avx2 | avx512)\n",
                     argv[0]);
        return 2;
      }
      try {
        set_simd_tier(parse_simd_tier(argv[++i]));
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s: --simd %s: %s\n", argv[0], argv[i],
                     e.what());
        return 2;
      }
    } else if (std::strcmp(argv[i], "--only") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --only requires a SUBSTR argument\n",
                     argv[0]);
        return 2;
      }
      only.emplace_back(argv[++i]);
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --trace requires a PATH argument\n",
                     argv[0]);
        return 2;
      }
      trace_path = argv[++i];
      if (trace_path.empty()) {
        std::fprintf(stderr, "%s: --trace requires a non-empty PATH\n",
                     argv[0]);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--progress") == 0) {
      progress_flag = true;
    } else if (std::strcmp(argv[i], "--list") == 0) {
      list_only = true;
    } else if (std::strcmp(argv[i], "--help") == 0 ||
             std::strcmp(argv[i], "-h") == 0) {
      print_help(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr,
                   "%s: unknown argument '%s'\nusage: %s [--quick] [--out "
                   "PATH] [--threads K] [--repeat K] [--simd TIER] "
                   "[--only SUBSTR]... [--trace PATH] [--progress] "
                   "[--list] [--help]\n",
                   argv[0], argv[i], argv[0]);
      return 2;
    }
  }
  // Validate the lazily-parsed environment up front: a bad GECOS_THREADS /
  // GECOS_SIMD should fail the run with the offending token and the
  // flag-error exit code, not explode inside the first parallel kernel.
  try {
    (void)num_threads();
    (void)simd_tier();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }
  // Metrics are on for bench runs: the per-entry telemetry JSON block needs
  // the registry live, and telemetry_overhead gates the cost of exactly
  // this mode against the disabled path. --trace additionally records
  // scoped spans into the per-thread rings.
  telemetry::set_metrics_enabled(true);
  if (!trace_path.empty()) telemetry::set_tracing_enabled(true);
  // Probe --out writability before the (potentially minutes-long) run: CI
  // daemon integration points --out into a job workspace, and a typo'd
  // directory should fail now with the flag-error exit code, not after the
  // suite finishes. Append mode so an existing artifact is left untouched;
  // the probe file is removed again when the path did not pre-exist.
  if (!list_only) {
    const bool pre_existed =
        static_cast<bool>(std::ifstream(out_path.c_str()));
    if (!std::ofstream(out_path.c_str(), std::ios::app)) {
      std::fprintf(stderr, "%s: --out %s: cannot open for writing\n",
                   argv[0], out_path.c_str());
      return 2;
    }
    if (!pre_existed) std::remove(out_path.c_str());
  }
  // A filtered run writes a PARTIAL report; defaulting it onto the tracked
  // full-suite artifact would silently clobber the perf trajectory, so
  // --only redirects the default output (an explicit --out still wins).
  if (!only.empty() && !out_given && !list_only) {
    out_path = "BENCH_partial.json";
    std::printf("note: --only without --out writes %s (not the tracked "
                "full-suite BENCH_pauli.json)\n",
                out_path.c_str());
  }
  const double min_s = quick ? 0.05 : 0.25;
  std::vector<BenchResult> results;

  // achieved_gbs / triad roofline ratio; 0 when stream_triad did not run
  // in this invocation (--only filtered it out).
  const auto stream_frac = [](double gbs) {
    return g_triad_gbs > 0.0 ? gbs / g_triad_gbs : 0.0;
  };

  // -- section registry ------------------------------------------------------
  // One named section per JSON entry, in full-suite order. Sections return
  // nonzero on a gate failure (cross-checks), which becomes the exit code.
  struct Section {
    const char* name;
    std::function<int()> run;
  };
  std::vector<Section> sections;

  // -- term -> Pauli expansion (the Fig. 1 "mapping" arrow) ------------------
  sections.push_back({"term_expansion", [&] {
    std::mt19937 rng(kSeed);
    const std::size_t n = 32;
    const std::size_t k = quick ? 10 : 14;  // 2^k strings
    const ScbTerm term = make_expanding_term(n, k, rng);
    const double strings = static_cast<double>(std::size_t{1} << k);

    const Timing packed_t = time_per_op(
        [&] { sink += term_to_pauli(term).size(); }, min_s);
    const Timing ref_t = time_per_op(
        [&] { sink += ref_term_to_pauli(term).size(); }, min_s);
    std::printf("term_expansion       n=%zu strings=%g packed=%.3fms ref=%.3fms"
                " speedup=%.2fx\n",
                n, strings, packed_t.median * 1e3, ref_t.median * 1e3,
                ref_t.median / packed_t.median);
    results.push_back({"term_expansion",
                       {{"num_qubits", static_cast<double>(n)},
                        {"strings", strings},
                        {"seconds_per_op", packed_t.median},
                        {"min_seconds_per_op", packed_t.min},
                        {"strings_per_sec", strings / packed_t.median},
                        {"ref_seconds_per_op", ref_t.median},
                        {"ref_min_seconds_per_op", ref_t.min},
                        {"speedup_vs_ref", ref_t.median / packed_t.median}}});
    return 0;
  }});

  // -- PauliSum * PauliSum ---------------------------------------------------
  sections.push_back({"pauli_sum_product", [&] {
    std::mt19937 rng(kSeed);
    const std::size_t n = 32;
    const std::size_t terms = quick ? 48 : 128;  // terms^2 string products
    PauliSum a(n), b(n);
    RefPauliSum ra, rb;
    std::uniform_real_distribution<double> cd(-1.0, 1.0);
    while (a.size() < terms) {
      const PauliString s = random_string(n, rng);
      const cplx c(cd(rng), cd(rng));
      a.add(s, c);
      ra.add(s, c);
    }
    while (b.size() < terms) {
      const PauliString s = random_string(n, rng);
      const cplx c(cd(rng), cd(rng));
      b.add(s, c);
      rb.add(s, c);
    }
    const double pairs = static_cast<double>(terms) * terms;
    const Timing packed_t =
        time_per_op([&] { sink += (a * b).size(); }, min_s);
    const Timing ref_t = time_per_op([&] { sink += (ra * rb).size(); }, min_s);
    std::printf("pauli_sum_product    n=%zu pairs=%g packed=%.3fms ref=%.3fms"
                " speedup=%.2fx\n",
                n, pairs, packed_t.median * 1e3, ref_t.median * 1e3,
                ref_t.median / packed_t.median);
    results.push_back({"pauli_sum_product",
                       {{"num_qubits", static_cast<double>(n)},
                        {"terms_each", static_cast<double>(terms)},
                        {"string_products", pairs},
                        {"seconds_per_op", packed_t.median},
                        {"min_seconds_per_op", packed_t.min},
                        {"products_per_sec", pairs / packed_t.median},
                        {"ref_seconds_per_op", ref_t.median},
                        {"ref_min_seconds_per_op", ref_t.min},
                        {"speedup_vs_ref", ref_t.median / packed_t.median}}});
    return 0;
  }});

  // -- roofline anchor -------------------------------------------------------
  // STREAM triad (a[i] = b[i] + s*c[i] over doubles, arrays far beyond the
  // last-level cache): the streaming-bandwidth ceiling of this machine.
  // The statevector sweeps below are memory-bound, so their achieved_gbs
  // (modeled traffic / min time) is meaningful exactly as a fraction of
  // this number — stream_fraction close to 1 means the kernel is running
  // at the roofline and further ILP/SIMD work cannot help.
  sections.push_back({"stream_triad", [&] {
    const std::size_t len =
        quick ? (std::size_t{1} << 21) : (std::size_t{1} << 23);
    std::vector<double> a(len, 1.0), b(len, 2.0), c(len, 0.5);
    const double s = 3.0;
    const Timing t = time_per_op(
        [&] {
          double* pa = a.data();
          const double* pb = b.data();
          const double* pc = c.data();
          for (std::size_t i = 0; i < len; ++i) pa[i] = pb[i] + s * pc[i];
          sink += static_cast<std::size_t>(a[len / 2] < 1e9);
        },
        min_s);
    const double bytes = 24.0 * static_cast<double>(len);  // 2 loads, 1 store
    g_triad_gbs = bytes / t.min / 1e9;
    std::printf("stream_triad         len=%zu doubles peak=%.2f GB/s "
                "(median %.2f GB/s)\n",
                len, g_triad_gbs, bytes / t.median / 1e9);
    results.push_back({"stream_triad",
                       {{"doubles_per_array", static_cast<double>(len)},
                        {"bytes_per_pass", bytes},
                        {"seconds_per_op", t.median},
                        {"min_seconds_per_op", t.min},
                        {"triad_gbs", bytes / t.median / 1e9},
                        {"peak_triad_gbs", g_triad_gbs}}});
    return 0;
  }});

  // -- matrix-free statevector apply -----------------------------------------
  sections.push_back({"scb_apply", [&] {
    std::mt19937 rng(kSeed);
    const std::size_t n = quick ? 12 : 16;
    const std::size_t dim = std::size_t{1} << n;
    std::vector<ScbTerm> terms;
    for (int j = 0; j < 16; ++j)
      terms.push_back(make_expanding_term(n, 4, rng));
    const std::vector<cplx> x = random_state(dim, rng);
    std::vector<cplx> y(dim);

    const Timing kernel_t = time_per_op(
        [&] {
          std::fill(y.begin(), y.end(), cplx(0.0));
          apply_terms(terms, x, y);
          sink += static_cast<std::size_t>(std::abs(y[0].real()) < 2);
        },
        min_s);
    const Timing legacy_t = time_per_op(
        [&] {
          std::fill(y.begin(), y.end(), cplx(0.0));
          legacy_apply_terms(terms, x, y);
          sink += static_cast<std::size_t>(std::abs(y[0].real()) < 2);
        },
        min_s);
    const double amps =
        static_cast<double>(dim) * static_cast<double>(terms.size());
    // Traffic model: each term's kernel walks its selected states only
    // (dim >> popcount(select)), reading x (16 B) and read-modify-writing
    // y (32 B) per covered amplitude. The zero-fill of y before each apply
    // is part of the timed op, so count its dim stores once.
    double traffic = 16.0 * static_cast<double>(dim);  // the std::fill
    for (const ScbTerm& t : terms) {
      const TermKernel k(t);
      traffic += 48.0 * static_cast<double>(
                            dim >> std::popcount(k.select_mask));
    }
    const double gbs = traffic / kernel_t.min / 1e9;
    std::printf("scb_apply            n=%zu terms=%zu kernel=%.3fms"
                " legacy=%.3fms speedup=%.2fx %.2f GB/s\n",
                n, terms.size(), kernel_t.median * 1e3, legacy_t.median * 1e3,
                legacy_t.median / kernel_t.median, gbs);
    results.push_back({"scb_apply",
                       {{"num_qubits", static_cast<double>(n)},
                        {"terms", static_cast<double>(terms.size())},
                        {"seconds_per_op", kernel_t.median},
                        {"min_seconds_per_op", kernel_t.min},
                        {"term_amplitudes_per_sec", amps / kernel_t.median},
                        {"traffic_bytes_per_op", traffic},
                        {"achieved_gbs", gbs},
                        {"stream_fraction", stream_frac(gbs)},
                        {"ref_seconds_per_op", legacy_t.median},
                        {"ref_min_seconds_per_op", legacy_t.min},
                        {"speedup_vs_ref", legacy_t.median / kernel_t.median}}});
    return 0;
  }});

  sections.push_back({"pauli_sum_apply", [&] {
    std::mt19937 rng(kSeed + 1);  // distinct stream from scb_apply
    const std::size_t n = quick ? 12 : 16;
    const std::size_t dim = std::size_t{1} << n;
    const std::vector<cplx> x = random_state(dim, rng);
    std::vector<cplx> y(dim);
    PauliSum ps(n);
    std::uniform_real_distribution<double> cd(-1.0, 1.0);
    while (ps.size() < 64) ps.add(random_string(n, rng), cplx(cd(rng)));
    const Timing psum_t = time_per_op(
        [&] {
          std::fill(y.begin(), y.end(), cplx(0.0));
          ps.apply(x, y);
          sink += static_cast<std::size_t>(std::abs(y[0].real()) < 2);
        },
        min_s);
    const double pamps = static_cast<double>(dim) * 64.0;
    std::printf("pauli_sum_apply      n=%zu terms=64 t=%.3fms (%.1f Mamp/s)\n",
                n, psum_t.median * 1e3, pamps / psum_t.median / 1e6);
    results.push_back({"pauli_sum_apply",
                       {{"num_qubits", static_cast<double>(n)},
                        {"terms", 64.0},
                        {"seconds_per_op", psum_t.median},
                        {"min_seconds_per_op", psum_t.min},
                        {"term_amplitudes_per_sec", pamps / psum_t.median}}});
    return 0;
  }});

  // -- dense kernels ---------------------------------------------------------
  sections.push_back({"dense_matmul", [&] {
    std::mt19937 rng(kSeed);
    const std::size_t n = quick ? 128 : 384;
    const Matrix a = Matrix::random_hermitian(n, rng);
    const Matrix b = Matrix::random_hermitian(n, rng);
    Matrix out(n, n);
    const Timing mm_t = time_per_op(
        [&] {
          Matrix::mul_into(out, a, b);
          sink += static_cast<std::size_t>(std::abs(out(0, 0).real()) < 1e9);
        },
        min_s);
    const double nd = static_cast<double>(n);
    std::printf("dense_matmul         n=%zu t=%.3fms (%.2f complex GFLOP/s)\n",
                n, mm_t.median * 1e3, 8.0 * nd * nd * nd / mm_t.median / 1e9);
    results.push_back({"dense_matmul",
                       {{"size", nd},
                        {"seconds_per_op", mm_t.median},
                        {"min_seconds_per_op", mm_t.min},
                        {"cmul_per_sec", nd * nd * nd / mm_t.median}}});
    return 0;
  }});

  sections.push_back({"dense_expm", [&] {
    std::mt19937 rng(kSeed);
    const std::size_t ne = quick ? 48 : 96;
    const Matrix h = Matrix::random_hermitian(ne, rng);
    const Matrix ih = h * cplx(0.0, 1.0);
    const Timing expm_t = time_per_op(
        [&] {
          const Matrix e = expm(ih);
          sink += static_cast<std::size_t>(std::abs(e(0, 0).real()) < 2);
        },
        min_s);
    std::printf("dense_expm           n=%zu t=%.3fms\n", ne,
                expm_t.median * 1e3);
    results.push_back({"dense_expm",
                       {{"size", static_cast<double>(ne)},
                        {"seconds_per_op", expm_t.median},
                        {"min_seconds_per_op", expm_t.min}}});
    return 0;
  }});

  // -- fermionic Jordan-Wigner workloads (paper Sec. II-B1 vs III) -----------
  // Each entry builds the same second-quantized Hamiltonian both ways: the
  // direct SCB composition (one term per fermionic word, via jw_sum) and the
  // expanded Pauli representation (2^k strings per term, via to_pauli), and
  // reports term counts plus build time per representation.
  const auto bench_fermion = [&](const std::string& name, const FermionSum& h,
                                 std::size_t modes) {
    const Timing scb_t = time_per_op(
        [&] { sink += jw_sum(h, modes).size(); }, min_s);
    const ScbSum scb = jw_sum(h, modes);
    // The "usual strategy" maps the fermionic sum all the way to Pauli
    // strings, so its build time includes the JW step too.
    const Timing pauli_t = time_per_op(
        [&] { sink += jw_sum(h, modes).to_pauli().size(); }, min_s);
    const PauliSum pauli = scb.to_pauli();
    std::printf("%-20s n=%zu scb_terms=%zu pauli_strings=%zu scb=%.3fms"
                " pauli=%.3fms build_ratio=%.2fx\n",
                name.c_str(), modes, scb.size(), pauli.size(),
                scb_t.median * 1e3, pauli_t.median * 1e3,
                pauli_t.median / scb_t.median);
    results.push_back(
        {name,
         {{"num_qubits", static_cast<double>(modes)},
          {"fermion_terms", static_cast<double>(h.size())},
          {"scb_terms", static_cast<double>(scb.size())},
          {"pauli_strings", static_cast<double>(pauli.size())},
          {"scb_build_seconds", scb_t.median},
          {"scb_build_min_seconds", scb_t.min},
          {"pauli_build_seconds", pauli_t.median},
          {"pauli_build_min_seconds", pauli_t.min},
          {"pauli_vs_scb_build_ratio", pauli_t.median / scb_t.median}}});
  };

  sections.push_back({"fermion_hubbard_1d", [&] {
    HubbardParams h1;  // 1D spinless chain, >= 16 sites
    h1.lx = quick ? 16 : 32;
    h1.t = 1.0;
    h1.u = 2.0;
    h1.mu = 0.5;
    h1.periodic_x = true;
    bench_fermion("fermion_hubbard_1d", hubbard_hamiltonian(h1),
                  hubbard_num_modes(h1));
    return 0;
  }});

  sections.push_back({"fermion_hubbard_2d_spinful", [&] {
    HubbardParams h2;  // 2D spinful lattice
    h2.lx = 4;
    h2.ly = quick ? 2 : 4;
    h2.t = 1.0;
    h2.u = 4.0;
    h2.mu = 0.5;
    h2.periodic_x = true;
    h2.periodic_y = !quick;
    h2.spinful = true;
    bench_fermion("fermion_hubbard_2d_spinful", hubbard_hamiltonian(h2),
                  hubbard_num_modes(h2));
    return 0;
  }});

  sections.push_back({"fermion_molecular", [&] {
    std::size_t mol_modes = 0;
    const FermionSum mol = molecular_workload(quick, mol_modes);
    bench_fermion("fermion_molecular", mol, mol_modes);
    return 0;
  }});

  sections.push_back({"fermion_density_string", [&] {
    // A product of k number operators: ONE SCB term versus 2^k Pauli
    // strings — the Section II-B1 blow-up measured head-to-head.
    const std::size_t k = quick ? 10 : 16;
    const std::size_t dn = k + 4;
    FermionSum density;
    std::vector<LadderOp> word;
    for (std::uint32_t m = 0; m < k; ++m) {
      word.push_back({m, true});
      word.push_back({m, false});
    }
    density.add(FermionProduct(1.0, word));
    bench_fermion("fermion_density_string", density, dn);
    return 0;
  }});

  sections.push_back({"fermion_apply_xcheck", [&] {
    // Matrix-free cross-validation at n = mol_modes: both representations of
    // the molecular Hamiltonian applied to the same random state.
    std::mt19937 rng(kSeed);
    std::size_t mol_modes = 0;
    const FermionSum mol = molecular_workload(quick, mol_modes);
    const ScbSum scb = jw_sum(mol, mol_modes);
    const PauliSum pauli = scb.to_pauli();
    const std::size_t dim = std::size_t{1} << mol_modes;
    const std::vector<cplx> x = random_state(dim, rng);
    std::vector<cplx> ys(dim, cplx(0.0)), yp(dim, cplx(0.0));
    scb.apply(x, ys);
    pauli.apply(x, yp);
    const double diff = vec_max_abs_diff(ys, yp);
    if (diff > 1e-10) {
      std::fprintf(stderr,
                   "error: fermion_molecular SCB vs Pauli apply mismatch "
                   "(max diff %g)\n",
                   diff);
      return 1;
    }
    std::printf("fermion_apply_xcheck n=%zu scb_vs_pauli_max_diff=%.2e\n",
                mol_modes, diff);
    results.push_back({"fermion_apply_xcheck",
                       {{"num_qubits", static_cast<double>(mol_modes)},
                        {"scb_vs_pauli_max_diff", diff}}});
    return 0;
  }});

  // -- threaded statevector apply and Trotter quench throughput --------------
  // parallel_apply: the matrix-free ScbSum apply of a Hubbard Hamiltonian at
  // 1 worker vs the configured count (--threads, default 4); the quench
  // entry then runs the full Strang evolution engine on the same lattice
  // from the CDW product state, where each exact term exponential sweeps its
  // selected amplitudes in parallel with zero per-step allocation.
  //
  // An explicit --threads K wins (even K = 1: the parallel leg then just
  // re-measures the serial path); otherwise measure 1 vs 4 workers.
  const int k_threads = threads_flag > 0 ? threads_flag : 4;

  sections.push_back({"parallel_apply", [&] {
    std::mt19937 rng(kSeed);
    const HubbardParams hq = quench_lattice(quick);
    const std::size_t n = hubbard_num_modes(hq);  // 16 quick, 20 full
    const std::size_t dim = std::size_t{1} << n;
    const ScbSum h = hubbard_scb(hq);
    const std::vector<cplx> x = random_state(dim, rng);
    std::vector<cplx> y(dim);

    const auto apply_once = [&] {
      h.apply(x, y);
      sink += static_cast<std::size_t>(std::abs(y[0].real()) < 2);
    };
    set_num_threads(1);
    const Timing serial_t = time_per_op(apply_once, min_s);
    set_num_threads(k_threads);
    const Timing par_t = time_per_op(apply_once, min_s);
    const double amps =
        static_cast<double>(dim) * static_cast<double>(h.size());
    std::printf("parallel_apply       n=%zu terms=%zu 1thr=%.3fms %dthr=%.3fms"
                " speedup=%.2fx\n",
                n, h.size(), serial_t.median * 1e3, k_threads,
                par_t.median * 1e3, serial_t.median / par_t.median);
    results.push_back({"parallel_apply",
                       {{"num_qubits", static_cast<double>(n)},
                        {"scb_terms", static_cast<double>(h.size())},
                        {"threads", static_cast<double>(k_threads)},
                        // How the configured worker count relates to the
                        // machine: speedups plateau at hardware_concurrency.
                        {"hardware_concurrency",
                         static_cast<double>(
                             std::thread::hardware_concurrency())},
                        {"serial_seconds_per_op", serial_t.median},
                        {"serial_min_seconds_per_op", serial_t.min},
                        {"seconds_per_op", par_t.median},
                        {"min_seconds_per_op", par_t.min},
                        {"term_amplitudes_per_sec", amps / par_t.median},
                        {"parallel_speedup", serial_t.median / par_t.median}}});
    return 0;
  }});

  sections.push_back({"hubbard_quench", [&] {
    // Hubbard quench: Strang steps from the half-filling CDW state. The
    // fused evolver (the default: one phase-table sweep over all commuting
    // diagonal terms, then one sweep per off-diagonal term) is timed
    // against the unfused one-sweep-per-term evolver IN THE SAME RUN, and
    // the two trajectories are gated against each other first — fusion only
    // folds the commuting diagonal terms into one table, so they must agree
    // to 1e-12 over a real quench before any speedup is reported. Both run
    // the same off-diagonal sweeps, so fused_speedup measures the phase
    // table alone.
    set_num_threads(k_threads);
    const HubbardParams hq = quench_lattice(quick);
    const std::size_t n = hubbard_num_modes(hq);
    const std::size_t dim = std::size_t{1} << n;
    const ScbSum h = hubbard_scb(hq);
    const TrotterEvolver ev(h);  // fused schedule (the production default)
    const TrotterEvolver plain(h, 1e-12, 2, false);  // one sweep per term
    const double dt = 0.02;

    StateVector ga = StateVector::product(n, hubbard_cdw_occupation(hq));
    StateVector gb = ga;
    for (int s = 0; s < 5; ++s) {
      ev.step(ga, dt, 2);
      plain.step(gb, dt, 2);
    }
    const double fdiff = ga.max_abs_diff(gb);
    if (fdiff > 1e-12) {
      std::fprintf(stderr,
                   "error: hubbard_quench fused-vs-unfused trajectory "
                   "mismatch (max diff %g over 5 steps, gate 1e-12)\n",
                   fdiff);
      return 1;
    }

    StateVector psi = StateVector::product(n, hubbard_cdw_occupation(hq));
    const double e0 = psi.expectation(h).real();
    const Timing step_t = time_per_op(
        [&] {
          ev.step(psi, dt, 2);
          sink += static_cast<std::size_t>(psi[0].real() < 2);
        },
        min_s);
    const double drift = std::abs(psi.expectation(h).real() - e0);
    StateVector psi2 = StateVector::product(n, hubbard_cdw_occupation(hq));
    const Timing plain_t = time_per_op(
        [&] {
          plain.step(psi2, dt, 2);
          sink += static_cast<std::size_t>(psi2[0].real() < 2);
        },
        min_s);
    const double fused_speedup = plain_t.min / step_t.min;
    const double step_amps =
        2.0 * static_cast<double>(ev.num_terms()) * static_cast<double>(dim);
    const double traffic = ev.step_traffic_bytes(2);
    const double gbs = traffic / step_t.min / 1e9;
    std::printf("hubbard_quench       n=%zu exp_terms=%zu groups=%zu "
                "step=%.3fms unfused=%.3fms fused_speedup=%.2fx "
                "(%.2f steps/s, %.2f GB/s) fused_diff=%.1e drift=%.2e\n",
                n, ev.num_terms(), ev.num_groups(), step_t.median * 1e3,
                plain_t.median * 1e3, fused_speedup, 1.0 / step_t.median,
                gbs, fdiff, drift);
    results.push_back({"hubbard_quench",
                       {{"num_qubits", static_cast<double>(n)},
                        {"exp_terms", static_cast<double>(ev.num_terms())},
                        {"fused_groups", static_cast<double>(ev.num_groups())},
                        {"threads", static_cast<double>(k_threads)},
                        {"seconds_per_step", step_t.median},
                        {"min_seconds_per_step", step_t.min},
                        {"steps_per_sec", 1.0 / step_t.median},
                        {"term_amplitudes_per_sec", step_amps / step_t.median},
                        {"unfused_seconds_per_step", plain_t.median},
                        {"unfused_min_seconds_per_step", plain_t.min},
                        {"fused_speedup", fused_speedup},
                        {"fused_vs_unfused_max_diff", fdiff},
                        {"step_traffic_bytes", traffic},
                        {"achieved_gbs", gbs},
                        {"stream_fraction", stream_frac(gbs)},
                        {"energy_drift", drift}}});
    return 0;
  }});

  // -- Krylov solver layer: ground state and Krylov quench step --------------
  // Same scope as hubbard_quench above, deliberately: lanczos_ground_state
  // and krylov_quench run on the SAME lattice and Hamiltonian, so the
  // evolution strategies and the ground-state entry share one baseline.
  sections.push_back({"lanczos_ground_state", [&] {
    set_num_threads(k_threads);  // pin: identical under --only and full runs
    // lanczos_ground_state answers the question the dense eigh never could —
    // the ground-state energy and gap of the n = 20 Hubbard lattice — as a
    // single timed convergence run (tens of seconds at n = 20) reported as
    // time-to-residual with iteration/matvec counts.
    const HubbardParams hq = quench_lattice(quick);
    const std::size_t n = hubbard_num_modes(hq);
    const ScbSum h = hubbard_scb(hq);
    LanczosOptions lo;
    lo.k = 2;  // ground state + gap
    lo.tol = 1e-8;
    if (progress_flag) {
      lo.progress = telemetry::stderr_progress("lanczos_ground_state");
      lo.progress_interval = 10;
    }
    Lanczos solver(h, lo);
    const auto t0 = std::chrono::steady_clock::now();
    const LanczosResult& lr = solver.solve();
    const double lanczos_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const double gap = lr.eigenvalues[1] - lr.eigenvalues[0];
    std::printf("lanczos_ground_state n=%zu E0=%.10f gap=%.6f matvecs=%zu"
                " restarts=%zu t=%.2fs conv=%d\n",
                n, lr.eigenvalues[0], gap, lr.matvecs, lr.restarts, lanczos_s,
                lr.converged ? 1 : 0);
    results.push_back(
        {"lanczos_ground_state",
         {{"num_qubits", static_cast<double>(n)},
          {"scb_terms", static_cast<double>(h.size())},
          {"k", static_cast<double>(lo.k)},
          {"residual_tol", lo.tol},
          {"iterations", static_cast<double>(lr.iterations)},
          {"matvecs", static_cast<double>(lr.matvecs)},
          {"restarts", static_cast<double>(lr.restarts)},
          {"seconds_to_converge", lanczos_s},
          {"ground_energy", lr.eigenvalues[0]},
          {"gap", gap},
          {"converged", lr.converged ? 1.0 : 0.0}}});
    return 0;
  }});

  sections.push_back({"lanczos_resume", [&] {
    set_num_threads(k_threads);  // pin: identical under --only and full runs
    // The checkpoint/restore gate on the same solve as lanczos_ground_state:
    // interrupt a checkpointing run mid-flight at a matvec budget, resume
    // from the file, and require the recovered ground state to match the
    // uninterrupted reference to 1e-10 (the resumed trajectory is
    // bit-identical for a fixed thread count, so this asserts the recorded
    // n = 20 energy at full size and a self-computed reference at --quick).
    const HubbardParams hq = quench_lattice(quick);
    const std::size_t n = hubbard_num_modes(hq);
    const ScbSum h = hubbard_scb(hq);
    LanczosOptions lo;
    lo.k = 2;
    lo.tol = 1e-8;
    const std::string ckpt = "bench_lanczos_resume.ckpt";
    remove_checkpoint(ckpt);
    double full_e0 = kFullE0N20;
    if (quick) full_e0 = Lanczos(h, lo).solve().eigenvalues[0];

    LanczosOptions li = lo;
    li.checkpoint_path = ckpt;
    li.checkpoint_interval = quick ? 10 : 25;
    li.max_matvecs = quick ? 25 : 60;  // the interrupt: budget, then "crash"
    Lanczos interrupted(h, li);
    const std::size_t matvecs_at_interrupt = interrupted.solve().matvecs;

    LanczosOptions lr2 = lo;
    lr2.checkpoint_path = ckpt;
    lr2.checkpoint_interval = li.checkpoint_interval;
    Lanczos resumed(h, lr2);
    const auto t0 = std::chrono::steady_clock::now();
    const LanczosResult& rr = resumed.resume(ckpt);
    const double resume_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    remove_checkpoint(ckpt);
    const double diff = std::abs(rr.eigenvalues[0] - full_e0);
    const bool pass = rr.converged && diff <= 1e-10;
    std::printf("lanczos_resume n=%zu E0=%.10f |diff|=%.2e saved=%zu"
                " matvecs=%zu t=%.2fs %s\n",
                n, rr.eigenvalues[0], diff, rr.resumed_matvecs, rr.matvecs,
                resume_s, pass ? "OK" : "MISMATCH");
    results.push_back(
        {"lanczos_resume",
         {{"num_qubits", static_cast<double>(n)},
          {"checkpoint_interval", static_cast<double>(li.checkpoint_interval)},
          {"matvecs_at_interrupt", static_cast<double>(matvecs_at_interrupt)},
          {"matvecs_saved_by_resume", static_cast<double>(rr.resumed_matvecs)},
          {"matvecs", static_cast<double>(rr.matvecs)},
          {"checkpoints_written", static_cast<double>(rr.checkpoints_written)},
          {"resumed_e0", rr.eigenvalues[0]},
          {"resumed_e0_abs_diff", diff},
          {"max_norm_drift", rr.max_norm_drift},
          {"max_ortho_loss", rr.max_ortho_loss},
          {"seconds_to_converge", resume_s},
          {"converged", rr.converged ? 1.0 : 0.0}}});
    return pass ? 0 : 1;
  }});

  sections.push_back({"krylov_quench", [&] {
    set_num_threads(k_threads);  // pin: identical under --only and full runs
    const HubbardParams hq = quench_lattice(quick);
    const std::size_t n = hubbard_num_modes(hq);
    const ScbSum h = hubbard_scb(hq);
    const TrotterEvolver ev(h);
    KrylovOptions ko;
    ko.tol = 1e-10;
    KrylovEvolver kev(h, ko);
    StateVector kpsi = StateVector::product(n, hubbard_cdw_occupation(hq));
    const double kdt = 0.02;  // the hubbard_quench step size
    const Timing kq_t = time_per_op([&] { kev.step(kpsi, kdt); }, min_s);
    // Per-step cost stats captured here, from the run that was timed (the
    // cross-check below runs on a different state and may settle on a
    // different subspace).
    const std::size_t kq_matvecs = kev.last_matvecs();
    const std::size_t kq_subspace = kev.last_subspace();

    // Integrator cross-check at full scale: the same short quench through
    // both Evolvers must agree within the Strang O(dt^2) budget (the Krylov
    // error is 1e-10 — the difference IS the Trotter error). A gate, like
    // fermion_apply_xcheck: disagreement here means a broken integrator.
    StateVector pk = StateVector::product(n, hubbard_cdw_occupation(hq));
    StateVector pt = pk;
    const int xsteps = 5;
    for (int s = 0; s < xsteps; ++s) kev.step(pk, kdt);
    for (int s = 0; s < xsteps; ++s) ev.step(pt, kdt, 2);
    const double xdiff = pk.max_abs_diff(pt);
    if (xdiff > 1e-3) {
      std::fprintf(stderr,
                   "error: krylov_quench Trotter-vs-Krylov mismatch "
                   "(max diff %g over %d steps)\n",
                   xdiff, xsteps);
      return 1;
    }
    std::printf("krylov_quench        n=%zu step=%.3fms (min %.3fms)"
                " matvecs/step=%zu subspace=%zu vs_trotter=%.2e\n",
                n, kq_t.median * 1e3, kq_t.min * 1e3, kq_matvecs,
                kq_subspace, xdiff);
    results.push_back(
        {"krylov_quench",
         {{"num_qubits", static_cast<double>(n)},
          {"dt", kdt},
          {"krylov_tol", ko.tol},
          {"seconds_per_step", kq_t.median},
          {"min_seconds_per_step", kq_t.min},
          {"steps_per_sec", 1.0 / kq_t.median},
          {"matvecs_per_step", static_cast<double>(kq_matvecs)},
          {"subspace", static_cast<double>(kq_subspace)},
          {"vs_trotter_max_diff", xdiff}}});
    return 0;
  }});

  // -- U(1) symmetry-sector subsystem ----------------------------------------
  // sector_xcheck: the sector decomposition must reproduce the full-space
  // Lanczos ground energy. At mu = 0.5 the global ground state of the
  // quench lattice sits one particle per spin BELOW half filling — (4,4) at
  // n = 20, sector dimension 44,100 of 1,048,576 — so that sector's Lanczos
  // E0 is gated against the full-space value to 1e-8, pinning the whole
  // rank/kernel/solver stack end to end. The half-filling CDW sector (5,5)
  // (dimension 63,504, where the quench entries live) is solved and
  // recorded alongside: its energy is strictly above the global one, which
  // is itself a physics statement the full-space solver cannot make.
  sections.push_back({"sector_xcheck", [&] {
    set_num_threads(k_threads);  // pin: identical under --only and full runs
    const HubbardParams hq = quench_lattice(quick);
    const std::size_t n = hubbard_num_modes(hq);
    const std::size_t half = hubbard_num_sites(hq) / 2;  // per-spin filling
    const ScbSum h = hubbard_scb(hq);
    const SectorBasis ground_basis = hubbard_sector(hq, half - 1, half - 1);
    const SectorOperator hs(ground_basis, h);

    // Full-space reference: the recorded PR 4 constant at n = 20; in quick
    // mode (a different lattice) a full-space solve computes it on the fly.
    double full_e0 = kFullE0N20;
    if (quick) {
      LanczosOptions flo;
      flo.tol = 1e-8;
      Lanczos fsolver(h, flo);
      full_e0 = fsolver.solve().eigenvalues[0];
    }

    LanczosOptions lo;
    lo.tol = 1e-8;
    if (progress_flag) {
      lo.progress = telemetry::stderr_progress("sector_xcheck");
      lo.progress_interval = 10;
    }
    Lanczos solver(hs, lo);
    const auto t0 = std::chrono::steady_clock::now();
    const LanczosResult& lr = solver.solve();
    const double solve_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const double diff = std::abs(lr.eigenvalues[0] - full_e0);
    if (!lr.converged || diff > 1e-8) {
      std::fprintf(stderr,
                   "error: sector_xcheck sector-vs-full E0 mismatch "
                   "(sector %.12f, full %.12f, diff %g, conv %d)\n",
                   lr.eigenvalues[0], full_e0, diff, lr.converged ? 1 : 0);
      return 1;
    }

    // Half-filling (CDW) sector, solved sector-natively.
    const SectorBasis cdw_basis =
        hubbard_sector_of(hq, hubbard_cdw_occupation(hq));
    const SectorOperator hs_cdw(cdw_basis, h);
    Lanczos cdw_solver(hs_cdw, lo);
    const LanczosResult& cr = cdw_solver.solve();
    if (!cr.converged || cr.eigenvalues[0] <= full_e0) {
      std::fprintf(stderr,
                   "error: sector_xcheck half-filling sector E0 %.12f not "
                   "above the global ground energy %.12f\n",
                   cr.eigenvalues[0], full_e0);
      return 1;
    }

    std::printf("sector_xcheck        n=%zu ground(%zu,%zu) dim=%zu "
                "E0=%.10f full=%.10f diff=%.2e matvecs=%zu t=%.2fs | "
                "half(%zu,%zu) dim=%zu E0=%.10f\n",
                n, half - 1, half - 1, ground_basis.dim(), lr.eigenvalues[0],
                full_e0, diff, lr.matvecs, solve_s, half, half,
                cdw_basis.dim(), cr.eigenvalues[0]);
    results.push_back(
        {"sector_xcheck",
         {{"num_qubits", static_cast<double>(n)},
          {"full_dim", static_cast<double>(std::size_t{1} << n)},
          {"sector_dim", static_cast<double>(ground_basis.dim())},
          {"n_up", static_cast<double>(half - 1)},
          {"n_down", static_cast<double>(half - 1)},
          {"residual_tol", lo.tol},
          {"matvecs", static_cast<double>(lr.matvecs)},
          {"seconds_to_converge", solve_s},
          {"ground_energy", lr.eigenvalues[0]},
          {"full_reference_e0", full_e0},
          {"sector_vs_full_abs_diff", diff},
          {"half_filling_sector_dim", static_cast<double>(cdw_basis.dim())},
          {"half_filling_e0", cr.eigenvalues[0]},
          {"converged", lr.converged ? 1.0 : 0.0}}});
    return 0;
  }});

  // sector_ground_state: the scale proof. A Lanczos vector at n = 32 costs
  // 2^32 * 16 B = 69 GB in the full space — the basis alone would need
  // several TB — while the (3,3) sector holds 313,600 amplitudes (4.8 MB),
  // so the solve below is simply impossible without the sector subsystem on
  // this machine's memory.
  sections.push_back({"sector_ground_state", [&] {
    set_num_threads(k_threads);  // pin: identical under --only and full runs
    HubbardParams hp;  // 2D spinful ladder: n = 28 quick / 32 full
    hp.lx = quick ? 7 : 8;
    hp.ly = 2;
    hp.t = 1.0;
    hp.u = 4.0;
    hp.mu = 0.5;
    hp.periodic_x = true;
    hp.spinful = true;
    const std::size_t n = hubbard_num_modes(hp);
    const std::size_t n_up = quick ? 2 : 3;
    const ScbSum h = hubbard_scb(hp);
    const SectorBasis basis = hubbard_sector(hp, n_up, n_up);
    const SectorOperator hs(basis, h);

    LanczosOptions lo;
    lo.k = 2;  // ground state + gap
    lo.tol = 1e-8;
    if (progress_flag) {
      lo.progress = telemetry::stderr_progress("sector_ground_state");
      lo.progress_interval = 10;
    }
    Lanczos solver(hs, lo);
    const auto t0 = std::chrono::steady_clock::now();
    const LanczosResult& lr = solver.solve();
    const double solve_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const double gap = lr.eigenvalues[1] - lr.eigenvalues[0];
    std::printf("sector_ground_state  n=%zu (N_up,N_down)=(%zu,%zu) "
                "sector_dim=%zu E0=%.10f gap=%.6f matvecs=%zu t=%.2fs "
                "conv=%d\n",
                n, n_up, n_up, basis.dim(), lr.eigenvalues[0], gap,
                lr.matvecs, solve_s, lr.converged ? 1 : 0);
    results.push_back(
        {"sector_ground_state",
         {{"num_qubits", static_cast<double>(n)},
          {"n_up", static_cast<double>(n_up)},
          {"n_down", static_cast<double>(n_up)},
          {"sector_dim", static_cast<double>(basis.dim())},
          {"scb_terms", static_cast<double>(h.size())},
          {"k", static_cast<double>(lo.k)},
          {"residual_tol", lo.tol},
          {"iterations", static_cast<double>(lr.iterations)},
          {"matvecs", static_cast<double>(lr.matvecs)},
          {"restarts", static_cast<double>(lr.restarts)},
          {"seconds_to_converge", solve_s},
          {"ground_energy", lr.eigenvalues[0]},
          {"gap", gap},
          {"converged", lr.converged ? 1.0 : 0.0}}});
    return 0;
  }});

  // sector_quench: the CDW quench of krylov_quench run sector-natively, with
  // a full-space cross-check (both evolutions are spectrally accurate, so
  // the embedded sector state must match the full KrylovEvolver to ~the
  // per-step budget).
  sections.push_back({"sector_quench", [&] {
    set_num_threads(k_threads);  // pin: identical under --only and full runs
    const HubbardParams hq = quench_lattice(quick);
    const std::size_t n = hubbard_num_modes(hq);
    const ScbSum h = hubbard_scb(hq);
    const std::uint64_t occ = hubbard_cdw_occupation(hq);
    const SectorBasis basis = hubbard_sector_of(hq, occ);
    const SectorOperator hs(basis, h);
    KrylovOptions ko;
    ko.tol = 1e-10;
    const KrylovEvolver sector_ev(hs, ko);
    const KrylovEvolver full_ev(h, ko);
    const double dt = 0.02;  // the krylov_quench step size

    SectorVector spsi = SectorVector::config_state(basis, occ);
    const Timing s_t =
        time_per_op([&] { sector_ev.step(spsi.amps(), dt); }, min_s);
    const std::size_t s_matvecs = sector_ev.last_matvecs();
    StateVector fpsi = StateVector::product(n, occ);
    const Timing f_t = time_per_op([&] { full_ev.step(fpsi, dt); }, min_s);

    // Cross-check over a fresh short quench in both spaces.
    SectorVector xs = SectorVector::config_state(basis, occ);
    StateVector xf = StateVector::product(n, occ);
    const int xsteps = 5;
    for (int s = 0; s < xsteps; ++s) {
      sector_ev.step(xs.amps(), dt);
      full_ev.step(xf, dt);
    }
    const double xdiff = xs.embed().max_abs_diff(xf);
    if (xdiff > 1e-8) {
      std::fprintf(stderr,
                   "error: sector_quench sector-vs-full mismatch "
                   "(max diff %g over %d steps)\n",
                   xdiff, xsteps);
      return 1;
    }
    // Per-matvec traffic model of the sector apply (SectorOperator::
    // apply_bytes: the row gather's offsets, entries, diagonal, x gathers
    // and y read-modify-write). Krylov orthogonalization traffic is not
    // modeled, so achieved_gbs is a lower bound on the true bandwidth.
    // Sector vectors are small enough to live in cache (~1 MB at n = 20),
    // so stream_fraction here can legitimately EXCEED 1: cache bandwidth
    // beats the DRAM triad roofline.
    const double matvec_bytes = static_cast<double>(hs.apply_bytes());
    const double step_bytes =
        matvec_bytes * static_cast<double>(s_matvecs);
    const double gbs = step_bytes / s_t.min / 1e9;
    std::printf("sector_quench        n=%zu sector_dim=%zu step=%.3fms "
                "(full %.3fms, %.2fx) matvecs/step=%zu vs_full=%.2e "
                "%.2f GB/s\n",
                n, basis.dim(), s_t.median * 1e3, f_t.median * 1e3,
                f_t.median / s_t.median, s_matvecs, xdiff, gbs);
    results.push_back(
        {"sector_quench",
         {{"num_qubits", static_cast<double>(n)},
          {"sector_dim", static_cast<double>(basis.dim())},
          {"dt", dt},
          {"krylov_tol", ko.tol},
          {"seconds_per_step", s_t.median},
          {"min_seconds_per_step", s_t.min},
          {"matvecs_per_step", static_cast<double>(s_matvecs)},
          {"step_traffic_bytes", step_bytes},
          {"achieved_gbs", gbs},
          {"stream_fraction", stream_frac(gbs)},
          {"full_seconds_per_step", f_t.median},
          {"full_min_seconds_per_step", f_t.min},
          {"sector_speedup_vs_full", f_t.median / s_t.median},
          {"sector_vs_full_max_diff", xdiff}}});
    return 0;
  }});

  // -- spectral_greens: continued-fraction A(w) gated by dense eigh ----------
  // Full-space n = 8 AND sector-restricted n = 10 (quick: n = 8 sector),
  // both within 1e-8 integrated absolute deviation of the exact Lorentzian
  // pole sum. The timed quantity is the full-space Lanczos build.
  sections.push_back({"spectral_greens", [&] {
    HubbardParams p;  // spinless ring, full space n = 8 (dim 256)
    p.lx = 8;
    p.u = 2.0;
    p.mu = 0.3;
    p.periodic_x = true;
    const ScbSum h = hubbard_scb(p);
    const EigenSystem es = eigh(h.to_matrix());

    std::mt19937_64 prng(kSeed);
    std::normal_distribution<double> g;
    std::vector<cplx> phi(256);
    for (auto& x : phi) x = cplx(g(prng), g(prng));
    SpectralFunctionOptions so;
    so.max_moments = 256;
    SpectralFunction sf(h, so);
    const std::size_t m = sf.build(phi);
    const double eta = 0.1;
    const double dev_full = cf_integrated_dev(sf, es, phi, eta);

    HubbardParams ps = p;  // sector lattice: n = 10, N = 5 (dim 252) full run
    ps.lx = quick ? 8 : 10;
    const ScbSum hsec = hubbard_scb(ps);
    const SectorBasis sb = hubbard_sector(ps, quick ? 4 : 5);
    const SectorOperator hs(sb, hsec);
    const EigenSystem ess = eigh(dense_operator(hs));
    const SectorVector sv = SectorVector::random(sb, kSeed);
    SpectralFunctionOptions sso;
    sso.max_moments = sb.dim();
    SpectralFunction sfs(hs, sso);
    sfs.build(sv.amps());
    const double dev_sector = cf_integrated_dev(sfs, ess, sv.amps(), eta);

    if (dev_full > 1e-8 || dev_sector > 1e-8) {
      std::fprintf(stderr,
                   "error: spectral_greens deviates from the dense reference "
                   "(full %.3e, sector %.3e, gate 1e-8)\n",
                   dev_full, dev_sector);
      return 1;
    }
    const Timing t = time_per_op([&] { sink += sf.build(phi); }, min_s);
    std::printf("spectral_greens      n=%zu moments=%zu build=%.3fms "
                "dev_full=%.2e dev_sector=%.2e (sector_dim=%zu)\n",
                p.lx, m, t.median * 1e3, dev_full, dev_sector, sb.dim());
    results.push_back(
        {"spectral_greens",
         {{"num_qubits", static_cast<double>(p.lx)},
          {"moments", static_cast<double>(m)},
          {"eta", eta},
          {"build_seconds_per_op", t.median},
          {"min_build_seconds_per_op", t.min},
          {"integrated_abs_dev_full", dev_full},
          {"sector_dim", static_cast<double>(sb.dim())},
          {"integrated_abs_dev_sector", dev_sector},
          {"gate_integrated_abs_dev", 1e-8}}});
    return 0;
  }});

  // -- spectral_kpm_dos: Chebyshev-moment DOS gated by dense eigh ------------
  // Exact-trace moments (the dense-reference-grade mode) must match the
  // eigenvalue-derived moments under the shared Jackson kernel to 1e-8
  // integrated deviation, full-space and sector-restricted; the stochastic
  // trace (the production mode at scale) is the timed quantity.
  sections.push_back({"spectral_kpm_dos", [&] {
    HubbardParams p;  // same full-space lattice as spectral_greens
    p.lx = 8;
    p.u = 2.0;
    p.mu = 0.3;
    p.periodic_x = true;
    const ScbSum h = hubbard_scb(p);
    const EigenSystem es = eigh(h.to_matrix());

    KpmDos kpm(h);  // M = 128, exact trace, power-iteration bounds
    const std::size_t matvecs = kpm.compute();
    const double dev_full = kpm_integrated_dev(kpm, es);

    HubbardParams ps = p;  // sector lattice mirrors spectral_greens
    ps.lx = quick ? 8 : 10;
    const ScbSum hsec = hubbard_scb(ps);
    const SectorBasis sb = hubbard_sector(ps, quick ? 4 : 5);
    const SectorOperator hs(sb, hsec);
    const EigenSystem ess = eigh(dense_operator(hs));
    KpmDos kpms(hs);
    kpms.compute();
    const double dev_sector = kpm_integrated_dev(kpms, ess);

    if (dev_full > 1e-8 || dev_sector > 1e-8) {
      std::fprintf(stderr,
                   "error: spectral_kpm_dos deviates from the dense reference "
                   "(full %.3e, sector %.3e, gate 1e-8)\n",
                   dev_full, dev_sector);
      return 1;
    }
    KpmOptions sto;
    sto.num_random = 16;
    KpmDos kpmr(h, sto);
    const Timing t = time_per_op([&] { sink += kpmr.compute(); }, min_s);
    std::printf("spectral_kpm_dos     n=%zu M=%zu exact_matvecs=%zu "
                "stochastic=%.3fms dev_full=%.2e dev_sector=%.2e\n",
                p.lx, kpm.moments().size(), matvecs, t.median * 1e3, dev_full,
                dev_sector);
    results.push_back(
        {"spectral_kpm_dos",
         {{"num_qubits", static_cast<double>(p.lx)},
          {"num_moments", static_cast<double>(kpm.moments().size())},
          {"exact_trace_matvecs", static_cast<double>(matvecs)},
          {"e_min", kpm.e_min()},
          {"e_max", kpm.e_max()},
          {"stochastic_samples", static_cast<double>(sto.num_random)},
          {"stochastic_seconds_per_op", t.median},
          {"min_stochastic_seconds_per_op", t.min},
          {"integrated_abs_dev_full", dev_full},
          {"sector_dim", static_cast<double>(sb.dim())},
          {"integrated_abs_dev_sector", dev_sector},
          {"gate_integrated_abs_dev", 1e-8}}});
    return 0;
  }});

  // -- spectral_thermal: sampled <H>_beta gated by exact thermodynamics ------
  // Across the beta sweep the estimate must sit within 3x its own reported
  // jackknife error bar of the exact eigenvalue average, and a repeated
  // call must be bit-identical (the fixed-seed reproducibility contract).
  sections.push_back({"spectral_thermal", [&] {
    HubbardParams p;  // spinless ring, n = 8 (dim 256)
    p.lx = 8;
    p.u = 2.0;
    p.mu = 0.3;
    p.periodic_x = true;
    const ScbSum h = hubbard_scb(p);
    const EigenSystem es = eigh(h.to_matrix());

    ThermalOptions to;
    to.num_samples = 16;
    ThermalSampler sampler(h, to);
    const double betas[] = {0.5, 2.0, 8.0};
    double max_sigma_dev = 0.0;
    ThermalResult mid{};
    for (double beta : betas) {
      const ThermalResult r = sampler.energy(beta);
      const double ref = thermal_energy_ref(es.eigenvalues, beta);
      const double sigmas = std::abs(r.value - ref) / r.std_error;
      max_sigma_dev = std::max(max_sigma_dev, sigmas);
      if (beta == 2.0) mid = r;
      if (sigmas > 3.0) {
        std::fprintf(stderr,
                     "error: spectral_thermal <H>_beta off by %.2f sigma at "
                     "beta=%g (est %.6f +- %.6f, exact %.6f)\n",
                     sigmas, beta, r.value, r.std_error, ref);
        return 1;
      }
    }
    const ThermalResult again = sampler.energy(2.0);
    if (again.value != mid.value || again.std_error != mid.std_error) {
      std::fprintf(stderr,
                   "error: spectral_thermal repeated call not bit-identical "
                   "(%.17g vs %.17g)\n",
                   again.value, mid.value);
      return 1;
    }
    const Timing t = time_per_op([&] { sink += sampler.energy(2.0).samples; },
                                 min_s);
    std::printf("spectral_thermal     n=%zu samples=%zu beta_max=%g "
                "call=%.3fms max_dev=%.2f sigma E(2)=%.6f+-%.6f\n",
                p.lx, to.num_samples, betas[2], t.median * 1e3, max_sigma_dev,
                mid.value, mid.std_error);
    results.push_back(
        {"spectral_thermal",
         {{"num_qubits", static_cast<double>(p.lx)},
          {"num_samples", static_cast<double>(to.num_samples)},
          {"beta_max", betas[2]},
          {"seconds_per_call", t.median},
          {"min_seconds_per_call", t.min},
          {"energy_beta2", mid.value},
          {"std_error_beta2", mid.std_error},
          {"log_z_over_dim_beta2", mid.log_z_over_dim},
          {"matvecs_per_call", static_cast<double>(mid.matvecs)},
          {"max_sigma_dev", max_sigma_dev},
          {"gate_max_sigma_dev", 3.0},
          {"reproducible", 1.0}}});
    return 0;
  }});

  // -- telemetry_overhead: the instrumentation-cost gate ---------------------
  // The telemetry design promise is that the disabled path is a relaxed
  // atomic load plus a predicted branch at every site. This entry proves it
  // on the most instrumentation-dense hot loop in the tree — the fused
  // Strang quench step at full size — by timing the SAME step with
  // telemetry off, with metrics on, and with metrics + span tracing on,
  // gating the enabled-over-off ratios. min-of-repeats on both sides, so
  // the comparison uses the least-noise samples.
  sections.push_back({"telemetry_overhead", [&] {
    set_num_threads(k_threads);  // pin: identical under --only and full runs
    const HubbardParams hq = quench_lattice(quick);
    const std::size_t n = hubbard_num_modes(hq);
    const ScbSum h = hubbard_scb(hq);
    const TrotterEvolver ev(h);
    const double dt = 0.02;
    StateVector psi = StateVector::product(n, hubbard_cdw_occupation(hq));
    const auto step_once = [&] {
      ev.step(psi, dt, 2);
      sink += static_cast<std::size_t>(psi[0].real() < 2);
    };

    const bool metrics_was = telemetry::metrics_enabled();
    const bool tracing_was = telemetry::tracing_enabled();
    telemetry::set_tracing_enabled(false);
    telemetry::set_metrics_enabled(false);
    const Timing off_t = time_per_op(step_once, min_s);
    telemetry::set_metrics_enabled(true);
    const Timing met_t = time_per_op(step_once, min_s);
    telemetry::set_tracing_enabled(true);
    const Timing trc_t = time_per_op(step_once, min_s);
    telemetry::set_metrics_enabled(metrics_was);
    telemetry::set_tracing_enabled(tracing_was);

    const double metrics_over = std::max(0.0, met_t.min / off_t.min - 1.0);
    const double traced_over = std::max(0.0, trc_t.min / off_t.min - 1.0);
    // Quick runs use 0.05 s windows (CI smoke boxes): the ratios there are
    // noise-dominated, so the gates relax by an order of magnitude. The
    // full-size gates are the recorded contract.
    const double metrics_gate = quick ? 0.10 : 0.01;
    const double traced_gate = quick ? 0.25 : 0.05;
    if (metrics_over > metrics_gate || traced_over > traced_gate) {
      std::fprintf(stderr,
                   "error: telemetry_overhead gate failed (metrics %+.2f%% "
                   "gate %.0f%%, traced %+.2f%% gate %.0f%%; off %.3fms)\n",
                   metrics_over * 100, metrics_gate * 100, traced_over * 100,
                   traced_gate * 100, off_t.min * 1e3);
      return 1;
    }
    std::printf("telemetry_overhead   n=%zu off=%.3fms metrics=%.3fms "
                "traced=%.3fms over=%.2f%%/%.2f%% (gates %.0f%%/%.0f%%)\n",
                n, off_t.min * 1e3, met_t.min * 1e3, trc_t.min * 1e3,
                metrics_over * 100, traced_over * 100, metrics_gate * 100,
                traced_gate * 100);
    results.push_back(
        {"telemetry_overhead",
         {{"num_qubits", static_cast<double>(n)},
          {"threads", static_cast<double>(k_threads)},
          {"off_seconds_per_step", off_t.median},
          {"off_min_seconds_per_step", off_t.min},
          {"metrics_seconds_per_step", met_t.median},
          {"metrics_min_seconds_per_step", met_t.min},
          {"traced_seconds_per_step", trc_t.median},
          {"traced_min_seconds_per_step", trc_t.min},
          {"metrics_overhead_frac", metrics_over},
          {"traced_overhead_frac", traced_over},
          {"gate_metrics_overhead_frac", metrics_gate},
          {"gate_traced_overhead_frac", traced_gate}}});
    return 0;
  }});

  // -- serve_batch: the serving-layer gates ----------------------------------
  // Two promises of src/serve/, measured and gated in one entry. (1)
  // Observable batching: K = 16 coalesced expectation requests cost one
  // Krylov evolution plus 16 cheap diagonal sweeps, not 16 evolutions —
  // batched must beat sequential by >= 5x AND return bitwise-identical
  // values (the trajectory is the same object, so equality is exact). (2)
  // The artifact cache: re-submitting an identical ground-state job to a
  // live Scheduler must serve the compiled sector operator from cache
  // (artifact_hits > 0, zero kernel compiles, zero sector-table builds in
  // the warm telemetry delta) and reproduce the cold solve bit-for-bit.
  sections.push_back({"serve_batch", [&] {
    set_num_threads(k_threads);  // pin: identical under --only and full runs
    const HubbardParams hq = quench_lattice(quick);
    const std::size_t n = hubbard_num_modes(hq);
    const std::uint64_t occ = hubbard_cdw_occupation(hq);
    const SectorBasis basis = hubbard_sector_of(hq, occ);
    const SectorOperator hs(basis, hubbard_scb(hq));
    const SectorVector psi0 = SectorVector::config_state(basis, occ);
    const double dt = 0.02;  // the krylov_quench step size
    const std::size_t steps = quick ? 4 : 6;
    const double tol = 1e-10;

    // The serve menu under test: density + doublon on the first 8 sites.
    std::vector<serve::ObservableSpec> menu;
    for (std::uint32_t site = 0; site < 8; ++site) {
      menu.push_back({serve::ObservableKind::kDensity, site, 0});
      menu.push_back({serve::ObservableKind::kDoublon, site, 0});
    }
    std::vector<std::shared_ptr<const SectorOperator>> obs;
    obs.reserve(menu.size());
    for (const serve::ObservableSpec& o : menu)
      obs.push_back(std::make_shared<const SectorOperator>(
          basis, serve::build_observable(hq, o)));
    const std::size_t k_obs = obs.size();

    // Single-shot wall times (the idiom of the lanczos_* entries): the
    // workloads are deterministic multi-second evolutions, and the gate
    // margin (~Kx expected vs 5x required) dwarfs scheduler noise.
    const auto wall = [](const std::function<void()>& fn) {
      const auto t0 = std::chrono::steady_clock::now();
      fn();
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
          .count();
    };

    serve::BatchResult batched;
    const double batched_s = wall([&] {
      batched = serve::run_observable_batch(hs, psi0, dt, steps, obs, tol);
    });
    std::vector<serve::BatchResult> singles(k_obs);
    const double sequential_s = wall([&] {
      for (std::size_t i = 0; i < k_obs; ++i)
        singles[i] = serve::run_observable_batch(
            hs, psi0, dt, steps, std::span(&obs[i], 1), tol);
    });
    sink += batched.values.size();

    // Gate 1a: bitwise identity of every batched column against its
    // sequential run (values, plus the shared times/loschmidt trajectory).
    bool identical = batched.values.size() == steps * k_obs;
    for (std::size_t i = 0; identical && i < k_obs; ++i) {
      const serve::BatchResult& s = singles[i];
      identical = s.values.size() == steps &&
                  s.times.size() == batched.times.size() &&
                  s.loschmidt.size() == batched.loschmidt.size() &&
                  std::memcmp(s.times.data(), batched.times.data(),
                              steps * sizeof(double)) == 0 &&
                  std::memcmp(s.loschmidt.data(), batched.loschmidt.data(),
                              steps * sizeof(double)) == 0;
      for (std::size_t st = 0; identical && st < steps; ++st)
        identical = std::memcmp(&s.values[st],
                                &batched.values[st * k_obs + i],
                                sizeof(double)) == 0;
    }
    if (!identical) {
      std::fprintf(stderr,
                   "error: serve_batch batched values are not bitwise "
                   "identical to the sequential runs\n");
      return 1;
    }
    // Gate 1b: the batching win itself.
    const double batch_speedup = sequential_s / batched_s;
    const double speedup_gate = 5.0;
    if (batch_speedup < speedup_gate) {
      std::fprintf(stderr,
                   "error: serve_batch speedup gate failed (%zu obs batched "
                   "%.3fs vs sequential %.3fs = %.2fx, gate %.1fx)\n",
                   k_obs, batched_s, sequential_s, batch_speedup,
                   speedup_gate);
      return 1;
    }

    // (2) Warm-cache re-submit on a live scheduler. Same spec twice on the
    // SAME Scheduler: the second run must find the compiled sector operator
    // in the artifact cache and reproduce the cold trajectory exactly.
    serve::JobSpec js;
    js.kind = serve::JobKind::kGroundState;
    js.lattice = hq;
    js.use_sector = true;
    js.n_up = static_cast<std::uint32_t>(n / 4);  // half filling per species
    js.n_down = static_cast<std::uint32_t>(n / 4);
    js.tol = tol;

    serve::Scheduler sched;  // in-process, no state dir
    const bool metrics_was = telemetry::metrics_enabled();
    telemetry::set_metrics_enabled(true);
    serve::JobResult cold, warm;
    const auto snap0 = telemetry::metrics_snapshot();
    const double cold_s = wall([&] {
      const std::uint64_t id = sched.submit(js);
      if (!sched.wait(id, 600.0)) return;
      cold = sched.fetch(id);
    });
    const auto snap1 = telemetry::metrics_snapshot();
    const double warm_s = wall([&] {
      const std::uint64_t id = sched.submit(js);
      if (!sched.wait(id, 600.0)) return;
      warm = sched.fetch(id);
    });
    const auto snap2 = telemetry::metrics_snapshot();
    telemetry::set_metrics_enabled(metrics_was);
    sched.stop(false);

    using telemetry::Counter;
    const auto cold_d = telemetry::metrics_delta(snap0, snap1);
    const auto warm_d = telemetry::metrics_delta(snap1, snap2);
    const std::uint64_t warm_hits = warm_d.counter(Counter::artifact_hits);
    const std::uint64_t warm_compiles =
        warm_d.counter(Counter::kernel_compiles);
    const std::uint64_t warm_tables =
        warm_d.counter(Counter::sector_table_builds);
    // Gate 2a: the warm pass is served from cache — hits recorded, nothing
    // rebuilt. (Sanity on the cold side: it must have actually built.)
    if (cold_d.counter(Counter::artifact_misses) == 0 || warm_hits == 0 ||
        warm_compiles != 0 || warm_tables != 0) {
      std::fprintf(stderr,
                   "error: serve_batch warm-cache gate failed (cold misses "
                   "%llu, warm hits %llu compiles %llu table builds %llu)\n",
                   static_cast<unsigned long long>(
                       cold_d.counter(Counter::artifact_misses)),
                   static_cast<unsigned long long>(warm_hits),
                   static_cast<unsigned long long>(warm_compiles),
                   static_cast<unsigned long long>(warm_tables));
      return 1;
    }
    // Gate 2b: warm solve bit-identical to cold — both are full fresh
    // solves of the same deterministic trajectory, so the entire history
    // must match, not just the converged values.
    const auto same = [](const std::vector<double>& a,
                         const std::vector<double>& b) {
      return a.size() == b.size() &&
             (a.empty() || std::memcmp(a.data(), b.data(),
                                       a.size() * sizeof(double)) == 0);
    };
    if (!cold.converged || !warm.converged ||
        !same(cold.eigenvalues, warm.eigenvalues) ||
        !same(cold.residuals, warm.residuals) ||
        !same(cold.residual_history, warm.residual_history) ||
        cold.matvecs != warm.matvecs || cold.iterations != warm.iterations) {
      std::fprintf(stderr,
                   "error: serve_batch warm solve is not bit-identical to "
                   "cold (E0 %.17g vs %.17g, matvecs %llu vs %llu)\n",
                   cold.eigenvalues.empty() ? 0.0 : cold.eigenvalues[0],
                   warm.eigenvalues.empty() ? 0.0 : warm.eigenvalues[0],
                   static_cast<unsigned long long>(cold.matvecs),
                   static_cast<unsigned long long>(warm.matvecs));
      return 1;
    }

    std::printf("serve_batch          n=%zu sector_dim=%zu K=%zu "
                "batched=%.3fs sequential=%.3fs %.2fx (gate %.1fx) "
                "warm hits=%llu cold=%.3fs warm=%.3fs\n",
                n, basis.dim(), k_obs, batched_s, sequential_s, batch_speedup,
                speedup_gate, static_cast<unsigned long long>(warm_hits),
                cold_s, warm_s);
    results.push_back(
        {"serve_batch",
         {{"num_qubits", static_cast<double>(n)},
          {"sector_dim", static_cast<double>(basis.dim())},
          {"observables", static_cast<double>(k_obs)},
          {"steps", static_cast<double>(steps)},
          {"dt", dt},
          {"krylov_tol", tol},
          {"batched_seconds", batched_s},
          {"sequential_seconds", sequential_s},
          {"batch_speedup", batch_speedup},
          {"gate_batch_speedup", speedup_gate},
          {"batch_matvecs", static_cast<double>(batched.matvecs)},
          {"cold_submit_seconds", cold_s},
          {"warm_submit_seconds", warm_s},
          {"warm_artifact_hits", static_cast<double>(warm_hits)},
          {"warm_kernel_compiles", static_cast<double>(warm_compiles)},
          {"warm_sector_table_builds", static_cast<double>(warm_tables)},
          {"ground_energy", cold.eigenvalues.empty() ? 0.0
                                                     : cold.eigenvalues[0]},
          {"solver_matvecs", static_cast<double>(cold.matvecs)}}});
    return 0;
  }});

  // -- filter validation + list / run ----------------------------------------
  // One match predicate for the validation loop, the --list preview and the
  // run loop, so a filter the validator accepts always selects the same
  // subset — and --list shows exactly what a run with the same --only
  // filters would execute.
  const auto matches = [](const char* name, const std::string& filter) {
    return std::string_view(name).find(filter) != std::string_view::npos;
  };
  for (const std::string& f : only) {
    bool any = false;
    for (const Section& s : sections) any = any || matches(s.name, f);
    if (!any) {
      std::fprintf(stderr, "%s: --only '%s' matches no bench entry; entries:\n",
                   argv[0], f.c_str());
      for (const Section& s : sections)
        std::fprintf(stderr, "  %s\n", s.name);
      return 2;
    }
  }
  const auto selected = [&](const char* name) {
    if (only.empty()) return true;
    for (const std::string& f : only)
      if (matches(name, f)) return true;
    return false;
  };
  if (list_only) {
    for (const Section& s : sections)
      if (selected(s.name)) std::printf("%s\n", s.name);
    return 0;
  }
  for (const Section& s : sections) {
    if (!selected(s.name)) continue;
    // Snapshot pair around the section: the delta becomes the entry's
    // nested "telemetry" JSON block. Sections can push several results
    // (bench_fermion); they all get the same section-level delta.
    const std::size_t first = results.size();
    const telemetry::MetricsSnapshot before = telemetry::metrics_snapshot();
    const int rc = s.run();
    if (rc != 0) return rc;
    const telemetry::MetricsSnapshot d =
        telemetry::metrics_delta(before, telemetry::metrics_snapshot());
    using telemetry::Counter;
    using telemetry::Hist;
    const double task = static_cast<double>(d.hist(Hist::pool_task_ns).sum);
    const double idle = static_cast<double>(d.hist(Hist::pool_idle_ns).sum);
    const std::vector<std::pair<std::string, double>> tele = {
        {"matvecs", static_cast<double>(d.counter(Counter::matvecs))},
        {"kernel_sweeps",
         static_cast<double>(d.counter(Counter::kernel_sweeps))},
        {"amplitudes_touched",
         static_cast<double>(d.counter(Counter::amplitudes_touched))},
        {"bytes_moved", static_cast<double>(d.counter(Counter::bytes_moved))},
        {"pool_dispatches",
         static_cast<double>(d.counter(Counter::pool_dispatches))},
        {"pool_utilization", task + idle > 0.0 ? task / (task + idle) : 0.0},
    };
    for (std::size_t i = first; i < results.size(); ++i)
      results[i].telemetry = tele;
  }

  if (!write_json(out_path, quick, results)) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  if (!trace_path.empty()) {
    const telemetry::TraceWriter tw;
    if (!tw.write_file(trace_path)) {
      std::fprintf(stderr, "error: cannot write trace %s\n",
                   trace_path.c_str());
      return 1;
    }
    std::printf("wrote trace %s (%zu events, %llu dropped)\n",
                trace_path.c_str(), telemetry::trace_events().size(),
                static_cast<unsigned long long>(
                    telemetry::trace_dropped_events()));
  }
  std::printf("wrote %s (sink=%zu)\n", out_path.c_str(), sink);
  return 0;
}

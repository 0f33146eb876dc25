// In-process gates and microbenchmarks of the gecos library.
//
// perfbench/ measures the four end-to-end workloads and the tier-1 suites
// pin every solver; this binary keeps what neither covers. The fermion_*
// entries record the paper's central claim head to head: SCB term count and
// build time of second-quantized Hamiltonians versus their expanded Pauli
// representation. The other microbenchmarks time the packed Pauli engine,
// the matrix-free applies, the dense kernels and the streaming-bandwidth
// roofline. The gates compare the binary against itself in one process:
// SCB vs Pauli apply, fused vs unfused Trotter, sector vs full space,
// telemetry on vs off and batched vs sequential serving.
//
// Every entry is one function in kEntries, run in table order, and reports
// one JSON object through Run::report. Each entry seeds its own RNG, so an
// `--only` run feeds it the exact inputs of a full run.
//
// Usage: bench_main [--quick] [--out PATH] [--threads K] [--repeat K]
//        [--only SUBSTR]... [--list] [--help]
#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "evolve/trotter.hpp"
#include "fermion/hubbard.hpp"
#include "fermion/jordan_wigner.hpp"
#include "linalg/blas1.hpp"
#include "linalg/expm.hpp"
#include "linalg/matrix.hpp"
#include "ops/conversion.hpp"
#include "ops/pauli.hpp"
#include "ops/scb_sum.hpp"
#include "ops/term.hpp"
#include "serve/batch.hpp"
#include "simd/simd.hpp"
#include "solver/krylov_evolve.hpp"
#include "solver/lanczos.hpp"
#include "state/state_vector.hpp"
#include "symmetry/sector_operator.hpp"
#include "symmetry/sector_vector.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "util/parallel.hpp"
#include "util/parse.hpp"

using namespace gecos;

namespace {

std::size_t sink = 0;  // defeats dead-code elimination of benchmark bodies

/// min + median seconds per call over the repeated timed runs. The median
/// is the headline number (robust against one-off stalls); the min is the
/// least-noise sample, the best trajectory anchor on shared machines where
/// ambient load inflates every other statistic.
struct Timing {
  double median = 0;
  double min = 0;
};

/// Median and min of a non-empty sample set.
Timing summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  const double median = n % 2 ? samples[n / 2]
                              : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
  return {median, samples.front()};
}

using Fields = std::vector<std::pair<std::string, double>>;

/// Nine significant digits: the JSON report and the stdout line print the
/// same text for every field.
std::string num(double v) {
  std::ostringstream os;
  os.precision(9);
  os << v;
  return os.str();
}

/// The run-wide settings every entry reads, and the report of the entry
/// currently running.
struct Run {
  bool quick = false;  // --quick: smaller workloads, 0.05 s samples
  int repeat = 5;      // timed samples per measurement (--repeat)
  int threads = 1;     // the configured worker count
  /// Min-time STREAM-triad bandwidth in GB/s, set by stream_triad (which
  /// runs before every entry that reports achieved_gbs). Stays 0 when
  /// --only filtered stream_triad out; stream_fraction fields are then 0.
  double triad_gbs = 0;
  std::string_view name;  // the running entry
  Fields fields;          // its report

  /// Seconds per call over one window: fn runs until >= 0.25 s (0.05 s
  /// under --quick) have passed.
  double window(const std::function<void()>& fn) const {
    using clock = std::chrono::steady_clock;
    const double min_s = quick ? 0.05 : 0.25;
    int iters = 0;
    const auto start = clock::now();
    double elapsed = 0;
    while (elapsed < min_s) {
      fn();
      ++iters;
      elapsed = std::chrono::duration<double>(clock::now() - start).count();
    }
    return elapsed / iters;
  }

  /// Timing over `repeat` windows, after one warmup call.
  Timing time(const std::function<void()>& fn) const {
    fn();  // warmup
    std::vector<double> samples;
    for (int r = 0; r < repeat; ++r) samples.push_back(window(fn));
    return summarize(samples);
  }

  /// achieved_gbs over the triad roofline; 0 when stream_triad did not run.
  double stream_fraction(double gbs) const {
    return triad_gbs > 0.0 ? gbs / triad_gbs : 0.0;
  }

  /// Stores the entry's fields for the JSON report and prints them as one
  /// `name key=value ...` line.
  void report(Fields f) {
    std::printf("%-20.*s", static_cast<int>(name.size()), name.data());
    for (const auto& [k, v] : f)
      std::printf(" %s=%s", k.c_str(), num(v).c_str());
    std::printf("\n");
    fields = std::move(f);
  }
};

/// Prints "error: <message>" to stderr and returns the gate-failure exit
/// code, so a failed gate reads `return gate_failed(...)`.
[[gnu::format(printf, 1, 2)]] int gate_failed(const char* fmt, ...) {
  std::fputs("error: ", stderr);
  va_list ap;
  va_start(ap, fmt);
  std::vfprintf(stderr, fmt, ap);
  va_end(ap);
  std::fputc('\n', stderr);
  return 1;
}

/// Single-shot wall time of fn in seconds.
double wall_seconds(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
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

/// The shared quench lattice of the threaded, sector, telemetry and serve
/// entries, so they all measure the SAME Hamiltonian (2D spinful, n = 16
/// quick / 20 full; the n = 20 form is perfbench's lattice too).
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

/// Fixed RNG seed: every entry seeds its own generator with this, so an
/// --only run feeds each benchmark the exact inputs of a full run.
constexpr std::uint32_t kSeed = 20260730;

/// The molecular workload shared by fermion_molecular and
/// fermion_apply_xcheck — one definition, so the cross-check gate always
/// covers the exact Hamiltonian the timing entry benchmarks.
FermionSum molecular_workload(bool quick, std::size_t& modes) {
  modes = quick ? 16 : 20;
  return random_two_body(modes, 16, quick ? 12 : 24, kSeed);
}

/// Recorded full-space Lanczos ground-state energy of the n = 20 quench
/// lattice, the value perfbench ground_full and serve_smoke's resumed
/// ground-sector solve also gate against. sector_xcheck gates the
/// ground-sector solve against it without paying for a full-space re-solve.
constexpr double kFullE0N20 = -13.8785798502;

// -- term -> Pauli expansion (the Fig. 1 "mapping" arrow) --------------------
int term_expansion(Run& r) {
  std::mt19937 rng(kSeed);
  const std::size_t n = 32;
  const std::size_t k = r.quick ? 10 : 14;  // 2^k strings
  const ScbTerm term = make_expanding_term(n, k, rng);
  const double strings = static_cast<double>(std::size_t{1} << k);
  const Timing t = r.time([&] { sink += term_to_pauli(term).size(); });
  r.report({{"num_qubits", static_cast<double>(n)},
            {"strings", strings},
            {"seconds_per_op", t.median},
            {"min_seconds_per_op", t.min},
            {"strings_per_sec", strings / t.median}});
  return 0;
}

// -- PauliSum * PauliSum -----------------------------------------------------
int pauli_sum_product(Run& r) {
  std::mt19937 rng(kSeed);
  const std::size_t n = 32;
  const std::size_t terms = r.quick ? 48 : 128;  // terms^2 string products
  std::uniform_real_distribution<double> cd(-1.0, 1.0);
  const auto random_sum = [&] {
    PauliSum sum(n);
    while (sum.size() < terms) {
      const PauliString s = random_string(n, rng);
      const cplx c(cd(rng), cd(rng));
      sum.add(s, c);
    }
    return sum;
  };
  const PauliSum a = random_sum();
  const PauliSum b = random_sum();
  const double pairs = static_cast<double>(terms) * terms;
  const Timing t = r.time([&] { sink += (a * b).size(); });
  r.report({{"num_qubits", static_cast<double>(n)},
            {"terms_each", static_cast<double>(terms)},
            {"string_products", pairs},
            {"seconds_per_op", t.median},
            {"min_seconds_per_op", t.min},
            {"products_per_sec", pairs / t.median}});
  return 0;
}

// -- roofline anchor ---------------------------------------------------------
// STREAM triad (a[i] = b[i] + s*c[i] over doubles, three 64 MiB arrays in
// both modes, far beyond the last-level cache): the DRAM bandwidth ceiling
// of this machine at the configured thread count. The sweep and its
// first-touch initialization run through parallel_for, the pool the
// kernels below run on, so achieved_gbs (modeled traffic / min time) over
// this number is the fraction of the DRAM roofline a pooled kernel
// reaches. A working set that fits the last-level cache can read above 1.
int stream_triad(Run& r) {
  const std::size_t len = std::size_t{1} << 23;
  const std::unique_ptr<double[]> a(new double[len]), b(new double[len]),
      c(new double[len]);
  parallel_for(len, [&](std::size_t lo, std::size_t hi, int) {
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 1.0;
      b[i] = 2.0;
      c[i] = 0.5;
    }
  });
  const double s = 3.0;
  const Timing t = r.time([&] {
    parallel_for(len, [&](std::size_t lo, std::size_t hi, int) {
      for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + s * c[i];
    });
    sink += static_cast<std::size_t>(a[len / 2] < 1e9);
  });
  const double bytes = 24.0 * static_cast<double>(len);  // 2 loads, 1 store
  r.triad_gbs = bytes / t.min / 1e9;
  r.report({{"doubles_per_array", static_cast<double>(len)},
            {"bytes_per_pass", bytes},
            {"seconds_per_op", t.median},
            {"min_seconds_per_op", t.min},
            {"triad_gbs", bytes / t.median / 1e9},
            {"peak_triad_gbs", r.triad_gbs}});
  return 0;
}

// -- matrix-free statevector apply -------------------------------------------
int scb_apply(Run& r) {
  std::mt19937 rng(kSeed);
  const std::size_t n = r.quick ? 12 : 16;
  const std::size_t dim = std::size_t{1} << n;
  std::vector<ScbTerm> terms;
  for (int j = 0; j < 16; ++j) terms.push_back(make_expanding_term(n, 4, rng));
  const std::vector<cplx> x = random_state(dim, rng);
  std::vector<cplx> y(dim);
  const Timing t = r.time([&] {
    std::fill(y.begin(), y.end(), cplx(0.0));
    apply_terms(terms, x, y);
    sink += static_cast<std::size_t>(std::abs(y[0].real()) < 2);
  });
  const double amps =
      static_cast<double>(dim) * static_cast<double>(terms.size());
  // Traffic model: each term's kernel walks its selected states only
  // (dim >> popcount(select)), reading x (16 B) and read-modify-writing y
  // (32 B) per covered amplitude. The zero-fill of y before each apply is
  // part of the timed op, so count its dim stores once.
  double traffic = 16.0 * static_cast<double>(dim);  // the std::fill
  for (const ScbTerm& term : terms) {
    const TermKernel k(term);
    traffic +=
        48.0 * static_cast<double>(dim >> std::popcount(k.select_mask));
  }
  const double gbs = traffic / t.min / 1e9;
  r.report({{"num_qubits", static_cast<double>(n)},
            {"terms", static_cast<double>(terms.size())},
            {"seconds_per_op", t.median},
            {"min_seconds_per_op", t.min},
            {"term_amplitudes_per_sec", amps / t.median},
            {"traffic_bytes_per_op", traffic},
            {"achieved_gbs", gbs},
            {"stream_fraction", r.stream_fraction(gbs)}});
  return 0;
}

int pauli_sum_apply(Run& r) {
  std::mt19937 rng(kSeed + 1);  // distinct stream from scb_apply
  const std::size_t n = r.quick ? 12 : 16;
  const std::size_t dim = std::size_t{1} << n;
  const std::vector<cplx> x = random_state(dim, rng);
  std::vector<cplx> y(dim);
  PauliSum ps(n);
  std::uniform_real_distribution<double> cd(-1.0, 1.0);
  while (ps.size() < 64) ps.add(random_string(n, rng), cplx(cd(rng)));
  const Timing t = r.time([&] {
    std::fill(y.begin(), y.end(), cplx(0.0));
    ps.apply(x, y);
    sink += static_cast<std::size_t>(std::abs(y[0].real()) < 2);
  });
  r.report({{"num_qubits", static_cast<double>(n)},
            {"terms", 64.0},
            {"seconds_per_op", t.median},
            {"min_seconds_per_op", t.min},
            {"term_amplitudes_per_sec", static_cast<double>(dim) * 64.0 /
                                            t.median}});
  return 0;
}

// -- dense kernels -----------------------------------------------------------
int dense_matmul(Run& r) {
  std::mt19937 rng(kSeed);
  const std::size_t n = r.quick ? 128 : 384;
  const Matrix a = Matrix::random_hermitian(n, rng);
  const Matrix b = Matrix::random_hermitian(n, rng);
  Matrix out(n, n);
  const Timing t = r.time([&] {
    Matrix::mul_into(out, a, b);
    sink += static_cast<std::size_t>(std::abs(out(0, 0).real()) < 1e9);
  });
  const double nd = static_cast<double>(n);
  r.report({{"size", nd},
            {"seconds_per_op", t.median},
            {"min_seconds_per_op", t.min},
            {"cmul_per_sec", nd * nd * nd / t.median}});
  return 0;
}

int dense_expm(Run& r) {
  std::mt19937 rng(kSeed);
  const std::size_t n = r.quick ? 48 : 96;
  const Matrix ih = Matrix::random_hermitian(n, rng) * cplx(0.0, 1.0);
  const Timing t = r.time([&] {
    const Matrix e = expm(ih);
    sink += static_cast<std::size_t>(std::abs(e(0, 0).real()) < 2);
  });
  r.report({{"size", static_cast<double>(n)},
            {"seconds_per_op", t.median},
            {"min_seconds_per_op", t.min}});
  return 0;
}

// -- fermionic Jordan-Wigner workloads (paper Sec. II-B1 vs III) -------------
// Each entry builds the same second-quantized Hamiltonian both ways: the
// direct SCB composition (one term per fermionic word, via jw_sum) and the
// expanded Pauli representation (2^k strings per term, via to_pauli), and
// reports term counts plus build time per representation.
int bench_fermion(Run& r, const FermionSum& h, std::size_t modes) {
  const Timing scb_t = r.time([&] { sink += jw_sum(h, modes).size(); });
  const ScbSum scb = jw_sum(h, modes);
  // The "usual strategy" maps the fermionic sum all the way to Pauli
  // strings, so its build time includes the JW step too.
  const Timing pauli_t =
      r.time([&] { sink += jw_sum(h, modes).to_pauli().size(); });
  r.report({{"num_qubits", static_cast<double>(modes)},
            {"fermion_terms", static_cast<double>(h.size())},
            {"scb_terms", static_cast<double>(scb.size())},
            {"pauli_strings", static_cast<double>(scb.to_pauli().size())},
            {"scb_build_seconds", scb_t.median},
            {"scb_build_min_seconds", scb_t.min},
            {"pauli_build_seconds", pauli_t.median},
            {"pauli_build_min_seconds", pauli_t.min},
            {"pauli_vs_scb_build_ratio", pauli_t.median / scb_t.median}});
  return 0;
}

int fermion_hubbard_1d(Run& r) {
  HubbardParams h1;  // 1D spinless chain, >= 16 sites
  h1.lx = r.quick ? 16 : 32;
  h1.t = 1.0;
  h1.u = 2.0;
  h1.mu = 0.5;
  h1.periodic_x = true;
  return bench_fermion(r, hubbard_hamiltonian(h1), hubbard_num_modes(h1));
}

int fermion_hubbard_2d_spinful(Run& r) {
  HubbardParams h2;  // 2D spinful lattice
  h2.lx = 4;
  h2.ly = r.quick ? 2 : 4;
  h2.t = 1.0;
  h2.u = 4.0;
  h2.mu = 0.5;
  h2.periodic_x = true;
  h2.periodic_y = !r.quick;
  h2.spinful = true;
  return bench_fermion(r, hubbard_hamiltonian(h2), hubbard_num_modes(h2));
}

int fermion_molecular(Run& r) {
  std::size_t modes = 0;
  const FermionSum mol = molecular_workload(r.quick, modes);
  return bench_fermion(r, mol, modes);
}

int fermion_density_string(Run& r) {
  // A product of k number operators: ONE SCB term versus 2^k Pauli
  // strings — the Section II-B1 blow-up measured head-to-head.
  const std::size_t k = r.quick ? 10 : 16;
  FermionSum density;
  std::vector<LadderOp> word;
  for (std::uint32_t m = 0; m < k; ++m) {
    word.push_back({m, true});
    word.push_back({m, false});
  }
  density.add(FermionProduct(1.0, word));
  return bench_fermion(r, density, k + 4);
}

int fermion_apply_xcheck(Run& r) {
  // Matrix-free cross-validation at n = modes: both representations of the
  // molecular Hamiltonian applied to the same random state.
  std::mt19937 rng(kSeed);
  std::size_t modes = 0;
  const FermionSum mol = molecular_workload(r.quick, modes);
  const ScbSum scb = jw_sum(mol, modes);
  const PauliSum pauli = scb.to_pauli();
  const std::size_t dim = std::size_t{1} << modes;
  const std::vector<cplx> x = random_state(dim, rng);
  std::vector<cplx> ys(dim, cplx(0.0)), yp(dim, cplx(0.0));
  scb.apply(x, ys);
  pauli.apply(x, yp);
  const double diff = vec_max_abs_diff(ys, yp);
  if (diff > 1e-10)
    return gate_failed(
        "fermion_molecular SCB vs Pauli apply mismatch (max diff %g)", diff);
  r.report({{"num_qubits", static_cast<double>(modes)},
            {"scb_vs_pauli_max_diff", diff}});
  return 0;
}

// -- threaded statevector apply and Trotter quench throughput ----------------
// parallel_apply: the matrix-free ScbSum apply of the quench Hamiltonian at
// 1 worker vs the configured count (--threads, else GECOS_THREADS, else
// hardware concurrency).
int parallel_apply(Run& r) {
  std::mt19937 rng(kSeed);
  const HubbardParams hq = quench_lattice(r.quick);
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
  const Timing serial_t = r.time(apply_once);
  set_num_threads(r.threads);
  const Timing par_t = r.time(apply_once);
  const double amps = static_cast<double>(dim) * static_cast<double>(h.size());
  r.report({{"num_qubits", static_cast<double>(n)},
            {"scb_terms", static_cast<double>(h.size())},
            {"threads", static_cast<double>(r.threads)},
            // How the configured worker count relates to the machine:
            // speedups plateau at hardware_concurrency.
            {"hardware_concurrency",
             static_cast<double>(std::thread::hardware_concurrency())},
            {"serial_seconds_per_op", serial_t.median},
            {"serial_min_seconds_per_op", serial_t.min},
            {"seconds_per_op", par_t.median},
            {"min_seconds_per_op", par_t.min},
            {"term_amplitudes_per_sec", amps / par_t.median},
            {"parallel_speedup", serial_t.median / par_t.median}});
  return 0;
}

int hubbard_quench(Run& r) {
  // Hubbard quench: Strang steps from the half-filling CDW state. The fused
  // evolver (the default: one phase-table sweep over all commuting diagonal
  // terms, then one sweep per off-diagonal term) is timed against the
  // unfused one-sweep-per-term evolver IN THE SAME RUN, and the two
  // trajectories are gated against each other first — fusion only folds the
  // commuting diagonal terms into one table, so they must agree to 1e-12
  // over a real quench before any speedup is reported. Both run the same
  // off-diagonal sweeps, so fused_speedup measures the phase table alone.
  const HubbardParams hq = quench_lattice(r.quick);
  const std::size_t n = hubbard_num_modes(hq);
  const std::size_t dim = std::size_t{1} << n;
  const ScbSum h = hubbard_scb(hq);
  const TrotterEvolver ev(h);  // fused schedule (the production default)
  const TrotterEvolver plain(h, false);  // one sweep per term
  const double dt = 0.02;

  StateVector ga = StateVector::product(n, hubbard_cdw_occupation(hq));
  StateVector gb = ga;
  for (int s = 0; s < 5; ++s) {
    ev.step(ga.amps(), dt, 2);
    plain.step(gb.amps(), dt, 2);
  }
  const double fdiff = ga.max_abs_diff(gb);
  if (fdiff > 1e-12)
    return gate_failed(
        "hubbard_quench fused-vs-unfused trajectory mismatch (max diff %g "
        "over 5 steps, gate 1e-12)",
        fdiff);

  StateVector psi = StateVector::product(n, hubbard_cdw_occupation(hq));
  const double e0 = psi.expectation(h).real();
  const Timing step_t = r.time([&] {
    ev.step(psi.amps(), dt, 2);
    sink += static_cast<std::size_t>(psi[0].real() < 2);
  });
  const double drift = std::abs(psi.expectation(h).real() - e0);
  StateVector psi2 = StateVector::product(n, hubbard_cdw_occupation(hq));
  const Timing plain_t = r.time([&] {
    plain.step(psi2.amps(), dt, 2);
    sink += static_cast<std::size_t>(psi2[0].real() < 2);
  });
  const double step_amps =
      2.0 * static_cast<double>(ev.num_terms()) * static_cast<double>(dim);
  const double traffic = ev.step_traffic_bytes(2);
  const double gbs = traffic / step_t.min / 1e9;
  r.report({{"num_qubits", static_cast<double>(n)},
            {"exp_terms", static_cast<double>(ev.num_terms())},
            {"fused_groups", static_cast<double>(ev.num_groups())},
            {"threads", static_cast<double>(r.threads)},
            {"seconds_per_step", step_t.median},
            {"min_seconds_per_step", step_t.min},
            {"steps_per_sec", 1.0 / step_t.median},
            {"term_amplitudes_per_sec", step_amps / step_t.median},
            {"unfused_seconds_per_step", plain_t.median},
            {"unfused_min_seconds_per_step", plain_t.min},
            {"fused_speedup", plain_t.min / step_t.min},
            {"fused_vs_unfused_max_diff", fdiff},
            {"step_traffic_bytes", traffic},
            {"achieved_gbs", gbs},
            {"stream_fraction", r.stream_fraction(gbs)},
            {"energy_drift", drift}});
  return 0;
}

// -- U(1) symmetry-sector subsystem ------------------------------------------
// sector_xcheck: the sector decomposition must reproduce the full-space
// Lanczos ground energy. At mu = 0.5 the global ground state of the quench
// lattice sits one particle per spin BELOW half filling — (4,4) at n = 20,
// sector dimension 44,100 of 1,048,576 — so that sector's Lanczos E0 is
// gated against the full-space value to 1e-8, pinning the whole
// rank/kernel/solver stack end to end. The half-filling CDW sector (5,5)
// (dimension 63,504, where the quench entries live) is solved and recorded
// alongside: its energy is strictly above the global one, which is itself a
// physics statement the full-space solver cannot make.
int sector_xcheck(Run& r) {
  const HubbardParams hq = quench_lattice(r.quick);
  const std::size_t n = hubbard_num_modes(hq);
  const std::size_t half = hubbard_num_sites(hq) / 2;  // per-spin filling
  const ScbSum h = hubbard_scb(hq);
  const SectorBasis ground_basis = hubbard_sector(hq, half - 1, half - 1);
  const SectorOperator hs(ground_basis, h);

  // Full-space reference: the recorded constant at n = 20; in quick mode (a
  // different lattice) a full-space solve computes it on the fly.
  double full_e0 = kFullE0N20;
  if (r.quick) {
    LanczosOptions flo;
    flo.tol = 1e-8;
    full_e0 = Lanczos(h, flo).solve().eigenvalues[0];
  }

  LanczosOptions lo;
  lo.tol = 1e-8;
  Lanczos solver(hs, lo);
  const LanczosResult* lr = nullptr;
  const double solve_s = wall_seconds([&] { lr = &solver.solve(); });
  const double diff = std::abs(lr->eigenvalues[0] - full_e0);
  if (!lr->converged || diff > 1e-8)
    return gate_failed(
        "sector_xcheck sector-vs-full E0 mismatch (sector %.12f, full "
        "%.12f, diff %g, conv %d)",
        lr->eigenvalues[0], full_e0, diff, lr->converged ? 1 : 0);

  // Half-filling (CDW) sector, solved sector-natively.
  const SectorBasis cdw_basis =
      hubbard_sector_of(hq, hubbard_cdw_occupation(hq));
  const SectorOperator hs_cdw(cdw_basis, h);
  Lanczos cdw_solver(hs_cdw, lo);
  const LanczosResult& cr = cdw_solver.solve();
  if (!cr.converged || cr.eigenvalues[0] <= full_e0)
    return gate_failed(
        "sector_xcheck half-filling sector E0 %.12f not above the global "
        "ground energy %.12f",
        cr.eigenvalues[0], full_e0);

  r.report({{"num_qubits", static_cast<double>(n)},
            {"full_dim", static_cast<double>(std::size_t{1} << n)},
            {"sector_dim", static_cast<double>(ground_basis.dim())},
            {"n_up", static_cast<double>(half - 1)},
            {"n_down", static_cast<double>(half - 1)},
            {"residual_tol", lo.tol},
            {"matvecs", static_cast<double>(lr->matvecs)},
            {"seconds_to_converge", solve_s},
            {"ground_energy", lr->eigenvalues[0]},
            {"full_reference_e0", full_e0},
            {"sector_vs_full_abs_diff", diff},
            {"half_filling_sector_dim", static_cast<double>(cdw_basis.dim())},
            {"half_filling_e0", cr.eigenvalues[0]},
            {"converged", lr->converged ? 1.0 : 0.0}});
  return 0;
}

// sector_ground_state: the scale proof. A Lanczos vector at n = 32 costs
// 2^32 * 16 B = 69 GB in the full space — the basis alone would need several
// TB — while the (3,3) sector holds 313,600 amplitudes (4.8 MB), so the
// solve below is simply impossible without the sector subsystem on this
// machine's memory.
int sector_ground_state(Run& r) {
  HubbardParams hp;  // 2D spinful ladder: n = 28 quick / 32 full
  hp.lx = r.quick ? 7 : 8;
  hp.ly = 2;
  hp.t = 1.0;
  hp.u = 4.0;
  hp.mu = 0.5;
  hp.periodic_x = true;
  hp.spinful = true;
  const std::size_t n = hubbard_num_modes(hp);
  const std::size_t n_up = r.quick ? 2 : 3;
  const ScbSum h = hubbard_scb(hp);
  const SectorBasis basis = hubbard_sector(hp, n_up, n_up);
  const SectorOperator hs(basis, h);

  LanczosOptions lo;
  lo.k = 2;  // ground state + gap
  lo.tol = 1e-8;
  Lanczos solver(hs, lo);
  const LanczosResult* lr = nullptr;
  const double solve_s = wall_seconds([&] { lr = &solver.solve(); });
  r.report({{"num_qubits", static_cast<double>(n)},
            {"n_up", static_cast<double>(n_up)},
            {"n_down", static_cast<double>(n_up)},
            {"sector_dim", static_cast<double>(basis.dim())},
            {"scb_terms", static_cast<double>(h.size())},
            {"k", static_cast<double>(lo.k)},
            {"residual_tol", lo.tol},
            {"iterations", static_cast<double>(lr->iterations)},
            {"matvecs", static_cast<double>(lr->matvecs)},
            {"restarts", static_cast<double>(lr->restarts)},
            {"seconds_to_converge", solve_s},
            {"ground_energy", lr->eigenvalues[0]},
            {"gap", lr->eigenvalues[1] - lr->eigenvalues[0]},
            {"converged", lr->converged ? 1.0 : 0.0}});
  return 0;
}

// sector_quench: the CDW Krylov quench run sector-natively and in the full
// space, timed both ways, with a cross-check (both evolutions are
// spectrally accurate, so the embedded sector state must match the full
// KrylovEvolver to ~the per-step budget).
int sector_quench(Run& r) {
  const HubbardParams hq = quench_lattice(r.quick);
  const std::size_t n = hubbard_num_modes(hq);
  const ScbSum h = hubbard_scb(hq);
  const std::uint64_t occ = hubbard_cdw_occupation(hq);
  const SectorBasis basis = hubbard_sector_of(hq, occ);
  const SectorOperator hs(basis, h);
  KrylovOptions ko;
  ko.tol = 1e-10;
  const KrylovEvolver sector_ev(hs, ko);
  const KrylovEvolver full_ev(h, ko);
  const double dt = 0.02;  // the hubbard_quench step size

  SectorVector spsi = SectorVector::config_state(basis, occ);
  const Timing s_t = r.time([&] { sector_ev.step(spsi.amps(), dt); });
  const std::size_t s_matvecs = sector_ev.last_matvecs();
  StateVector fpsi = StateVector::product(n, occ);
  const Timing f_t = r.time([&] { full_ev.step(fpsi.amps(), dt); });

  // Cross-check over a fresh short quench in both spaces.
  SectorVector xs = SectorVector::config_state(basis, occ);
  StateVector xf = StateVector::product(n, occ);
  const int xsteps = 5;
  for (int s = 0; s < xsteps; ++s) {
    sector_ev.step(xs.amps(), dt);
    full_ev.step(xf.amps(), dt);
  }
  const double xdiff = xs.embed().max_abs_diff(xf);
  if (xdiff > 1e-8)
    return gate_failed(
        "sector_quench sector-vs-full mismatch (max diff %g over %d steps)",
        xdiff, xsteps);
  // Per-matvec traffic model of the sector apply (SectorOperator::
  // apply_bytes: the row gather's offsets, entries, diagonal, x gathers and
  // y read-modify-write). Krylov orthogonalization traffic is not modeled,
  // so achieved_gbs is a lower bound on the true bandwidth. Sector vectors
  // are small enough to live in cache (~1 MB at n = 20), so stream_fraction
  // here can legitimately EXCEED 1: cache bandwidth beats the DRAM triad
  // roofline.
  const double step_bytes = static_cast<double>(hs.apply_bytes()) *
                            static_cast<double>(s_matvecs);
  const double gbs = step_bytes / s_t.min / 1e9;
  r.report({{"num_qubits", static_cast<double>(n)},
            {"sector_dim", static_cast<double>(basis.dim())},
            {"dt", dt},
            {"krylov_tol", ko.tol},
            {"seconds_per_step", s_t.median},
            {"min_seconds_per_step", s_t.min},
            {"matvecs_per_step", static_cast<double>(s_matvecs)},
            {"step_traffic_bytes", step_bytes},
            {"achieved_gbs", gbs},
            {"stream_fraction", r.stream_fraction(gbs)},
            {"full_seconds_per_step", f_t.median},
            {"full_min_seconds_per_step", f_t.min},
            {"sector_speedup_vs_full", f_t.median / s_t.median},
            {"sector_vs_full_max_diff", xdiff}});
  return 0;
}

// -- telemetry_overhead: the instrumentation-cost gate -----------------------
// The telemetry design promise is that the disabled path is a relaxed atomic
// load plus a predicted branch at every site. This entry proves it on the
// most instrumentation-dense hot loop in the tree — the fused Strang quench
// step at full size — by timing the SAME step with telemetry off, with
// metrics on, and with metrics + span tracing on, gating the enabled-over-off
// ratios. The three configurations are interleaved: each of 2 * repeat + 1
// rounds times one window of each, in an order that rotates by round, so
// host drift lands on all three alike. The gates read the median over
// rounds of the per-round ratios, which a stalled window cannot move.
int telemetry_overhead(Run& r) {
  const HubbardParams hq = quench_lattice(r.quick);
  const std::size_t n = hubbard_num_modes(hq);
  const ScbSum h = hubbard_scb(hq);
  const TrotterEvolver ev(h);
  const double dt = 0.02;
  StateVector psi = StateVector::product(n, hubbard_cdw_occupation(hq));
  const auto step_once = [&] {
    ev.step(psi.amps(), dt, 2);
    sink += static_cast<std::size_t>(psi[0].real() < 2);
  };

  const bool metrics_was = telemetry::metrics_enabled();
  const bool tracing_was = telemetry::tracing_enabled();
  // Configuration c: 0 off, 1 metrics, 2 metrics + tracing.
  std::array<std::vector<double>, 3> secs;  // per configuration, per round
  std::vector<double> met_ratio, trc_ratio;
  step_once();  // warmup
  for (int round = 0; round < 2 * r.repeat + 1; ++round) {
    for (int k = 0; k < 3; ++k) {
      const int c = (round + k) % 3;
      telemetry::set_metrics_enabled(c >= 1);
      telemetry::set_tracing_enabled(c == 2);
      secs[c].push_back(r.window(step_once));
    }
    met_ratio.push_back(secs[1].back() / secs[0].back());
    trc_ratio.push_back(secs[2].back() / secs[0].back());
  }
  telemetry::set_metrics_enabled(metrics_was);
  telemetry::set_tracing_enabled(tracing_was);
  const Timing off_t = summarize(secs[0]);
  const Timing met_t = summarize(secs[1]);
  const Timing trc_t = summarize(secs[2]);

  const double metrics_over = std::max(0.0, summarize(met_ratio).median - 1.0);
  const double traced_over = std::max(0.0, summarize(trc_ratio).median - 1.0);
  // Quick runs use 0.05 s windows (CI smoke boxes): the ratios there are
  // noise-dominated, so the gates relax by an order of magnitude. The
  // full-size gates are the recorded contract.
  const double metrics_gate = r.quick ? 0.10 : 0.01;
  const double traced_gate = r.quick ? 0.25 : 0.05;
  if (metrics_over > metrics_gate || traced_over > traced_gate)
    return gate_failed(
        "telemetry_overhead gate failed (metrics %+.2f%% gate %.0f%%, traced "
        "%+.2f%% gate %.0f%%; off %.3fms)",
        metrics_over * 100, metrics_gate * 100, traced_over * 100,
        traced_gate * 100, off_t.median * 1e3);
  r.report({{"num_qubits", static_cast<double>(n)},
            {"threads", static_cast<double>(r.threads)},
            {"off_seconds_per_step", off_t.median},
            {"off_min_seconds_per_step", off_t.min},
            {"metrics_seconds_per_step", met_t.median},
            {"metrics_min_seconds_per_step", met_t.min},
            {"traced_seconds_per_step", trc_t.median},
            {"traced_min_seconds_per_step", trc_t.min},
            {"metrics_overhead_frac", metrics_over},
            {"traced_overhead_frac", traced_over},
            {"gate_metrics_overhead_frac", metrics_gate},
            {"gate_traced_overhead_frac", traced_gate}});
  return 0;
}

// -- serve_batch: the serving-layer batching gate ----------------------------
// Observable batching, the promise of src/serve/batch.hpp: K = 16 coalesced
// expectation requests cost one Krylov evolution plus 16 cheap diagonal
// sweeps, not 16 evolutions — batched must beat sequential by >= 5x AND
// return bitwise-identical values (the trajectory is the same object, so
// equality is exact).
int serve_batch(Run& r) {
  const HubbardParams hq = quench_lattice(r.quick);
  const std::size_t n = hubbard_num_modes(hq);
  const std::uint64_t occ = hubbard_cdw_occupation(hq);
  const SectorBasis basis = hubbard_sector_of(hq, occ);
  const SectorOperator hs(basis, hubbard_scb(hq));
  const SectorVector psi0 = SectorVector::config_state(basis, occ);
  const double dt = 0.02;  // the sector_quench step size
  const std::size_t steps = r.quick ? 4 : 6;
  const double tol = 1e-10;

  // The serve menu under test: density + doublon on the first 8 sites.
  std::vector<serve::ObservableSpec> menu;
  for (std::uint32_t site = 0; site < 8; ++site) {
    menu.push_back({serve::ObservableKind::kDensity, site, 0});
    menu.push_back({serve::ObservableKind::kDoublon, site, 0});
  }
  std::vector<SectorOperator> obs;
  obs.reserve(menu.size());
  for (const serve::ObservableSpec& o : menu)
    obs.emplace_back(basis, serve::build_observable(hq, o));
  const std::size_t k_obs = obs.size();

  // Single-shot wall times: the workloads are deterministic evolutions, and
  // the gate margin (~Kx expected vs 5x required) dwarfs scheduler noise.
  serve::BatchResult batched;
  const double batched_s = wall_seconds([&] {
    batched = serve::run_observable_batch(hs, psi0, dt, steps, obs, tol);
  });
  std::vector<serve::BatchResult> singles(k_obs);
  const double sequential_s = wall_seconds([&] {
    for (std::size_t i = 0; i < k_obs; ++i)
      singles[i] = serve::run_observable_batch(hs, psi0, dt, steps,
                                               std::span(&obs[i], 1), tol);
  });
  sink += batched.values.size();

  // Gate (a): bitwise identity of every batched column against its
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
      identical = std::memcmp(&s.values[st], &batched.values[st * k_obs + i],
                              sizeof(double)) == 0;
  }
  if (!identical)
    return gate_failed(
        "serve_batch batched values are not bitwise identical to the "
        "sequential runs");
  // Gate (b): the batching win itself.
  const double batch_speedup = sequential_s / batched_s;
  const double speedup_gate = 5.0;
  if (batch_speedup < speedup_gate)
    return gate_failed(
        "serve_batch speedup gate failed (%zu obs batched %.3fs vs "
        "sequential %.3fs = %.2fx, gate %.1fx)",
        k_obs, batched_s, sequential_s, batch_speedup, speedup_gate);
  r.report({{"num_qubits", static_cast<double>(n)},
            {"sector_dim", static_cast<double>(basis.dim())},
            {"observables", static_cast<double>(k_obs)},
            {"steps", static_cast<double>(steps)},
            {"dt", dt},
            {"krylov_tol", tol},
            {"batched_seconds", batched_s},
            {"sequential_seconds", sequential_s},
            {"batch_speedup", batch_speedup},
            {"gate_batch_speedup", speedup_gate},
            {"batch_matvecs", static_cast<double>(batched.matvecs)}});
  return 0;
}

/// The suite, in run order. An entry returns nonzero when a gate fails,
/// which becomes the exit code.
struct Entry {
  const char* name;
  int (*run)(Run&);
};
constexpr Entry kEntries[] = {
    {"term_expansion", term_expansion},
    {"pauli_sum_product", pauli_sum_product},
    {"stream_triad", stream_triad},
    {"scb_apply", scb_apply},
    {"pauli_sum_apply", pauli_sum_apply},
    {"dense_matmul", dense_matmul},
    {"dense_expm", dense_expm},
    {"fermion_hubbard_1d", fermion_hubbard_1d},
    {"fermion_hubbard_2d_spinful", fermion_hubbard_2d_spinful},
    {"fermion_molecular", fermion_molecular},
    {"fermion_density_string", fermion_density_string},
    {"fermion_apply_xcheck", fermion_apply_xcheck},
    {"parallel_apply", parallel_apply},
    {"hubbard_quench", hubbard_quench},
    {"sector_xcheck", sector_xcheck},
    {"sector_ground_state", sector_ground_state},
    {"sector_quench", sector_quench},
    {"telemetry_overhead", telemetry_overhead},
    {"serve_batch", serve_batch},
};

struct BenchResult {
  std::string name;
  Fields fields;
  /// Nested "telemetry" block: the metrics-registry delta over the entry
  /// (matvecs, modeled bytes, pool utilization).
  Fields telemetry;
};

/// The metrics-registry delta over one entry, as its "telemetry" block.
Fields telemetry_fields(const telemetry::MetricsSnapshot& before) {
  using telemetry::Counter;
  using telemetry::Hist;
  const telemetry::MetricsSnapshot d =
      telemetry::metrics_delta(before, telemetry::metrics_snapshot());
  const double task = static_cast<double>(d.hist(Hist::pool_task_ns).sum);
  const double idle = static_cast<double>(d.hist(Hist::pool_idle_ns).sum);
  const auto count = [&](Counter c) {
    return static_cast<double>(d.counter(c));
  };
  return {{"matvecs", count(Counter::matvecs)},
          {"kernel_sweeps", count(Counter::kernel_sweeps)},
          {"amplitudes_touched", count(Counter::amplitudes_touched)},
          {"bytes_moved", count(Counter::bytes_moved)},
          {"pool_dispatches", count(Counter::pool_dispatches)},
          {"pool_utilization", task + idle > 0.0 ? task / (task + idle) : 0.0}};
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
  // (GECOS_SIMD override included).
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
      out << ", \"" << k << "\": " << num(v);
    out << ", \"telemetry\": {";
    for (std::size_t j = 0; j < results[i].telemetry.size(); ++j) {
      const auto& [k, v] = results[i].telemetry[j];
      out << (j ? ", " : "") << "\"" << k << "\": " << num(v);
    }
    out << "}}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  out.flush();
  return out.good();
}

constexpr const char* kUsage =
    "[--quick] [--out PATH] [--threads K] [--repeat K] [--only SUBSTR]... "
    "[--list] [--help]";

void print_help(const char* prog) {
  std::printf(
      "usage: %s %s\n"
      "\n"
      "Runs gecos's in-process gates and microbenchmarks and writes a JSON\n"
      "report. The end-to-end benchmark is perfbench/ (perfbench/README.md).\n"
      "\n"
      "  --quick       smaller workloads and shorter timing windows (0.05 s\n"
      "                instead of 0.25 s per sample); CI uses this as a\n"
      "                smoke test, so absolute numbers are noisier\n"
      "  --out PATH    output path for the JSON report (default:\n"
      "                BENCH_pauli.json); an unwritable path exits 2 before\n"
      "                anything runs\n"
      "  --threads K   worker count (1..1024) for every entry; without it\n"
      "                GECOS_THREADS, else hardware concurrency.\n"
      "                parallel_apply measures 1 worker against this count\n"
      "  --repeat K    timed samples per measurement (default 5); timed\n"
      "                fields report the median and the min across them\n"
      "  --only SUBSTR run only the entries whose name contains SUBSTR\n"
      "                (repeatable; a filter matching no entry is an error)\n"
      "  --list        print the entry names the same filters would run,\n"
      "                one per line, and exit\n"
      "  --help        print this message and exit\n"
      "\n"
      "GECOS_SIMD forces the SIMD tier and GECOS_TRACE=<path> writes a span\n"
      "trace at exit. Each entry prints one `name key=value ...` line; a\n"
      "failed gate prints an error and exits 1. Schema \"gecos-bench-v4\":\n"
      "  {\"schema\", \"quick\", \"hw\": {\"nproc\", \"avx2\", \"avx512\",\n"
      "   \"simd_tier\"}, \"benchmarks\": [{\"name\", <numeric fields>,\n"
      "   \"telemetry\": {<metrics deltas>}}]}\n"
      "README.md \"Reading BENCH_pauli.json\" explains every field.\n",
      prog, kUsage);
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  bool list_only = false;  // --list: print entry names, run nothing
  std::string out_path = "BENCH_pauli.json";
  std::vector<std::string> only;  // --only filters (empty = run everything)
  // The flag's argument, or nullptr (after an error line) when it is missing.
  const auto arg_of = [&](int& i, const char* what) -> const char* {
    if (i + 1 < argc) return argv[++i];
    std::fprintf(stderr, "%s: %s requires %s argument\n", argv[0], argv[i],
                 what);
    return nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--quick") {
      run.quick = true;
    } else if (a == "--out") {
      const char* v = arg_of(i, "a PATH");
      if (v == nullptr) return 2;
      out_path = v;
    } else if (a == "--repeat") {
      const char* v = arg_of(i, "a count");
      if (v == nullptr) return 2;
      const std::optional<std::uint64_t> k = parse_uint(v, 1, INT_MAX);
      if (!k) {
        std::fprintf(stderr, "%s: --repeat needs a positive count, got '%s'\n",
                     argv[0], v);
        return 2;
      }
      run.repeat = static_cast<int>(*k);
    } else if (a == "--threads") {
      const char* v = arg_of(i, "a count");
      if (v == nullptr) return 2;
      try {
        set_num_threads(parse_threads_env(v));
      } catch (const std::invalid_argument&) {
        std::fprintf(stderr,
                     "%s: --threads needs an integer in [1, 1024], got '%s'\n",
                     argv[0], v);
        return 2;
      }
    } else if (a == "--only") {
      const char* v = arg_of(i, "a SUBSTR");
      if (v == nullptr) return 2;
      only.emplace_back(v);
    } else if (a == "--list") {
      list_only = true;
    } else if (a == "--help" || a == "-h") {
      print_help(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\nusage: %s %s\n",
                   argv[0], argv[i], argv[0], kUsage);
      return 2;
    }
  }
  // Validate the lazily-parsed environment up front: a bad GECOS_THREADS /
  // GECOS_SIMD should fail the run with the offending token and the
  // flag-error exit code, not explode inside the first parallel kernel.
  try {
    run.threads = num_threads();
    (void)simd_tier();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }

  // One match predicate for the validation loop, the --list preview and the
  // run loop, so --list shows exactly what a run with the same filters
  // would execute.
  const auto matches = [](std::string_view name, std::string_view filter) {
    return name.find(filter) != std::string_view::npos;
  };
  const auto selected = [&](std::string_view name) {
    return only.empty() ||
           std::any_of(only.begin(), only.end(),
                       [&](const std::string& f) { return matches(name, f); });
  };
  for (const std::string& f : only) {
    if (std::none_of(std::begin(kEntries), std::end(kEntries),
                     [&](const Entry& e) { return matches(e.name, f); })) {
      std::fprintf(stderr, "%s: --only '%s' matches no bench entry; entries:\n",
                   argv[0], f.c_str());
      for (const Entry& e : kEntries) std::fprintf(stderr, "  %s\n", e.name);
      return 2;
    }
  }
  if (list_only) {
    for (const Entry& e : kEntries)
      if (selected(e.name)) std::printf("%s\n", e.name);
    return 0;
  }
  // Probe --out writability before the (potentially minutes-long) run, so a
  // typo'd directory fails now with the flag-error exit code. Append mode
  // leaves an existing report untouched; the probe file is removed again
  // when the path did not pre-exist.
  const bool pre_existed = static_cast<bool>(std::ifstream(out_path.c_str()));
  if (!std::ofstream(out_path.c_str(), std::ios::app)) {
    std::fprintf(stderr, "%s: --out %s: cannot open for writing\n", argv[0],
                 out_path.c_str());
    return 2;
  }
  if (!pre_existed) std::remove(out_path.c_str());

  // Metrics are on for bench runs: the per-entry telemetry JSON block needs
  // the registry live, and telemetry_overhead gates the cost of exactly
  // this mode against the disabled path.
  telemetry::set_metrics_enabled(true);
  std::vector<BenchResult> results;
  for (const Entry& e : kEntries) {
    if (!selected(e.name)) continue;
    // Every entry starts at the configured count (parallel_apply changes
    // it), so an --only run measures what the full run measures.
    set_num_threads(run.threads);
    run.name = e.name;
    run.fields.clear();
    const telemetry::MetricsSnapshot before = telemetry::metrics_snapshot();
    const int rc = e.run(run);
    if (rc != 0) return rc;
    results.push_back(
        {e.name, std::move(run.fields), telemetry_fields(before)});
  }

  if (!write_json(out_path, run.quick, results)) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s (sink=%zu)\n", out_path.c_str(), sink);
  return 0;
}

// Shared pieces of the gecos benchmark binary: clock and spans, statistics,
// the failure tally, the metric sink, host/process context and the
// working-set triad. Everything here is measured from outside the library:
// the benchmark times calls into each module's public functions and never
// reaches into src/.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ops/linear_op.hpp"

namespace perfbench {

// -- clock and spans ----------------------------------------------------------

/// Monotonic nanoseconds (steady_clock).
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Seconds between two now_ns() readings.
inline double span_s(std::uint64_t t0, std::uint64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

/// In-memory span store of the traced run. Off by default; when on, every
/// Span and TimedOperator call is kept (name, thread, start, duration,
/// request id) and write() emits trace-event JSON ("X" complete events)
/// that tools/trace_report.py reads.
class Trace {
 public:
  /// Turns recording on (reserves storage, fixes the trace epoch).
  static void enable();
  /// True when spans are being recorded.
  static bool on();
  /// Records one completed span; name must outlive the process (a literal).
  /// The span lands on the calling thread's track unless `track` names
  /// another (overlapping spans that do not nest need tracks of their own).
  static void record(const char* name, std::uint64_t t0, std::uint64_t t1,
                     std::uint64_t id = 0, std::uint32_t track = 0);
  /// Writes every recorded span to `path`; false on I/O failure.
  static bool write(const std::string& path);
};

/// Wall-time span: always measures; records into Trace when it is on.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t id = 0)
      : name_(name), id_(id), t0_(now_ns()) {}
  ~Span() {
    if (!stopped_) stop();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span and returns its length in seconds (idempotent).
  double stop();

 private:
  const char* name_;
  std::uint64_t id_;
  std::uint64_t t0_;
  double seconds_ = 0.0;
  bool stopped_ = false;
};

/// Forwarding LinearOperator: every apply_add goes to the wrapped operator
/// and is timed (count and busy time), and recorded as a span when tracing
/// is on. This is how the benchmark splits a solver's time into operator
/// applies and everything else without touching the solver.
class TimedOperator final : public gecos::LinearOperator {
 public:
  TimedOperator(const gecos::LinearOperator& inner, const char* span_name)
      : inner_(inner), name_(span_name) {}

  std::size_t n_qubits() const override { return inner_.n_qubits(); }
  std::size_t dim() const override { return inner_.dim(); }
  using gecos::LinearOperator::apply_add;
  void apply_add(std::span<const gecos::cplx> x, std::span<gecos::cplx> y,
                 gecos::cplx scale) const override;

  /// Applies since the last reset() and their summed wall time.
  std::uint64_t calls() const { return calls_; }
  double busy_s() const { return static_cast<double>(busy_ns_) * 1e-9; }
  /// Zeroes the counters.
  void reset() const {
    calls_ = 0;
    busy_ns_ = 0;
  }

 private:
  const gecos::LinearOperator& inner_;
  const char* name_;
  mutable std::uint64_t calls_ = 0;
  mutable std::uint64_t busy_ns_ = 0;
};

// -- statistics ---------------------------------------------------------------

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 100]: the ceil(p/100 * n)-th smallest
/// sample. 0 when empty.
double percentile(std::vector<double> v, double p);
/// Samples ranked strictly above the nearest-rank p-th percentile of n.
std::size_t samples_beyond(std::size_t n, double p);
/// The highest percentile of {99.9, 99, 95, 90, 75, 50} that has at least
/// ten samples beyond it among n; 0 when none does (n < 20).
double tail_percentile(std::size_t n);
/// Sum of the samples.
double total(const std::vector<double>& v);

// -- failures and gates -------------------------------------------------------

/// Attempted / failed operation counts of one run (an operation is a solve,
/// a quench window, a job or an RPC). A failed correctness gate counts as a
/// failed operation.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Counts one operation; returns ok so gates can be chained inline.
  bool record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
    return ok;
  }
  /// failed / attempted (0 when nothing was attempted).
  double failed_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// |value - ref| <= tol, false for NaN.
inline bool within(double value, double ref, double tol) {
  return value - ref <= tol && ref - value <= tol;
}

/// The ground-state gate: the solve converged and E0 is within tol of the
/// reference energy.
inline bool energy_gate(bool converged, double e0, double ref, double tol) {
  return converged && within(e0, ref, tol);
}

// -- metrics ------------------------------------------------------------------

/// One metric name with its unit, as listed in BENCHMARK.json.
struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every untraced run prints (BENCHMARK.json
/// "end_to_end", same order).
const std::vector<MetricDef>& end_to_end_metrics();
/// The per-layer metrics every traced run prints (BENCHMARK.json
/// "per_layer", same order). Layers a workload does not run read 0.
const std::vector<MetricDef>& per_layer_metrics();

/// Metric values by name; set() rejects names missing from both lists, so
/// a typo fails the run instead of silently printing 0.
class Values {
 public:
  void set(const std::string& name, double value);
  double get(const std::string& name) const;

 private:
  std::map<std::string, double> v_;
};

// -- run options and result ---------------------------------------------------

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/out";  ///< traces, daemon state
  std::string gecosd = PERFBENCH_GECOSD;     ///< daemon built with us
};

/// What a workload hands back to main: metric values, the failure tally and
/// free-form input records (printed as one JSON line before the result).
struct RunResult {
  Values values;
  Tally tally;
  std::map<std::string, double> inputs;
};

/// Workload entry points (solver_workloads.cpp, serve_workload.cpp).
void run_ground_full(const Options& opt, RunResult& out);
void run_sector_quench(const Options& opt, RunResult& out);
void run_trotter_quench(const Options& opt, RunResult& out);
void run_serve_mix(const Options& opt, RunResult& out);

/// Self-tests of the benchmark's own statistics and gates; 0 on success.
int run_selftest();

// -- host and process context -------------------------------------------------

/// Resource counters of a process: CPU seconds, minor faults, context
/// switches (voluntary + involuntary) and peak RSS.
struct ProcCounters {
  double cpu_s = 0.0;
  double minor_faults = 0.0;
  double ctx_switches = 0.0;
  double peak_rss_mb = 0.0;
};
/// This process, from getrusage(RUSAGE_SELF).
ProcCounters self_counters();
/// Another process, from /proc/<pid>/stat and /proc/<pid>/status (zeros
/// when unreadable).
ProcCounters pid_counters(pid_t pid);
/// Counter difference after - before (peak RSS taken from after).
ProcCounters counters_delta(const ProcCounters& before,
                            const ProcCounters& after);

/// One-line JSON object describing the host and build: nproc, pool
/// threads, SIMD tier, cache sizes, RAM, compiler and flags. Results are
/// comparable only when these match.
std::string context_json();

/// CPU time the hypervisor stole from this host so far, and all CPU time,
/// in clock ticks summed over CPUs (the "cpu" line of /proc/stat; zeros
/// when unreadable). Their deltas over a run show how much of it ran on
/// contended CPUs.
std::pair<double, double> host_steal_ticks();

/// Best STREAM-triad bandwidth (GB/s, 24 B per element: two reads, one
/// write) over three arrays of `bytes_per_array` bytes each, run on the
/// gecos thread pool. The ceiling of whichever cache level holds that
/// working set.
double triad_gbs(std::size_t bytes_per_array);

}  // namespace perfbench

// Telemetry metrics: event counters and log-bucketed histograms.
//
// The instrumentation layer every hot subsystem reports into. Design goals,
// in priority order:
//
//   1. The DISABLED path costs one relaxed atomic load and a predicted
//      branch — cheap enough to leave count()/observe() calls inline in the
//      matvec kernels without moving the recorded bench numbers, and it
//      never allocates, so the zero-allocation-after-warmup contract of the
//      solvers is untouched when telemetry is off (pinned by
//      tests/test_telemetry.cpp's alloc probe).
//   2. The ENABLED path is one relaxed fetch_add per field into a single
//      process-wide, constant-initialized table of atomics: no lock, no
//      allocation, no per-thread state, nothing destroyed at exit. A
//      snapshot is a relaxed load of every field.
//   3. Increment sites are coarse: once per operator application, per
//      kernel sweep, per pool chunk, per checkpoint — never per amplitude.
//      Byte counts are analytic traffic models, comparable to a bandwidth
//      ceiling only at the cache level that holds the working set.
//
// Histograms use 64 fixed power-of-two buckets (bucket index =
// std::bit_width(value); bucket 0 holds exactly {0}): recording is three
// relaxed adds, percentile estimates come from the cumulative bucket counts
// and are bounded by value <= estimate < 2 * value.
//
// Metrics are off at process start; set_metrics_enabled turns them on, and
// GECOS_TRACE=<path> (see trace.hpp) turns on metrics and tracing. An empty
// GECOS_TRACE terminates with a message rather than degrading silently.
// Every "%p" in the path expands to the process id, so a daemon and the
// clients it forks can all trace concurrently without clobbering one file
// (see expand_trace_path). See DESIGN.md "Telemetry & tracing".
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace gecos::telemetry {

/// Monotonic event counters. Semantics of the traffic trio: matvecs counts
/// LinearOperator::apply entries (one logical operator application);
/// kernel_sweeps counts per-term statevector passes inside them;
/// amplitudes_touched / bytes_moved follow each kernel's traffic model (48 B
/// per touched amplitude for mask kernels; SectorOperator::apply_bytes for
/// the sector row gather).
enum class Counter : int {
  matvecs = 0,         ///< LinearOperator::apply calls (logical matvecs)
  kernel_sweeps,       ///< per-term statevector passes
  amplitudes_touched,  ///< amplitudes read-modify-written by kernels
  bytes_moved,         ///< modeled statevector traffic in bytes
  checkpoint_restores, ///< checkpoint files read back successfully
  pool_dispatches,     ///< parallel_for calls that reached the thread pool
  kCount               ///< number of counters (not a counter)
};

/// Log-bucketed duration histograms (values in nanoseconds). The count of
/// pool_task_ns is the number of pool chunks run, and the count of
/// checkpoint_write_ns the number of checkpoint files written.
enum class Hist : int {
  matvec_ns = 0,        ///< wall time per LinearOperator::apply
  pool_task_ns,         ///< wall time per executed pool chunk
  pool_idle_ns,         ///< worker wait time between pool dispatches
  checkpoint_write_ns,  ///< wall time per checkpoint write
  kCount                ///< number of histograms (not a histogram)
};

/// Array extents for the snapshot structs.
inline constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(Counter::kCount);
/// Array extent for Hist-indexed storage.
inline constexpr std::size_t kNumHists = static_cast<std::size_t>(Hist::kCount);
/// Fixed bucket count: bucket b holds values with std::bit_width(v) == b,
/// i.e. [2^(b-1), 2^b) for b >= 1 and exactly {0} for b = 0.
inline constexpr std::size_t kHistBuckets = 64;

namespace detail {

/// The one global metrics switch. Inline so the disabled check compiles to
/// a single relaxed load at every instrumentation site.
inline std::atomic<bool> g_metrics{false};

/// Out-of-line enabled paths (relaxed adds into the process-wide table).
void counter_add_enabled(Counter c, std::uint64_t v);
/// Histogram record, enabled path.
void observe_enabled(Hist h, std::uint64_t value);

}  // namespace detail

/// True when metrics recording is on (GECOS_TRACE or set_metrics_enabled).
/// The relaxed load every count()/observe() site pays when disabled.
inline bool metrics_enabled() {
  return detail::g_metrics.load(std::memory_order_relaxed);
}

/// Turns metrics recording on or off at runtime (bench_main turns it on at
/// start and its telemetry_overhead entry toggles it). Thread-safe; takes
/// effect at each site's next enabled check.
void set_metrics_enabled(bool on);

/// Adds v to a counter. Disabled: one relaxed load + branch. Enabled: one
/// relaxed add. Never allocates.
inline void count(Counter c, std::uint64_t v = 1) {
  if (metrics_enabled()) [[unlikely]]
    detail::counter_add_enabled(c, v);
}

/// Records a value (nanoseconds) into a histogram; same cost contract as
/// count().
inline void observe(Hist h, std::uint64_t value) {
  if (metrics_enabled()) [[unlikely]]
    detail::observe_enabled(h, value);
}

/// Monotonic nanosecond clock for duration instrumentation
/// (std::chrono::steady_clock since an arbitrary process-local epoch).
std::uint64_t now_ns();

/// View of one histogram: bucket counts plus exact count/sum.
struct HistogramSnapshot {
  std::array<std::uint64_t, kHistBuckets> buckets{};  ///< per-bucket counts
  std::uint64_t count = 0;                            ///< values recorded
  std::uint64_t sum = 0;                              ///< exact value sum
  /// Upper-bound percentile estimate, p in [0, 100]: the smallest bucket
  /// upper bound whose cumulative count covers fraction p of the samples.
  /// Guarantee for v >= 1: v <= percentile-estimate < 2 v. Returns 0 when
  /// empty.
  double percentile(double p) const;
  /// Exact mean (sum / count); 0 when empty.
  double mean() const;
};

/// Point-in-time copy of the process-wide counters and histograms.
struct MetricsSnapshot {
  std::array<std::uint64_t, kNumCounters> counters{};  ///< by Counter index
  std::array<HistogramSnapshot, kNumHists> hists{};    ///< by Hist index
  /// Convenience accessor by enum.
  std::uint64_t counter(Counter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
  /// Histogram accessor by enum.
  const HistogramSnapshot& hist(Hist h) const {
    return hists[static_cast<std::size_t>(h)];
  }
};

/// Loads every counter and histogram field. Increments issued before a
/// pool-dispatch completion or a thread join are visible; concurrent
/// in-flight increments may or may not be included.
MetricsSnapshot metrics_snapshot();

/// Interval view: every field is after - before, saturating at zero. The
/// bench harness wraps each entry in a snapshot pair and reports the delta.
MetricsSnapshot metrics_delta(const MetricsSnapshot& before,
                              const MetricsSnapshot& after);

/// Bucket index for a value (= std::bit_width clamped to kHistBuckets - 1);
/// exposed for the histogram tests.
std::size_t hist_bucket(std::uint64_t v);

/// Inclusive upper bound of a bucket (2^b - 1; bucket 0 -> 0; the top
/// bucket is a catch-all with upper bound UINT64_MAX, since hist_bucket
/// clamps into it); the value percentile() reports for samples in bucket b.
std::uint64_t hist_bucket_upper(std::size_t b);

/// Expands every "%p" in a GECOS_TRACE path to the calling process's pid
/// (decimal). This is how concurrent processes — gecosd plus the clients it
/// serves, or a fork+exec test harness — share one GECOS_TRACE value
/// without racing on a single output file. A literal "%p" cannot be
/// escaped; no other placeholders exist.
std::string expand_trace_path(const std::string& path);

/// Applies GECOS_TRACE once per process (runs automatically before main via
/// a static registrar; later calls are no-ops). An empty value prints a
/// message to stderr and exits with status 2 — matching bench_main's
/// unknown-flag policy. GECOS_TRACE=<path> enables metrics + tracing and
/// registers an atexit hook that writes the trace JSON to <path>.
void init_from_env();

}  // namespace gecos::telemetry

// Telemetry metrics registry: counters, gauges and log-bucketed histograms.
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
//   2. The ENABLED path is race-free without a hot-path lock: every thread
//      accumulates into its own lock-free shard (plain relaxed atomics, so
//      a concurrent snapshot read is not a data race), and shards are only
//      merged under the registry mutex — on snapshot, and when a thread
//      exits and retires its shard into the global totals.
//   3. Increment sites are coarse: once per operator application, per
//      kernel sweep, per checkpoint — never per amplitude. Byte counts are
//      the same analytic traffic models the bench roofline uses, so
//      bytes_moved / elapsed is directly comparable to stream_triad.
//
// Histograms use 64 fixed power-of-two buckets (bucket index =
// std::bit_width(value); bucket 0 holds exactly {0}): recording is two
// relaxed adds, percentile estimates come from the merged cumulative bucket
// counts and are bounded by value <= estimate < 2 * value. No dynamic bins,
// no allocation after the shard exists.
//
// GECOS_METRICS=1 enables metrics at process start; GECOS_TRACE=<path>
// (see trace.hpp) implies it. Both are parsed strictly — an invalid value
// terminates with the offending token rather than degrading silently. Every
// "%p" in the GECOS_TRACE path expands to the process id, so a daemon and
// the clients it forks can all trace concurrently without clobbering one
// file (see expand_trace_path). See DESIGN.md "Telemetry & tracing".
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
/// amplitudes_touched / bytes_moved follow the bench traffic models (48 B
/// per touched amplitude for mask kernels, 52 B for table-driven sector
/// hops), so they are comparable to the stream_triad roofline.
enum class Counter : int {
  matvecs = 0,         ///< LinearOperator::apply calls (logical matvecs)
  kernel_sweeps,       ///< per-term statevector passes
  amplitudes_touched,  ///< amplitudes read-modify-written by kernels
  bytes_moved,         ///< modeled statevector traffic in bytes
  checkpoint_writes,   ///< checkpoint files written (incl. .bak rotation)
  checkpoint_restores, ///< checkpoint files read back successfully
  checkpoint_bytes,    ///< payload bytes written to checkpoint files
  pool_dispatches,     ///< parallel_for calls that reached the thread pool
  pool_chunks,         ///< chunks executed across all pool dispatches
  spans_dropped,       ///< trace span events overwritten in a full ring
  kernel_compiles,     ///< term kernels compiled (ScbSum + SectorOperator)
  jobs_submitted,      ///< serve jobs accepted by the scheduler
  jobs_completed,      ///< serve jobs that reached the done state
  observables_batched, ///< expectation requests coalesced into shared passes
  kCount               ///< number of counters (not a counter)
};

/// Last-write-wins instantaneous values. Gauges are single global atomics,
/// recorded unconditionally (the write sites are cold configuration paths).
enum class Gauge : int {
  simd_tier = 0,  ///< active SimdTier as an integer (0 scalar/1 avx2/2 avx512)
  threads,        ///< current worker-count setting (num_threads())
  kCount          ///< number of gauges (not a gauge)
};

/// Log-bucketed duration histograms (values in nanoseconds).
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
/// Array extent for Gauge-indexed storage.
inline constexpr std::size_t kNumGauges =
    static_cast<std::size_t>(Gauge::kCount);
/// Array extent for Hist-indexed storage.
inline constexpr std::size_t kNumHists = static_cast<std::size_t>(Hist::kCount);
/// Fixed bucket count: bucket b holds values with std::bit_width(v) == b,
/// i.e. [2^(b-1), 2^b) for b >= 1 and exactly {0} for b = 0.
inline constexpr std::size_t kHistBuckets = 64;

/// Stable snake_case name of a counter (used by the bench JSON telemetry
/// block and the tests).
const char* counter_name(Counter c);
/// Stable snake_case name of a gauge.
const char* gauge_name(Gauge g);
/// Stable snake_case name of a histogram.
const char* hist_name(Hist h);

namespace detail {

/// The one global metrics switch. Inline so the disabled check compiles to
/// a single relaxed load at every instrumentation site.
inline std::atomic<bool> g_metrics{false};

/// Out-of-line enabled paths (shard lookup + relaxed adds).
void counter_add_enabled(Counter c, std::uint64_t v);
/// Histogram record, enabled path.
void observe_enabled(Hist h, std::uint64_t value);

}  // namespace detail

/// True when metrics recording is on (GECOS_METRICS=1, GECOS_TRACE, or
/// set_metrics_enabled). The relaxed load every count()/observe() site pays
/// when disabled.
inline bool metrics_enabled() {
  return detail::g_metrics.load(std::memory_order_relaxed);
}

/// Turns metrics recording on or off at runtime (bench --trace and the
/// telemetry_overhead entry toggle this; GECOS_METRICS sets the initial
/// state). Thread-safe; takes effect at each site's next enabled check.
void set_metrics_enabled(bool on);

/// Adds v to a counter. Disabled: one relaxed load + branch, no allocation.
/// Enabled: relaxed add into the calling thread's shard (first use on a
/// thread allocates that shard — the warmup).
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

/// Sets a gauge. Unconditional (gauges live on cold configuration paths:
/// set_num_threads, SIMD tier selection).
void gauge_set(Gauge g, std::int64_t v);

/// Monotonic nanosecond clock for duration instrumentation
/// (std::chrono::steady_clock since an arbitrary process-local epoch).
std::uint64_t now_ns();

/// Merged view of one histogram: bucket counts plus exact count/sum.
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

/// Point-in-time merge of every live thread shard plus the retired totals.
struct MetricsSnapshot {
  std::array<std::uint64_t, kNumCounters> counters{};  ///< by Counter index
  std::array<std::int64_t, kNumGauges> gauges{};       ///< by Gauge index
  std::array<HistogramSnapshot, kNumHists> hists{};    ///< by Hist index
  /// Convenience accessor by enum.
  std::uint64_t counter(Counter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
  /// Gauge accessor by enum.
  std::int64_t gauge(Gauge g) const {
    return gauges[static_cast<std::size_t>(g)];
  }
  /// Histogram accessor by enum.
  const HistogramSnapshot& hist(Hist h) const {
    return hists[static_cast<std::size_t>(h)];
  }
};

/// Merges retired totals and every live shard under the registry lock.
/// Increments issued before a pool-dispatch completion or a thread join are
/// visible; concurrent in-flight increments may or may not be included.
MetricsSnapshot metrics_snapshot();

/// Interval view: counters and histograms are after - before (saturating at
/// zero per field), gauges are taken from `after`. The bench harness wraps
/// each entry in a snapshot pair and reports the delta.
MetricsSnapshot metrics_delta(const MetricsSnapshot& before,
                              const MetricsSnapshot& after);

/// Bucket index for a value (= std::bit_width clamped to kHistBuckets - 1);
/// exposed for the histogram tests.
std::size_t hist_bucket(std::uint64_t v);

/// Inclusive upper bound of a bucket (2^b - 1; bucket 0 -> 0; the top
/// bucket is a catch-all with upper bound UINT64_MAX, since hist_bucket
/// clamps into it); the value percentile() reports for samples in bucket b.
std::uint64_t hist_bucket_upper(std::size_t b);

/// Strict GECOS_METRICS parser: "0" -> false, "1" -> true, anything else
/// throws std::invalid_argument naming the offending token. Exposed so the
/// tests can exercise the policy without re-execing.
bool parse_metrics_env(const char* text);

/// Expands every "%p" in a GECOS_TRACE path to the calling process's pid
/// (decimal). This is how concurrent processes — gecosd plus the clients it
/// serves, or a fork+exec test harness — share one GECOS_TRACE value
/// without racing on a single output file. A literal "%p" cannot be
/// escaped; no other placeholders exist.
std::string expand_trace_path(const std::string& path);

/// Applies GECOS_METRICS / GECOS_TRACE once per process (runs automatically
/// before main via a static registrar; later calls are no-ops). An invalid
/// value prints the offending token to stderr and exits with status 2 —
/// matching bench_main's unknown-flag policy. GECOS_TRACE=<path> enables
/// metrics + tracing and registers an atexit hook that writes the trace
/// JSON to <path>.
void init_from_env();

}  // namespace gecos::telemetry

#include "telemetry/telemetry.hpp"

#include <unistd.h>

#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "telemetry/trace.hpp"

namespace gecos::telemetry {

namespace {

struct HistCells {
  std::array<std::atomic<std::uint64_t>, kHistBuckets> buckets{};
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> sum{0};
};

// The process-wide metrics table. Zero-initialized at compile time, so it
// exists before any static constructor runs and outlives every thread
// (pool workers included); the atomics are trivially destructible, so
// nothing is torn down at exit.
constinit std::array<std::atomic<std::uint64_t>, kNumCounters> g_counters{};
constinit std::array<HistCells, kNumHists> g_hists{};

// Static registrar: env plumbing runs before main in every binary linking
// the library, so GECOS_TRACE works without code changes.
struct EnvInit {
  EnvInit() { init_from_env(); }
};
const EnvInit env_init_registrar;

std::string& env_trace_path() {
  static std::string path;  // constructed before the atexit registration
  return path;
}

void write_env_trace_at_exit() {
  const std::string& path = env_trace_path();
  TraceWriter w;
  if (w.write_file(path)) {
    std::fprintf(stderr, "gecos: trace written to %s (%zu events)\n",
                 path.c_str(), trace_events().size());
  } else {
    std::fprintf(stderr, "gecos: failed to write GECOS_TRACE file %s\n",
                 path.c_str());
  }
}

}  // namespace

namespace detail {

void counter_add_enabled(Counter c, std::uint64_t v) {
  g_counters[static_cast<std::size_t>(c)].fetch_add(v,
                                                     std::memory_order_relaxed);
}

void observe_enabled(Hist h, std::uint64_t value) {
  HistCells& hc = g_hists[static_cast<std::size_t>(h)];
  hc.buckets[hist_bucket(value)].fetch_add(1, std::memory_order_relaxed);
  hc.count.fetch_add(1, std::memory_order_relaxed);
  hc.sum.fetch_add(value, std::memory_order_relaxed);
}

}  // namespace detail

void set_metrics_enabled(bool on) {
  detail::g_metrics.store(on, std::memory_order_relaxed);
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double HistogramSnapshot::percentile(double p) const {
  if (count == 0) return 0.0;
  if (p < 0.0) p = 0.0;
  if (p > 100.0) p = 100.0;
  const double rank = p / 100.0 * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kHistBuckets; ++b) {
    seen += buckets[b];
    if (static_cast<double>(seen) >= rank && seen > 0)
      return static_cast<double>(hist_bucket_upper(b));
  }
  return static_cast<double>(hist_bucket_upper(kHistBuckets - 1));
}

double HistogramSnapshot::mean() const {
  return count == 0
             ? 0.0
             : static_cast<double>(sum) / static_cast<double>(count);
}

MetricsSnapshot metrics_snapshot() {
  MetricsSnapshot out;
  for (std::size_t i = 0; i < kNumCounters; ++i)
    out.counters[i] = g_counters[i].load(std::memory_order_relaxed);
  for (std::size_t h = 0; h < kNumHists; ++h) {
    for (std::size_t b = 0; b < kHistBuckets; ++b)
      out.hists[h].buckets[b] =
          g_hists[h].buckets[b].load(std::memory_order_relaxed);
    out.hists[h].count = g_hists[h].count.load(std::memory_order_relaxed);
    out.hists[h].sum = g_hists[h].sum.load(std::memory_order_relaxed);
  }
  return out;
}

MetricsSnapshot metrics_delta(const MetricsSnapshot& before,
                              const MetricsSnapshot& after) {
  auto sub = [](std::uint64_t a, std::uint64_t b) {
    return a >= b ? a - b : std::uint64_t{0};
  };
  MetricsSnapshot d;
  for (std::size_t i = 0; i < kNumCounters; ++i)
    d.counters[i] = sub(after.counters[i], before.counters[i]);
  for (std::size_t h = 0; h < kNumHists; ++h) {
    for (std::size_t b = 0; b < kHistBuckets; ++b)
      d.hists[h].buckets[b] =
          sub(after.hists[h].buckets[b], before.hists[h].buckets[b]);
    d.hists[h].count = sub(after.hists[h].count, before.hists[h].count);
    d.hists[h].sum = sub(after.hists[h].sum, before.hists[h].sum);
  }
  return d;
}

std::size_t hist_bucket(std::uint64_t v) {
  const std::size_t b = static_cast<std::size_t>(std::bit_width(v));
  return b < kHistBuckets ? b : kHistBuckets - 1;
}

std::uint64_t hist_bucket_upper(std::size_t b) {
  if (b == 0) return 0;
  // The top bucket is a catch-all: hist_bucket clamps bit_width 64 into
  // bucket kHistBuckets - 1, so its upper bound must cover UINT64_MAX.
  if (b >= kHistBuckets - 1) return ~std::uint64_t{0};
  return (std::uint64_t{1} << b) - 1;
}

std::string expand_trace_path(const std::string& path) {
  std::string out;
  out.reserve(path.size());
  const std::string pid = std::to_string(static_cast<long>(::getpid()));
  std::size_t i = 0;
  while (i < path.size()) {
    if (path[i] == '%' && i + 1 < path.size() && path[i + 1] == 'p') {
      out += pid;
      i += 2;
    } else {
      out += path[i];
      ++i;
    }
  }
  return out;
}

void init_from_env() {
  static bool done = false;
  if (done) return;
  done = true;
  if (const char* env = std::getenv("GECOS_TRACE")) {
    if (env[0] == '\0') {
      std::fprintf(stderr,
                   "gecos: GECOS_TRACE='': expected a file path\n");
      std::exit(2);
    }
    env_trace_path() = expand_trace_path(env);
    set_metrics_enabled(true);
    set_tracing_enabled(true);
    std::atexit(&write_env_trace_at_exit);
  }
}

}  // namespace gecos::telemetry

#include "telemetry/telemetry.hpp"

#include <unistd.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "telemetry/trace.hpp"

namespace gecos::telemetry {

namespace {

// One thread's accumulation slab. Members are relaxed atomics only so a
// concurrent snapshot read is not a data race; the owning thread is the
// only writer, so the adds never contend.
struct HistShard {
  std::array<std::atomic<std::uint64_t>, kHistBuckets> buckets{};
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> sum{0};
};

struct Shard {
  std::array<std::atomic<std::uint64_t>, kNumCounters> counters{};
  std::array<HistShard, kNumHists> hists{};
};

// Plain (non-atomic) accumulation target for retired shards; only touched
// under the registry mutex.
struct Totals {
  std::array<std::uint64_t, kNumCounters> counters{};
  std::array<HistogramSnapshot, kNumHists> hists{};
};

void merge_shard_into(const Shard& s, Totals& t) {
  for (std::size_t i = 0; i < kNumCounters; ++i)
    t.counters[i] += s.counters[i].load(std::memory_order_relaxed);
  for (std::size_t h = 0; h < kNumHists; ++h) {
    const HistShard& hs = s.hists[h];
    HistogramSnapshot& out = t.hists[h];
    for (std::size_t b = 0; b < kHistBuckets; ++b)
      out.buckets[b] += hs.buckets[b].load(std::memory_order_relaxed);
    out.count += hs.count.load(std::memory_order_relaxed);
    out.sum += hs.sum.load(std::memory_order_relaxed);
  }
}

// Shard registry. Deliberately leaked (never destroyed): pool-worker TLS
// destructors retire shards when the pool joins its threads during static
// destruction, which may run after any registry with static storage
// duration would already be gone.
class Registry {
 public:
  static Registry& instance() {
    static Registry* r = new Registry;  // leaked, see class comment
    return *r;
  }

  Shard* acquire() {
    auto s = std::make_unique<Shard>();
    Shard* raw = s.get();
    std::scoped_lock<std::mutex> lk(m_);
    live_.push_back(std::move(s));
    return raw;
  }

  void release(Shard* s) {
    std::scoped_lock<std::mutex> lk(m_);
    for (std::size_t i = 0; i < live_.size(); ++i) {
      if (live_[i].get() == s) {
        merge_shard_into(*s, retired_);
        live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(i));
        return;
      }
    }
  }

  MetricsSnapshot snapshot() {
    std::scoped_lock<std::mutex> lk(m_);
    Totals t = retired_;
    for (const auto& s : live_) merge_shard_into(*s, t);
    MetricsSnapshot out;
    out.counters = t.counters;
    out.hists = t.hists;
    for (std::size_t g = 0; g < kNumGauges; ++g)
      out.gauges[g] = gauges_[g].load(std::memory_order_relaxed);
    return out;
  }

  void gauge_store(Gauge g, std::int64_t v) {
    gauges_[static_cast<std::size_t>(g)].store(v, std::memory_order_relaxed);
  }

 private:
  Registry() = default;
  std::mutex m_;
  std::vector<std::unique_ptr<Shard>> live_;
  Totals retired_;
  std::array<std::atomic<std::int64_t>, kNumGauges> gauges_{};
};

// TLS handle: lazily acquires a shard on first enabled increment, retires
// it into the registry totals when the thread exits.
struct ShardHandle {
  Shard* shard = nullptr;
  Shard& get() {
    if (shard == nullptr) shard = Registry::instance().acquire();
    return *shard;
  }
  ~ShardHandle() {
    if (shard != nullptr) Registry::instance().release(shard);
  }
};

thread_local ShardHandle tls_shard;

// Static registrar: env plumbing runs before main in every binary linking
// the library, so GECOS_METRICS / GECOS_TRACE work without code changes.
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

const char* counter_name(Counter c) {
  switch (c) {
    case Counter::matvecs:
      return "matvecs";
    case Counter::kernel_sweeps:
      return "kernel_sweeps";
    case Counter::amplitudes_touched:
      return "amplitudes_touched";
    case Counter::bytes_moved:
      return "bytes_moved";
    case Counter::checkpoint_writes:
      return "checkpoint_writes";
    case Counter::checkpoint_restores:
      return "checkpoint_restores";
    case Counter::checkpoint_bytes:
      return "checkpoint_bytes";
    case Counter::pool_dispatches:
      return "pool_dispatches";
    case Counter::pool_chunks:
      return "pool_chunks";
    case Counter::spans_dropped:
      return "spans_dropped";
    case Counter::kernel_compiles:
      return "kernel_compiles";
    case Counter::jobs_submitted:
      return "jobs_submitted";
    case Counter::jobs_completed:
      return "jobs_completed";
    case Counter::observables_batched:
      return "observables_batched";
    case Counter::kCount:
      break;
  }
  return "unknown";
}

const char* gauge_name(Gauge g) {
  switch (g) {
    case Gauge::simd_tier:
      return "simd_tier";
    case Gauge::threads:
      return "threads";
    case Gauge::kCount:
      break;
  }
  return "unknown";
}

const char* hist_name(Hist h) {
  switch (h) {
    case Hist::matvec_ns:
      return "matvec_ns";
    case Hist::pool_task_ns:
      return "pool_task_ns";
    case Hist::pool_idle_ns:
      return "pool_idle_ns";
    case Hist::checkpoint_write_ns:
      return "checkpoint_write_ns";
    case Hist::kCount:
      break;
  }
  return "unknown";
}

namespace detail {

void counter_add_enabled(Counter c, std::uint64_t v) {
  tls_shard.get().counters[static_cast<std::size_t>(c)].fetch_add(
      v, std::memory_order_relaxed);
}

void observe_enabled(Hist h, std::uint64_t value) {
  HistShard& hs = tls_shard.get().hists[static_cast<std::size_t>(h)];
  hs.buckets[hist_bucket(value)].fetch_add(1, std::memory_order_relaxed);
  hs.count.fetch_add(1, std::memory_order_relaxed);
  hs.sum.fetch_add(value, std::memory_order_relaxed);
}

}  // namespace detail

void set_metrics_enabled(bool on) {
  detail::g_metrics.store(on, std::memory_order_relaxed);
}

void gauge_set(Gauge g, std::int64_t v) {
  Registry::instance().gauge_store(g, v);
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

MetricsSnapshot metrics_snapshot() { return Registry::instance().snapshot(); }

MetricsSnapshot metrics_delta(const MetricsSnapshot& before,
                              const MetricsSnapshot& after) {
  auto sub = [](std::uint64_t a, std::uint64_t b) {
    return a >= b ? a - b : std::uint64_t{0};
  };
  MetricsSnapshot d;
  for (std::size_t i = 0; i < kNumCounters; ++i)
    d.counters[i] = sub(after.counters[i], before.counters[i]);
  d.gauges = after.gauges;
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

bool parse_metrics_env(const char* text) {
  const std::string s(text == nullptr ? "" : text);
  if (s == "0") return false;
  if (s == "1") return true;
  throw std::invalid_argument("GECOS_METRICS='" + s +
                              "': expected 0 or 1");
}

void init_from_env() {
  static bool done = false;
  if (done) return;
  done = true;
  if (const char* env = std::getenv("GECOS_METRICS")) {
    try {
      set_metrics_enabled(parse_metrics_env(env));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "gecos: %s\n", e.what());
      std::exit(2);
    }
  }
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

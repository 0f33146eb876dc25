#include "telemetry/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <ostream>

#include "telemetry/telemetry.hpp"

namespace gecos::telemetry {

namespace {

// The process-wide span ring: kSpanRingCapacity events under one mutex.
// The buffer is allocated at the first recorded span and never freed: the
// GECOS_TRACE writer reads it from an atexit hook registered before main,
// which runs after the destructors of anything constructed later. Slot
// total % capacity is the next write; once total exceeds the capacity,
// the oldest events are overwritten.
std::mutex g_ring_m;
TraceEvent* g_ring = nullptr;    // guarded by g_ring_m
std::uint64_t g_ring_total = 0;  // events recorded since the last clear

std::uint64_t dropped_locked() {
  return g_ring_total > kSpanRingCapacity ? g_ring_total - kSpanRingCapacity
                                          : 0;
}

// One trace track per thread: ids are handed out at a thread's first span.
std::atomic<std::uint32_t> g_next_tid{1};
thread_local std::uint32_t tls_tid = 0;
thread_local std::uint32_t tls_depth = 0;

// Trace epoch: fixed at the first enable so timestamps are small positive
// microsecond offsets in the viewer.
std::atomic<std::uint64_t> g_epoch_ns{0};

std::uint64_t trace_now_ns() {
  return now_ns() - g_epoch_ns.load(std::memory_order_relaxed);
}

}  // namespace

void set_tracing_enabled(bool on) {
  if (on) {
    std::uint64_t expected = 0;
    g_epoch_ns.compare_exchange_strong(expected, now_ns(),
                                       std::memory_order_relaxed);
  }
  detail::g_tracing.store(on, std::memory_order_relaxed);
}

void ScopedSpan::start(const char* name) {
  name_ = name;
  depth_ = tls_depth++;
  t0_ = trace_now_ns();
  active_ = true;
}

void ScopedSpan::finish() {
  const std::uint64_t t1 = trace_now_ns();
  --tls_depth;
  if (tls_tid == 0)
    tls_tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  TraceEvent ev;
  ev.name = name_;
  ev.tid = tls_tid;
  ev.depth = depth_;
  ev.ts_ns = t0_;
  ev.dur_ns = t1 >= t0_ ? t1 - t0_ : 0;
  std::scoped_lock<std::mutex> lk(g_ring_m);
  if (g_ring == nullptr) g_ring = new TraceEvent[kSpanRingCapacity];
  g_ring[g_ring_total++ % kSpanRingCapacity] = ev;
}

std::vector<TraceEvent> trace_events() {
  std::vector<TraceEvent> out;
  {
    std::scoped_lock<std::mutex> lk(g_ring_m);
    // Oldest surviving event first.
    for (std::uint64_t i = dropped_locked(); i < g_ring_total; ++i)
      out.push_back(g_ring[i % kSpanRingCapacity]);
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
              return a.dur_ns > b.dur_ns;  // parents before children
            });
  return out;
}

std::uint64_t trace_dropped_events() {
  std::scoped_lock<std::mutex> lk(g_ring_m);
  return dropped_locked();
}

void trace_clear() {
  std::scoped_lock<std::mutex> lk(g_ring_m);
  g_ring_total = 0;
}

void TraceWriter::write(std::ostream& os) const {
  const std::vector<TraceEvent> events = trace_events();
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  os << "{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": "
        "\"process_name\", \"args\": {\"name\": \"gecos\"}}";
  std::uint32_t named_tid = 0;
  for (const TraceEvent& ev : events) {
    if (ev.tid != named_tid) {
      named_tid = ev.tid;
      os << ",\n{\"ph\": \"M\", \"pid\": 1, \"tid\": " << ev.tid
         << ", \"name\": \"thread_name\", \"args\": {\"name\": \"gecos-"
         << ev.tid << "\"}}";
    }
    // ts/dur in microseconds (the trace-event unit), 3 decimals = ns.
    const double ts_us = static_cast<double>(ev.ts_ns) / 1000.0;
    const double dur_us = static_cast<double>(ev.dur_ns) / 1000.0;
    char num[64];
    os << ",\n{\"name\": \"" << ev.name
       << "\", \"cat\": \"gecos\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
       << ev.tid << ", \"ts\": ";
    std::snprintf(num, sizeof num, "%.3f", ts_us);
    os << num << ", \"dur\": ";
    std::snprintf(num, sizeof num, "%.3f", dur_us);
    os << num << ", \"args\": {\"depth\": " << ev.depth << "}}";
  }
  os << "\n]}\n";
}

bool TraceWriter::write_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  write(os);
  os.flush();
  return static_cast<bool>(os);
}

}  // namespace gecos::telemetry

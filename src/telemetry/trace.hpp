// Scoped wall-time spans and the chrome://tracing / Perfetto exporter.
//
// GECOS_SPAN("lanczos.restart") drops a ScopedSpan on the stack: when
// tracing is DISABLED the constructor is one relaxed atomic load and the
// destructor a predicted dead branch — safe to leave in matvec-grained hot
// paths. When ENABLED, construction captures a steady-clock timestamp and
// destruction records a completed event (name, thread, nesting depth,
// start, duration) into the process-wide span ring.
//
// The ring is one fixed-capacity circular buffer of kSpanRingCapacity
// events under one mutex, allocated at the first recorded span — never on
// the disabled path. When full, the oldest events are overwritten and
// trace_dropped_events() counts them. Each thread takes a trace id at its
// first span, so every thread keeps its own track; nesting depth is
// tracked with a thread-local counter so tests and the trace_report.py
// self-time digest can attribute parent/child without re-deriving
// containment.
//
// TraceWriter serializes the ring as trace-event JSON — "X" complete
// events with microsecond timestamps — loadable by chrome://tracing and
// https://ui.perfetto.dev, and validated by tools/trace_report.py. Span
// names must be string literals (they are stored by pointer and emitted
// unescaped).
//
// GECOS_TRACE=<path> turns tracing on at process start and writes <path>
// at exit. See DESIGN.md "Telemetry & tracing".
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace gecos::telemetry {

namespace detail {

/// The one global tracing switch (relaxed load on every span site).
inline std::atomic<bool> g_tracing{false};

}  // namespace detail

/// True when span recording is on (GECOS_TRACE or set_tracing_enabled).
inline bool tracing_enabled() {
  return detail::g_tracing.load(std::memory_order_relaxed);
}

/// Turns span recording on or off. The first enable fixes the trace epoch
/// (timestamp zero). Spans already open when the state flips record
/// normally on close.
void set_tracing_enabled(bool on);

/// Span ring capacity in events (32 B each), shared by every thread. The
/// ring is allocated at the first recorded span; when full it overwrites
/// its oldest events.
inline constexpr std::size_t kSpanRingCapacity = std::size_t{1} << 15;

/// One completed span as exported: name/thread/depth plus start and
/// duration in nanoseconds relative to the trace epoch.
struct TraceEvent {
  const char* name = "";     ///< static string literal passed to GECOS_SPAN
  std::uint32_t tid = 0;     ///< per-thread id, in order of first span
  std::uint32_t depth = 0;   ///< nesting depth at open (0 = outermost)
  std::uint64_t ts_ns = 0;   ///< start, ns since the trace epoch
  std::uint64_t dur_ns = 0;  ///< wall duration in ns
};

/// RAII span: prefer the GECOS_SPAN macro. The name argument must be a
/// string literal (stored by pointer, emitted unescaped).
class ScopedSpan {
 public:
  /// Captures the start timestamp when tracing is enabled; otherwise one
  /// relaxed load.
  explicit ScopedSpan(const char* name) {
    if (tracing_enabled()) [[unlikely]]
      start(name);
  }
  /// Records the completed event into the span ring if the span was
  /// opened with tracing enabled.
  ~ScopedSpan() {
    if (active_) [[unlikely]]
      finish();
  }
  /// Non-copyable: a span is a unique open/close pair on one stack frame.
  ScopedSpan(const ScopedSpan&) = delete;
  /// Non-assignable, same reason.
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void start(const char* name);  // out-of-line enabled path
  void finish();                 // out-of-line enabled path
  const char* name_ = nullptr;
  std::uint64_t t0_ = 0;
  std::uint32_t depth_ = 0;
  bool active_ = false;
};

/// Snapshot of the events in the ring, sorted by (tid, ts). Events still
/// open are not included.
std::vector<TraceEvent> trace_events();

/// Number of events overwritten in the full ring since the last
/// trace_clear().
std::uint64_t trace_dropped_events();

/// Empties the ring and zeroes the dropped-event count; the epoch and the
/// thread ids are kept.
void trace_clear();

/// Serializer for the trace-event JSON format.
class TraceWriter {
 public:
  /// Writes {"traceEvents": [...]} — process/thread metadata plus one "X"
  /// complete event per recorded span, timestamps in microseconds.
  void write(std::ostream& os) const;
  /// write() to a file; returns false (and leaves a partial file) on I/O
  /// failure.
  bool write_file(const std::string& path) const;
};

}  // namespace gecos::telemetry

// Helper macros for a unique local name per GECOS_SPAN line.
#define GECOS_SPAN_CONCAT_INNER(a, b) a##b
/// Two-level expansion so __LINE__ is substituted before pasting.
#define GECOS_SPAN_CONCAT(a, b) GECOS_SPAN_CONCAT_INNER(a, b)
/// Opens a scoped trace span covering the rest of the enclosing block.
/// `name` must be a string literal, conventionally "subsystem.operation".
#define GECOS_SPAN(name)                                             \
  ::gecos::telemetry::ScopedSpan GECOS_SPAN_CONCAT(gecos_span_at_, \
                                                   __LINE__) {       \
    name                                                             \
  }

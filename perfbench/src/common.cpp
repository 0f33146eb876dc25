#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "simd/simd.hpp"
#include "util/parallel.hpp"

namespace perfbench {

// -- spans --------------------------------------------------------------------

namespace {

struct Event {
  const char* name;
  std::uint32_t tid;
  std::uint64_t t0, t1, id;
};

struct TraceStore {
  std::atomic<bool> on{false};
  std::mutex mutex;
  std::vector<Event> events;
  std::uint64_t epoch = 0;
};

TraceStore& store() {
  static TraceStore s;
  return s;
}

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

}  // namespace

void Trace::enable() {
  TraceStore& s = store();
  std::lock_guard<std::mutex> lk(s.mutex);
  if (s.on.load()) return;
  s.events.reserve(std::size_t{1} << 16);
  s.epoch = now_ns();
  s.on.store(true);
}

bool Trace::on() { return store().on.load(std::memory_order_relaxed); }

void Trace::record(const char* name, std::uint64_t t0, std::uint64_t t1,
                   std::uint64_t id, std::uint32_t track) {
  TraceStore& s = store();
  const std::uint32_t tid = track != 0 ? track : thread_index();
  std::lock_guard<std::mutex> lk(s.mutex);
  s.events.push_back({name, tid, t0, t1, id});
}

bool Trace::write(const std::string& path) {
  TraceStore& s = store();
  std::lock_guard<std::mutex> lk(s.mutex);
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"traceEvents\": [\n"
    << "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 1, \"tid\": 0, "
       "\"args\": {\"name\": \"gecos_perfbench\"}}";
  char buf[256];
  for (const Event& e : s.events) {
    const std::uint64_t t0 = e.t0 >= s.epoch ? e.t0 - s.epoch : 0;
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"ph\": \"X\", \"name\": \"%s\", \"pid\": 1, "
                  "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"id\": %llu}}",
                  e.name, e.tid, static_cast<double>(t0) * 1e-3,
                  static_cast<double>(e.t1 - e.t0) * 1e-3,
                  static_cast<unsigned long long>(e.id));
    f << buf;
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

double Span::stop() {
  if (stopped_) return seconds_;
  const std::uint64_t t1 = now_ns();
  stopped_ = true;
  seconds_ = span_s(t0_, t1);
  if (Trace::on()) Trace::record(name_, t0_, t1, id_);
  return seconds_;
}

void TimedOperator::apply_add(std::span<const gecos::cplx> x,
                              std::span<gecos::cplx> y,
                              gecos::cplx scale) const {
  const std::uint64_t t0 = now_ns();
  inner_.apply_add(x, y, scale);
  const std::uint64_t t1 = now_ns();
  ++calls_;
  busy_ns_ += t1 - t0;
  if (Trace::on()) Trace::record(name_, t0, t1);
}

// -- statistics ---------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

// 1-based nearest rank of the p-th percentile among n samples.
std::size_t nearest_rank(std::size_t n, double p) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                 1, n);
}

}  // namespace

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[nearest_rank(v.size(), p) - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

double tail_percentile(std::size_t n) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0})
    if (samples_beyond(n, p) >= 10) return p;
  return 0.0;
}

double total(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

// -- metrics ------------------------------------------------------------------

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"solve_s", "s"},
      {"steps_per_s", "1/s"},
      {"jobs_per_s", "1/s"},
      {"job_latency_p50_s", "s"},
      {"job_latency_p90_s", "s"},
      {"peak_rss_mb", "MiB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"ops.apply_s", "s"},
      {"ops.apply_ms", "ms"},
      {"ops.matvecs", "count"},
      {"ops.modelled_gbs", "GB/s"},
      {"solver.self_s", "s"},
      {"solver.iterations", "count"},
      {"solver.restarts", "count"},
      {"symmetry.apply_s", "s"},
      {"symmetry.apply_ms", "ms"},
      {"symmetry.matvecs_per_step", "count"},
      {"symmetry.compile_ms", "ms"},
      {"symmetry.modelled_gbs", "GB/s"},
      {"evolve.step_ms", "ms"},
      {"evolve.compile_ms", "ms"},
      {"evolve.modelled_gbs", "GB/s"},
      {"host.triad_gbs", "GB/s"},
      {"host.triad_basis_gbs", "GB/s"},
      {"serve.queue_wait_s", "s"},
      {"serve.run_s", "s"},
      {"serve.executor_busy_frac", "ratio"},
      {"serve.submit_rpc_ms", "ms"},
      {"serve.status_rpc_ms", "ms"},
      {"serve.fetch_rpc_ms", "ms"},
      {"serve.status_rpcs_per_job", "count"},
      {"serve.rpc_errors", "count"},
      {"serve.batched_frac", "ratio"},
      {"serve.batch_passes", "count"},
      {"serve.cache_hit_frac", "ratio"},
      {"serve.cache_evictions", "count"},
      {"serve.daemon_peak_rss_mb", "MiB"},
      {"serve.latency_samples", "count"},
      {"serve.repeat_sector_frac", "ratio"},
      {"serve.shared_evolution_frac", "ratio"},
      {"io.journal_write_ms", "ms"},
      {"io.checkpoint_write_ms", "ms"},
      {"util.pool_utilization", "ratio"},
      {"proc.cpu_s", "s"},
      {"proc.minor_faults", "count"},
      {"proc.ctx_switches", "count"},
      {"trace.overhead_frac", "ratio"},
      {"failed_frac", "ratio"},
  };
  return defs;
}

void Values::set(const std::string& name, double value) {
  const auto known = [&](const std::vector<MetricDef>& defs) {
    return std::any_of(defs.begin(), defs.end(),
                       [&](const MetricDef& d) { return name == d.name; });
  };
  if (!known(end_to_end_metrics()) && !known(per_layer_metrics()))
    throw std::logic_error("perfbench: unknown metric " + name);
  v_[name] = value;
}

double Values::get(const std::string& name) const {
  const auto it = v_.find(name);
  return it == v_.end() ? 0.0 : it->second;
}

// -- host and process context -------------------------------------------------

ProcCounters self_counters() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcCounters c;
  c.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
  c.minor_faults = static_cast<double>(ru.ru_minflt);
  c.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  c.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return c;
}

namespace {

// Value of a "Key:   N ..." line of a /proc status file (0 when absent).
double status_field(const std::string& path, const std::string& key) {
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line)) {
    if (line.compare(0, key.size(), key) == 0 && line.size() > key.size() &&
        line[key.size()] == ':')
      return std::strtod(line.c_str() + key.size() + 1, nullptr);
  }
  return 0.0;
}

}  // namespace

ProcCounters pid_counters(pid_t pid) {
  ProcCounters c;
  const std::string base = "/proc/" + std::to_string(pid);
  std::ifstream stat(base + "/stat");
  std::string text((std::istreambuf_iterator<char>(stat)),
                   std::istreambuf_iterator<char>());
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return c;
  std::istringstream rest(text.substr(close + 1));
  std::vector<std::string> f;  // f[0] is field 3 (state) of proc(5)
  for (std::string tok; rest >> tok;) f.push_back(tok);
  if (f.size() < 13) return c;
  const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
  c.minor_faults = std::strtod(f[7].c_str(), nullptr);
  c.cpu_s = (std::strtod(f[11].c_str(), nullptr) +
             std::strtod(f[12].c_str(), nullptr)) /
            tick;
  c.peak_rss_mb = status_field(base + "/status", "VmHWM") / 1024.0;
  // Context switches are per thread in /proc; sum over the live threads.
  std::error_code ec;
  for (const auto& t :
       std::filesystem::directory_iterator(base + "/task", ec)) {
    const std::string s = t.path().string() + "/status";
    c.ctx_switches += status_field(s, "voluntary_ctxt_switches") +
                      status_field(s, "nonvoluntary_ctxt_switches");
  }
  return c;
}

ProcCounters counters_delta(const ProcCounters& before,
                            const ProcCounters& after) {
  ProcCounters d;
  d.cpu_s = after.cpu_s - before.cpu_s;
  d.minor_faults = after.minor_faults - before.minor_faults;
  d.ctx_switches = after.ctx_switches - before.ctx_switches;
  d.peak_rss_mb = after.peak_rss_mb;
  return d;
}

namespace {

std::string read_line(const std::string& path) {
  std::ifstream f(path);
  std::string s;
  std::getline(f, s);
  return s;
}

// "48K" / "2048K" / "32M" -> KiB.
long size_kib(const std::string& s) {
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (end != nullptr && (*end == 'M' || *end == 'm')) return v * 1024;
  return v;
}

}  // namespace

std::string context_json() {
  long l1d = 0, l2 = 0, l3 = 0;
  const std::string cache = "/sys/devices/system/cpu/cpu0/cache/index";
  for (int i = 0; i < 8; ++i) {
    const std::string dir = cache + std::to_string(i);
    const std::string level = read_line(dir + "/level");
    if (level.empty()) break;
    const std::string type = read_line(dir + "/type");
    const long kib = size_kib(read_line(dir + "/size"));
    if (level == "1" && type == "Data") l1d = kib;
    if (level == "2") l2 = kib;
    if (level == "3") l3 = kib;
  }
  const double ram_mib = status_field("/proc/meminfo", "MemTotal") / 1024.0;
  std::ostringstream o;
  o << "{\"nproc\": " << std::thread::hardware_concurrency()
    << ", \"pool_threads\": " << gecos::num_threads()
    << ", \"simd_tier\": \"" << gecos::simd_tier_name(gecos::simd_tier())
    << "\", \"l1d_kib\": " << l1d << ", \"l2_kib\": " << l2
    << ", \"l3_kib\": " << l3 << ", \"ram_mib\": " << std::llround(ram_mib)
    << ", \"compiler\": \"gcc " << __VERSION__ << "\", \"build_type\": \""
    << PERFBENCH_BUILD_TYPE << "\", \"flags\": \"" << PERFBENCH_CXX_FLAGS
    << "\"}";
  return o.str();
}

std::pair<double, double> host_steal_ticks() {
  std::istringstream line(read_line("/proc/stat"));
  std::string cpu;
  line >> cpu;
  double all = 0.0, steal = 0.0;
  // user nice system idle iowait irq softirq steal guest guest_nice; the
  // guest fields are already inside user and nice.
  for (int field = 0; field < 8; ++field) {
    double v = 0.0;
    if (!(line >> v)) return {0.0, 0.0};
    all += v;
    if (field == 7) steal = v;
  }
  return {steal, all};
}

double triad_gbs(std::size_t bytes_per_array) {
  const std::size_t n = std::max<std::size_t>(bytes_per_array / 8, 1);
  std::vector<double> a(n), b(n), c(n);
  gecos::parallel_for(n, [&](std::size_t lo, std::size_t hi, int) {
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0 + static_cast<double>(i % 7);
      c[i] = 2.0 - static_cast<double>(i % 5);
    }
  });
  const double s = 0.5;
  double best = 0.0;
  const std::uint64_t start = now_ns();
  for (int rep = 0; rep < 100000; ++rep) {
    const std::uint64_t t0 = now_ns();
    gecos::parallel_for(n, [&](std::size_t lo, std::size_t hi, int) {
      for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + s * c[i];
    });
    const std::uint64_t t1 = now_ns();
    best = std::max(best, 24.0 * static_cast<double>(n) /
                              static_cast<double>(t1 - t0));
    if (rep >= 5 && span_s(start, t1) > 0.3) break;
  }
  volatile double sink = a[n / 2];  // keep the sweeps observable
  (void)sink;
  return best;  // bytes per ns == GB/s
}

}  // namespace perfbench

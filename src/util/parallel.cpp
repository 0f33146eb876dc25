#include "util/parallel.hpp"

#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/telemetry.hpp"
#include "util/parse.hpp"

namespace gecos {

namespace {

// Workers run chunks; anything launched from inside a chunk body degrades to
// the serial path (no nested pools).
thread_local bool tls_in_worker = false;

int initial_threads() {
  if (const char* env = std::getenv("GECOS_THREADS"))
    return parse_threads_env(env);
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

int& threads_setting() {
  static int setting = initial_threads();
  return setting;
}

// Persistent grow-only worker pool. run() dispatches chunks 1..chunks-1 to
// workers (chunk 0 runs on the caller) and blocks until all chunks finish.
// Shrinking the thread knob only shrinks participation; idle workers park in
// the condition-variable wait. One run at a time: parallel_for is the only
// caller and nested calls short-circuit to serial.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  void run(std::size_t n, int chunks, detail::RawBody fn, void* ctx) {
    // Serialize whole dispatches: two application threads issuing
    // parallel_for concurrently must not interleave their chunk state (the
    // second would overwrite fn_/pending_ and the first caller's chunks
    // would silently never run). Uncontended cost is one lock per call.
    std::scoped_lock<std::mutex> run_lk(run_m_);
    {
      std::unique_lock<std::mutex> lk(m_);
      ensure_workers(chunks - 1);
      fn_ = fn;
      ctx_ = ctx;
      n_ = n;
      chunks_ = chunks;
      pending_ = chunks - 1;
      ++generation_;
    }
    work_cv_.notify_all();
    const bool metrics = telemetry::metrics_enabled();
    if (metrics) {
      telemetry::count(telemetry::Counter::pool_dispatches);
      const std::uint64_t t0 = telemetry::now_ns();
      run_chunk(n, fn, ctx, chunks, 0);
      telemetry::observe(telemetry::Hist::pool_task_ns,
                         telemetry::now_ns() - t0);
    } else {
      run_chunk(n, fn, ctx, chunks, 0);
    }
    std::unique_lock<std::mutex> lk(m_);
    done_cv_.wait(lk, [&] { return pending_ == 0; });
    fn_ = nullptr;
    ctx_ = nullptr;
  }

  static void run_chunk(std::size_t n, detail::RawBody fn, void* ctx,
                        int chunks, int c) {
    const std::size_t begin = n * static_cast<std::size_t>(c) /
                              static_cast<std::size_t>(chunks);
    const std::size_t end = n * (static_cast<std::size_t>(c) + 1) /
                            static_cast<std::size_t>(chunks);
    if (begin < end) fn(ctx, begin, end, c);
  }

 private:
  Pool() = default;

  ~Pool() {
    {
      std::unique_lock<std::mutex> lk(m_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  void ensure_workers(int want) {  // caller holds m_
    while (static_cast<int>(workers_.size()) < want) {
      const int w = static_cast<int>(workers_.size());
      workers_.emplace_back([this, w] { worker_loop(w); });
    }
  }

  void worker_loop(int w) {
    tls_in_worker = true;
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(m_);
    while (true) {
      // Idle attribution: the wait below is exactly the worker's
      // between-dispatch park time. One enabled check per dispatch, not per
      // chunk iteration, so the disabled pool path is unchanged.
      const bool metrics = telemetry::metrics_enabled();
      const std::uint64_t idle_t0 = metrics ? telemetry::now_ns() : 0;
      work_cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (metrics)
        telemetry::observe(telemetry::Hist::pool_idle_ns,
                           telemetry::now_ns() - idle_t0);
      if (stop_) return;
      seen = generation_;
      if (w < chunks_ - 1) {
        const detail::RawBody fn = fn_;
        void* const ctx = ctx_;
        const std::size_t n = n_;
        const int chunks = chunks_;
        lk.unlock();
        if (telemetry::metrics_enabled()) {
          const std::uint64_t t0 = telemetry::now_ns();
          run_chunk(n, fn, ctx, chunks, w + 1);
          telemetry::observe(telemetry::Hist::pool_task_ns,
                             telemetry::now_ns() - t0);
        } else {
          run_chunk(n, fn, ctx, chunks, w + 1);
        }
        lk.lock();
        if (--pending_ == 0) done_cv_.notify_one();
      }
    }
  }

  std::mutex run_m_;  // held for a whole run(): one dispatch at a time
  std::mutex m_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  detail::RawBody fn_ = nullptr;
  void* ctx_ = nullptr;
  std::size_t n_ = 0;
  int chunks_ = 0;
  int pending_ = 0;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

}  // namespace

int parse_threads_env(const char* text) {
  const std::optional<std::uint64_t> v = parse_uint(text, 1, 1024);
  if (!v)
    throw std::invalid_argument("GECOS_THREADS='" +
                                std::string(text == nullptr ? "" : text) +
                                "': expected an integer in [1, 1024]");
  return static_cast<int>(*v);
}

int num_threads() { return threads_setting(); }

void set_num_threads(int k) {
  threads_setting() = k < 1 ? 1 : k;
}

namespace detail {

void pool_run(std::size_t n, int chunks, RawBody fn, void* ctx) {
  Pool::instance().run(n, chunks, fn, ctx);
}

bool on_worker_thread() { return tls_in_worker; }

}  // namespace detail

}  // namespace gecos

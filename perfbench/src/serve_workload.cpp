// serve_mix: the repo's gecosd, started fresh with its own --state-dir and
// --threads = nproc, driven by a closed loop of kClients client threads.
//
// Each client takes the next request group of a seeded list, submits all
// of the group's jobs, polls `status` every kPollS until each job is
// terminal, fetches and verifies the result, then takes the next group.
// Every RPC opens a fresh connection (connect + hello + request), as
// gecos_client does. The stream runs until the time budget is spent and at
// least kMinJobs jobs are done, so the p90 latency has >= 10 samples
// beyond it. Ground-state energies are checked afterwards against
// in-process solves of the same specs, outside the timed stream.
//
// The traffic is synthetic, not observed: the group mix, the client count
// and the parameter decks below were chosen to size the workload. How often
// jobs repeat a sector or share an evolution (and so how often the
// artifact cache and the batcher can help) is a property of this mix.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "fermion/hubbard.hpp"
#include "io/checkpoint.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "solver/lanczos.hpp"
#include "symmetry/sector_operator.hpp"
#include "telemetry/telemetry.hpp"
#include "util/parallel.hpp"

namespace perfbench {

namespace {

namespace sv = gecos::serve;
namespace fs = std::filesystem;

constexpr int kClients = 4;
/// Status-poll cadence: Client::wait's default, the one cadence the
/// library's own client uses.
constexpr double kPollS = 0.05;
/// Daemon starts per run; setup_s is their median. A start takes about
/// 2 ms, so many are cheap and keep the median steady.
constexpr int kSetups = 15;
constexpr std::size_t kMinJobs = 100;
/// Hard stop for the stream: no group starts after kMaxStreamS, and jobs
/// not terminal by kGiveUpS count as failed, so a run ends well inside its
/// time limit.
constexpr double kMaxStreamS = 100.0;
constexpr double kGiveUpS = 130.0;
/// Trace track of job N's submit-to-fetch span: kJobTrackBase + N.
constexpr std::uint32_t kJobTrackBase = 1000000;

// -- request list -------------------------------------------------------------

/// A 2-leg spinful ladder of the workload (periodic along x, mu = 0.5).
gecos::HubbardParams ladder(std::size_t lx, double u) {
  gecos::HubbardParams p;
  p.lx = lx;
  p.ly = 2;
  p.t = 1.0;
  p.u = u;
  p.mu = 0.5;
  p.periodic_x = true;
  p.spinful = true;
  return p;
}

enum class GroupKind { kSmallGround, kCheckpointedGround, kSweep, kSpectral };

/// One block of groups: a synthetic 40 / 10 / 35 / 15 % mix (8 small
/// ground states, 2 checkpointed ground states, 7 sweeps, 3 spectral jobs)
/// in one fixed interleaved order, so every block carries the same work in
/// the same order and the queue behaves alike from seed to seed. The seed
/// draws every parameter.
constexpr GroupKind kS = GroupKind::kSmallGround;
constexpr GroupKind kC = GroupKind::kCheckpointedGround;
constexpr GroupKind kW = GroupKind::kSweep;
constexpr GroupKind kP = GroupKind::kSpectral;
constexpr std::array<GroupKind, 20> kBlock = {kS, kW, kS, kP, kS, kW, kC,
                                              kS, kW, kS, kP, kW, kS, kW,
                                              kS, kC, kW, kP, kS, kW};
constexpr std::size_t kBlockGroups = kBlock.size();

/// Deals values from a seeded deck, reshuffling it when it runs out: over
/// any deck-length run of draws each value appears once, so the amount of
/// work per block does not drift with the seed.
template <typename T>
class Deck {
 public:
  explicit Deck(std::vector<T> cards) : cards_(std::move(cards)) {}
  T deal(std::mt19937_64& rng) {
    if (next_ == 0) std::shuffle(cards_.begin(), cards_.end(), rng);
    const T v = cards_[next_];
    next_ = (next_ + 1) % cards_.size();
    return v;
  }

 private:
  std::vector<T> cards_;
  std::size_t next_ = 0;
};

/// Ladder length and particles per spin below half filling (0 or 1) of a
/// small ground-state job.
using SmallShape = std::pair<std::size_t, std::uint32_t>;

std::vector<sv::JobSpec> make_group(GroupKind kind, double u,
                                    SmallShape shape, std::mt19937_64& rng) {
  std::vector<sv::JobSpec> jobs;
  sv::JobSpec s;
  switch (kind) {
    case GroupKind::kSmallGround: {
      s.kind = sv::JobKind::kGroundState;
      s.lattice = ladder(shape.first, u);
      s.n_up = s.n_down = static_cast<std::uint32_t>(shape.first) - shape.second;
      jobs.push_back(s);
      break;
    }
    case GroupKind::kCheckpointedGround:
      s.kind = sv::JobKind::kGroundState;
      s.lattice = ladder(5, u);
      s.n_up = s.n_down = 4;
      s.checkpoint_interval = 25;  // writes Lanczos checkpoints
      jobs.push_back(s);
      break;
    case GroupKind::kSweep: {
      // Four observables of one evolution: equal evolution keys, so the
      // daemon may batch them into one pass.
      s.kind = sv::JobKind::kExpectation;
      s.lattice = ladder(4, u);
      s.dt = 0.02;
      s.steps = 40;
      const auto draw = [&](std::uint32_t n) {
        return std::uniform_int_distribution<std::uint32_t>(0, n - 1)(rng);
      };
      const std::uint32_t a = draw(8);
      const std::uint32_t b = (a + 1 + draw(7)) % 8;
      for (const sv::ObservableSpec o :
           {sv::ObservableSpec{sv::ObservableKind::kDensity, a, 0},
            sv::ObservableSpec{sv::ObservableKind::kDoublon, a, 0},
            sv::ObservableSpec{sv::ObservableKind::kDensityCorr, a, b},
            sv::ObservableSpec{sv::ObservableKind::kTotalNumber, 0, 0}}) {
        s.observables = {o};
        jobs.push_back(s);
      }
      break;
    }
    case GroupKind::kSpectral:
      s.kind = sv::JobKind::kSpectral;
      s.lattice = ladder(4, u);
      jobs.push_back(s);
      break;
  }
  return jobs;
}

std::vector<std::vector<sv::JobSpec>> make_groups(std::uint64_t seed,
                                                  std::size_t blocks) {
  std::mt19937_64 rng(seed);
  std::vector<Deck<double>> u_decks(4, Deck<double>({2.0, 4.0, 6.0, 8.0}));
  Deck<SmallShape> shapes({{3, 0}, {3, 1}, {4, 0}, {4, 1}});
  std::vector<std::vector<sv::JobSpec>> groups;
  for (std::size_t b = 0; b < blocks; ++b) {
    for (const GroupKind k : kBlock) {
      const double u = u_decks[static_cast<std::size_t>(k)].deal(rng);
      const SmallShape shape =
          k == GroupKind::kSmallGround ? shapes.deal(rng) : SmallShape{0, 0};
      groups.push_back(make_group(k, u, shape, rng));
    }
  }
  return groups;
}

/// (lattice, sector) of a job: the requested sector for ground states, the
/// CDW start state's sector for evolution and spectral jobs.
std::string sector_key(const sv::JobSpec& s) {
  std::uint32_t up = s.n_up, down = s.n_down;
  if (s.kind != sv::JobKind::kGroundState) {
    const std::uint64_t occ = gecos::hubbard_cdw_occupation(s.lattice);
    up = static_cast<std::uint32_t>(
        std::popcount(occ & gecos::hubbard_species_mask(s.lattice, 0)));
    down = static_cast<std::uint32_t>(
        std::popcount(occ & gecos::hubbard_species_mask(s.lattice, 1)));
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%zux%zu U=%g (%u,%u)", s.lattice.lx,
                s.lattice.ly, s.lattice.u, up, down);
  return buf;
}

// -- daemon lifecycle ---------------------------------------------------------

/// A gecosd child process with its socket and state directory; the
/// destructor kills and reaps it if it is still running.
class Daemon {
 public:
  Daemon(const Options& opt, int index) {
    const std::string tag =
        std::to_string(::getpid()) + "-" + std::to_string(index);
    socket_ = opt.out_dir + "/d" + tag + ".sock";
    state_ = opt.out_dir + "/state-" + tag;
    if (socket_.size() > 100)
      throw std::runtime_error("socket path too long: " + socket_);
    fs::remove_all(state_);
    const std::string threads = std::to_string(gecos::num_threads());
    std::vector<std::string> args = {opt.gecosd,  "--socket",  socket_,
                                     "--state-dir", state_, "--threads",
                                     threads};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0)
      throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
    if (pid_ == 0) {
      // Child: only async-signal-safe calls until exec. The daemon dies
      // with the benchmark, even when the benchmark is killed.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      ::dup2(2, 1);  // keep the benchmark's stdout for its own output
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
  }
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    std::error_code ec;
    fs::remove_all(state_, ec);
    fs::remove(socket_, ec);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& socket() const { return socket_; }
  pid_t pid() const { return pid_; }

  /// Retries connect + hello until the daemon answers; throws if it exits
  /// or stays silent for 30 s.
  void wait_ready() const {
    const std::uint64_t t0 = now_ns();
    for (;;) {
      try {
        sv::Client c(socket_);
        return;
      } catch (const std::exception&) {
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_)
          throw std::runtime_error("gecosd exited during start-up");
        if (span_s(t0, now_ns()) > 30.0)
          throw std::runtime_error("gecosd did not answer within 30 s");
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
  }

  /// Asks the daemon to exit and reaps it.
  void shutdown() {
    try {
      sv::Client c(socket_);
      c.shutdown();
    } catch (const std::exception&) {
      ::kill(pid_, SIGKILL);
    }
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  std::string socket_;
  std::string state_;
};

/// Starts a daemon and returns the seconds from spawn to its first hello.
double start_daemon(std::unique_ptr<Daemon>& d, const Options& opt,
                    int index) {
  Span s("serve.startup");
  d = std::make_unique<Daemon>(opt, index);
  d->wait_ready();
  return s.stop();
}

// -- the job stream -----------------------------------------------------------

/// One job as the client saw it (times are now_ns()).
struct JobRec {
  sv::JobSpec spec;
  std::uint64_t id = 0;
  std::uint64_t t_submit = 0, t_running = 0, t_terminal = 0, t_fetched = 0;
  bool ok = false;          // done, converged, verified at fetch
  double e0 = 0.0;          // ground-state jobs: fetched lowest eigenvalue
  double iterations = 0.0;  // solver steps the result reports
  sv::JobResult result;     // kept for ground-state jobs only
};

/// What one client thread recorded.
struct ClientLog {
  std::vector<JobRec> jobs;
  std::vector<double> submit_ms, status_ms, fetch_ms;
  std::uint64_t rpcs = 0, rpc_errors = 0, status_rpcs = 0;
};

/// Results of identical specs must be bitwise identical: the first result
/// per job_key is kept and later ones compared byte for byte.
class IdentityCheck {
 public:
  bool check(const sv::JobSpec& spec, const sv::JobResult& r) {
    gecos::PayloadWriter w;
    sv::encode_job_result(w, r);
    const std::vector<unsigned char> bytes(w.bytes().begin(), w.bytes().end());
    std::lock_guard<std::mutex> lk(mutex_);
    const auto [it, fresh] = seen_.emplace(sv::job_key(spec), bytes);
    return fresh || it->second == bytes;
  }

 private:
  std::mutex mutex_;
  std::map<std::uint64_t, std::vector<unsigned char>> seen_;
};

bool finite_all(const std::vector<double>& v) {
  return std::all_of(v.begin(), v.end(),
                     [](double x) { return std::isfinite(x); });
}

/// Structural checks of a fetched result against its spec.
bool result_ok(const sv::JobSpec& s, const sv::JobResult& r) {
  if (r.kind != s.kind || !r.converged) return false;
  switch (s.kind) {
    case sv::JobKind::kGroundState:
      return r.eigenvalues.size() == s.num_eigenpairs &&
             finite_all(r.eigenvalues);
    case sv::JobKind::kQuench:
    case sv::JobKind::kExpectation:
      return r.times.size() == s.steps &&
             r.values.size() == s.steps * s.observables.size() &&
             finite_all(r.values) && finite_all(r.loschmidt);
    case sv::JobKind::kSpectral:
      return r.spectral.size() == s.w_points && finite_all(r.spectral);
  }
  return false;
}

class Stream {
 public:
  Stream(const std::string& socket,
         const std::vector<std::vector<sv::JobSpec>>& groups, double seconds)
      : socket_(socket), groups_(groups), seconds_(seconds) {}
  Stream(const Stream&) = delete;  // client threads hold `this`
  Stream& operator=(const Stream&) = delete;

  /// Runs the closed loop to completion; returns the per-client logs.
  /// An exception in a client thread is rethrown here after every client
  /// has been joined.
  std::vector<ClientLog> run() {
    start_ = now_ns();
    std::vector<ClientLog> logs(kClients);
    std::vector<std::exception_ptr> errors(kClients);
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c)
      threads.emplace_back([this, &logs, &errors, c] {
        try {
          client_loop(logs[c]);
        } catch (...) {
          errors[c] = std::current_exception();
        }
      });
    for (std::thread& t : threads) t.join();
    for (const std::exception_ptr& e : errors)
      if (e) std::rethrow_exception(e);
    return logs;
  }
  std::uint64_t start_ns() const { return start_; }
  /// Groups handed out (valid after run()).
  std::size_t groups_taken() const { return next_group_; }

 private:
  /// Whether group g may start: always inside a block (so every run takes
  /// whole blocks, the same mix of work); at a block boundary only while
  /// the time budget or the minimum job count is unmet. Never after the
  /// hard stop.
  bool may_start(std::size_t g) const {
    const double elapsed = span_s(start_, now_ns());
    if (elapsed >= kMaxStreamS || g >= groups_.size()) return false;
    if (g % kBlockGroups != 0) return true;
    return elapsed < seconds_ || jobs_done_.load() < kMinJobs;
  }

  /// One RPC on a fresh connection; nullopt (and a counted error) when it
  /// throws.
  template <typename F>
  auto rpc(ClientLog& log, const char* name, std::vector<double>& ms,
           std::uint64_t id, F&& f)
      -> std::optional<decltype(f(std::declval<sv::Client&>()))> {
    ++log.rpcs;
    Span s(name, id);
    try {
      sv::Client c(socket_);
      auto r = f(c);
      ms.push_back(s.stop() * 1e3);
      return r;
    } catch (const std::exception& e) {
      s.stop();
      ++log.rpc_errors;
      std::fprintf(stderr, "serve_mix: %s failed: %s\n", name, e.what());
      return std::nullopt;
    }
  }

  void client_loop(ClientLog& log) {
    for (;;) {
      std::size_t g = 0;
      {
        std::lock_guard<std::mutex> lk(claim_mutex_);
        if (!may_start(next_group_)) return;
        g = next_group_++;
      }
      run_group(log, groups_[g]);
    }
  }

  void run_group(ClientLog& log, const std::vector<sv::JobSpec>& specs) {
    std::vector<JobRec> recs;
    for (const sv::JobSpec& spec : specs) {
      JobRec r;
      r.spec = spec;
      r.t_submit = now_ns();
      const auto id =
          rpc(log, "serve.submit", log.submit_ms, 0,
              [&](sv::Client& c) { return c.submit(spec); });
      if (!id) {
        log.jobs.push_back(r);  // never submitted: a failed job
        continue;
      }
      r.id = *id;
      recs.push_back(std::move(r));
    }
    std::vector<JobRec*> pending;
    for (JobRec& r : recs) pending.push_back(&r);
    // Jobs still pending at the give-up time stay failed.
    while (!pending.empty() && span_s(start_, now_ns()) < kGiveUpS) {
      for (auto it = pending.begin(); it != pending.end();) {
        JobRec& r = **it;
        ++log.status_rpcs;
        const auto st = rpc(log, "serve.status", log.status_ms, r.id,
                            [&](sv::Client& c) { return c.status(r.id); });
        const std::uint64_t t = now_ns();
        if (!st) {
          ++it;
          continue;
        }
        const bool terminal = st->state == sv::JobState::kDone ||
                              st->state == sv::JobState::kFailed ||
                              st->state == sv::JobState::kCancelled;
        if ((terminal || st->state == sv::JobState::kRunning) &&
            r.t_running == 0)
          r.t_running = t;
        if (!terminal) {
          ++it;
          continue;
        }
        r.t_terminal = t;
        if (st->state == sv::JobState::kDone) {
          auto res = rpc(log, "serve.fetch", log.fetch_ms, r.id,
                         [&](sv::Client& c) { return c.fetch(r.id); });
          r.t_fetched = now_ns();
          if (res) {
            r.ok = result_ok(r.spec, *res) && identity_.check(r.spec, *res);
            r.iterations = static_cast<double>(res->iterations);
            if (r.spec.kind == sv::JobKind::kGroundState && r.ok) {
              r.e0 = res->eigenvalues.front();
              r.result = std::move(*res);
            }
          }
        } else {
          std::fprintf(stderr, "serve_mix: job %llu ended %s: %s\n",
                       static_cast<unsigned long long>(r.id),
                       st->error_kind.c_str(), st->error_message.c_str());
        }
        // Submit to fetched, on a track of its own: jobs of one group
        // overlap without nesting.
        if (Trace::on())
          Trace::record("serve.job", r.t_submit, now_ns(), r.id,
                        kJobTrackBase + static_cast<std::uint32_t>(r.id));
        if (r.ok) jobs_done_.fetch_add(1);
        it = pending.erase(it);
      }
      if (!pending.empty())
        std::this_thread::sleep_for(std::chrono::duration<double>(kPollS));
    }
    for (JobRec& r : recs) log.jobs.push_back(std::move(r));
  }

  std::string socket_;
  const std::vector<std::vector<sv::JobSpec>>& groups_;
  double seconds_;
  std::uint64_t start_ = 0;
  std::mutex claim_mutex_;
  std::size_t next_group_ = 0;  // guarded by claim_mutex_
  std::atomic<std::size_t> jobs_done_{0};
  IdentityCheck identity_;
};

/// In-process reference solve of a ground-state spec (the scheduler's
/// options); adds the SectorOperator constructor time to compile_ms.
double reference_e0(const sv::JobSpec& s, std::vector<double>& compile_ms) {
  const gecos::ScbSum h = gecos::hubbard_scb(s.lattice);
  Span c("symmetry.compile");
  const gecos::SectorOperator hs(
      gecos::hubbard_sector(s.lattice, s.n_up, s.n_down), h);
  compile_ms.push_back(c.stop() * 1e3);
  gecos::LanczosOptions lo;
  lo.k = s.num_eigenpairs;
  lo.tol = s.tol;
  lo.max_matvecs = static_cast<std::size_t>(s.max_matvecs);
  lo.seed = s.seed;
  lo.compute_vectors = false;
  gecos::Lanczos solver(hs, lo);
  return solver.solve().eigenvalues.front();
}

/// Median milliseconds of `reps` write_checkpoint calls of `payload`.
double time_writes(const std::string& path, gecos::PayloadKind kind,
                   std::span<const unsigned char> payload, int reps) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    Span s("io.write_checkpoint");
    gecos::write_checkpoint(path, kind, payload);
    ms.push_back(s.stop() * 1e3);
  }
  gecos::remove_checkpoint(path);
  return median(ms);
}

/// Everything one stream produced, merged over clients.
struct StreamResult {
  std::vector<JobRec> jobs;
  ClientLog rpc;  // merged RPC timings and counts
  double wall_s = 0.0;
  std::size_t groups = 0;
  sv::ServerStats stats;
  ProcCounters daemon;
};

StreamResult run_stream(Daemon& d,
                        const std::vector<std::vector<sv::JobSpec>>& groups,
                        double seconds) {
  Stream stream(d.socket(), groups, seconds);
  std::vector<ClientLog> logs = stream.run();
  StreamResult out;
  std::uint64_t last = stream.start_ns();
  for (ClientLog& log : logs) {
    for (JobRec& r : log.jobs) {
      last = std::max(last, r.t_fetched);
      out.jobs.push_back(std::move(r));
    }
    for (auto [dst, src] :
         {std::pair{&out.rpc.submit_ms, &log.submit_ms},
          std::pair{&out.rpc.status_ms, &log.status_ms},
          std::pair{&out.rpc.fetch_ms, &log.fetch_ms}})
      dst->insert(dst->end(), src->begin(), src->end());
    out.rpc.rpcs += log.rpcs;
    out.rpc.rpc_errors += log.rpc_errors;
    out.rpc.status_rpcs += log.status_rpcs;
  }
  out.wall_s = span_s(stream.start_ns(), last);
  out.groups = stream.groups_taken();
  {
    // Closed before shutdown(): the daemon serves one connection at a time.
    sv::Client c(d.socket());
    out.stats = c.stats();
  }
  out.daemon = pid_counters(d.pid());
  d.shutdown();
  return out;
}

/// In-process reference energies by job_key, and the SectorOperator
/// compile times their solves measured.
struct References {
  std::map<std::uint64_t, double> e0;
  std::vector<double> compile_ms;
};

/// Checks every fetched ground-state energy against an in-process solve
/// of its spec, then tallies jobs and RPCs.
void verify(StreamResult& sr, Tally& tally, References& refs) {
  for (JobRec& r : sr.jobs) {
    if (r.spec.kind == sv::JobKind::kGroundState && r.ok) {
      const std::uint64_t key = sv::job_key(r.spec);
      if (refs.e0.find(key) == refs.e0.end())
        refs.e0[key] = reference_e0(r.spec, refs.compile_ms);
      r.ok = energy_gate(true, r.e0, refs.e0[key], 1e-10);
      if (!r.ok)
        std::fprintf(stderr, "serve_mix: job %llu E0 %.12f vs in-process %.12f\n",
                     static_cast<unsigned long long>(r.id), r.e0,
                     refs.e0[key]);
    }
    tally.record(r.ok);
  }
  for (std::uint64_t i = 0; i < sr.rpc.rpcs; ++i)
    tally.record(i >= sr.rpc.rpc_errors);
}

/// Shares of the consumed request list that later caching / batching
/// claims cite: jobs whose (lattice, sector) repeats an earlier job, and
/// expectation jobs whose evolution key another expectation job shares.
std::pair<double, double> input_shares(
    const std::vector<std::vector<sv::JobSpec>>& groups, std::size_t taken) {
  std::set<std::string> sectors;
  std::map<std::uint64_t, int> evolutions;
  double jobs = 0, repeats = 0, expectation = 0, shared = 0;
  for (std::size_t g = 0; g < taken; ++g) {
    for (const sv::JobSpec& s : groups[g]) {
      ++jobs;
      if (!sectors.insert(sector_key(s)).second) ++repeats;
      if (s.kind == sv::JobKind::kExpectation) ++evolutions[sv::evolution_key(s)];
    }
  }
  for (const auto& [key, count] : evolutions) {
    expectation += count;
    if (count > 1) shared += count;
  }
  return {jobs > 0 ? repeats / jobs : 0.0,
          expectation > 0 ? shared / expectation : 0.0};
}

}  // namespace

void run_serve_mix(const Options& opt, RunResult& out) {
  fs::create_directories(opt.out_dir);
  const auto groups = make_groups(opt.seed, 100);

  std::vector<double> setup;
  std::unique_ptr<Daemon> daemon;
  for (int i = 0; i < kSetups; ++i) {
    if (daemon) daemon->shutdown();
    setup.push_back(start_daemon(daemon, opt, i));
  }
  StreamResult base =
      run_stream(*daemon, groups, opt.trace ? opt.seconds / 2 : opt.seconds);
  References refs;
  verify(base, out.tally, refs);

  std::optional<StreamResult> traced;
  if (opt.trace) {
    gecos::telemetry::set_metrics_enabled(true);
    Trace::enable();
    start_daemon(daemon, opt, kSetups);
    traced = run_stream(*daemon, groups, opt.seconds / 2);
    verify(*traced, out.tally, refs);
  }
  daemon.reset();

  const StreamResult& sr = traced ? *traced : base;
  std::vector<double> latency, queue_wait;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> busy;
  double ok = 0, steps = 0, expectation = 0;
  for (const JobRec& r : sr.jobs) {
    if (!r.ok) continue;
    ++ok;
    steps += r.iterations;
    latency.push_back(span_s(r.t_submit, r.t_fetched));
    queue_wait.push_back(span_s(r.t_submit, r.t_running));
    busy.emplace_back(r.t_running, r.t_terminal);
    if (r.spec.kind == sv::JobKind::kExpectation) ++expectation;
  }
  // Executor busy time: the union of the jobs' running intervals as the
  // polls saw them (batched jobs overlap).
  std::sort(busy.begin(), busy.end());
  double busy_s = 0.0;
  std::uint64_t reach = 0;
  for (const auto& [a, b] : busy) {
    const std::uint64_t from = std::max(a, reach);
    if (b > from) busy_s += span_s(from, b);
    reach = std::max(reach, b);
  }
  const auto [repeat_frac, shared_frac] = input_shares(groups, sr.groups);
  out.inputs["groups"] = static_cast<double>(sr.groups);
  out.inputs["jobs"] = static_cast<double>(sr.jobs.size());
  out.inputs["repeat_sector_frac"] = repeat_frac;
  out.inputs["shared_evolution_frac"] = shared_frac;
  out.inputs["latency_samples"] = static_cast<double>(latency.size());
  out.inputs["latency_tail_pct"] = tail_percentile(latency.size());

  Values& v = out.values;
  if (!opt.trace) {
    v.set("setup_s", median(setup));
    v.set("solve_s", busy_s / ok);
    v.set("steps_per_s", steps / sr.wall_s);
    v.set("jobs_per_s", ok / sr.wall_s);
    v.set("job_latency_p50_s", median(latency));
    v.set("job_latency_p90_s", percentile(latency, 90.0));
    v.set("peak_rss_mb", sr.daemon.peak_rss_mb);  // gecosd's VmHWM
    return;
  }
  v.set("serve.queue_wait_s", median(queue_wait));
  std::vector<double> run_s;
  for (const auto& [a, b] : busy) run_s.push_back(span_s(a, b));
  v.set("serve.run_s", median(run_s));
  v.set("serve.executor_busy_frac", busy_s / sr.wall_s);
  v.set("serve.submit_rpc_ms", median(sr.rpc.submit_ms));
  v.set("serve.status_rpc_ms", median(sr.rpc.status_ms));
  v.set("serve.fetch_rpc_ms", median(sr.rpc.fetch_ms));
  v.set("serve.status_rpcs_per_job",
        static_cast<double>(sr.rpc.status_rpcs) /
            static_cast<double>(sr.jobs.size()));
  v.set("serve.rpc_errors", static_cast<double>(base.rpc.rpc_errors +
                                                sr.rpc.rpc_errors));
  v.set("serve.batched_frac",
        expectation > 0 ? static_cast<double>(sr.stats.batched_jobs) /
                              expectation
                        : 0.0);
  v.set("serve.batch_passes", static_cast<double>(sr.stats.batch_passes));
  const double lookups =
      static_cast<double>(sr.stats.cache_hits + sr.stats.cache_misses);
  v.set("serve.cache_hit_frac",
        lookups > 0 ? static_cast<double>(sr.stats.cache_hits) / lookups
                    : 0.0);
  v.set("serve.cache_evictions", static_cast<double>(sr.stats.cache_evictions));
  v.set("serve.daemon_peak_rss_mb", sr.daemon.peak_rss_mb);
  v.set("serve.latency_samples", static_cast<double>(latency.size()));
  v.set("serve.repeat_sector_frac", repeat_frac);
  v.set("serve.shared_evolution_frac", shared_frac);
  v.set("symmetry.compile_ms", median(refs.compile_ms));
  v.set("proc.cpu_s", sr.daemon.cpu_s);
  v.set("proc.minor_faults", sr.daemon.minor_faults);
  v.set("proc.ctx_switches", sr.daemon.ctx_switches);
  v.set("trace.overhead_frac",
        (static_cast<double>(base.jobs.size()) / base.wall_s) /
                (static_cast<double>(sr.jobs.size()) / sr.wall_s) -
            1.0);
  v.set("failed_frac", out.tally.failed_frac());

  // I/O layer, on the state-dir filesystem: a job journal (spec + a real
  // ground-state result) and a Lanczos checkpoint of the 5x2 (4,4) job.
  const std::string io_dir =
      opt.out_dir + "/io-" + std::to_string(::getpid());
  fs::create_directories(io_dir);
  const JobRec* gs = nullptr;
  for (const JobRec& r : sr.jobs)
    if (r.ok && r.spec.kind == sv::JobKind::kGroundState &&
        (gs == nullptr || r.spec.checkpoint_interval > 0))
      gs = &r;
  if (gs != nullptr) {
    gecos::PayloadWriter w;
    w.put_u64(gs->id);
    w.put_u32(static_cast<std::uint32_t>(sv::JobState::kDone));
    sv::encode_job_spec(w, gs->spec);
    sv::encode_job_result(w, gs->result);
    v.set("io.journal_write_ms",
          time_writes(io_dir + "/journal.job", gecos::PayloadKind::kServeJob,
                      w.bytes(), 20));
  }
  {
    sv::JobSpec s;
    s.lattice = ladder(5, 4.0);
    s.n_up = s.n_down = 4;
    const gecos::ScbSum h = gecos::hubbard_scb(s.lattice);
    const gecos::SectorOperator hs(
        gecos::hubbard_sector(s.lattice, s.n_up, s.n_down), h);
    gecos::LanczosOptions lo;
    lo.compute_vectors = false;
    lo.checkpoint_path = io_dir + "/lanczos.ckpt";
    lo.checkpoint_interval = 25;
    gecos::Lanczos(hs, lo).solve();
    const gecos::Checkpoint ck =
        gecos::read_checkpoint(lo.checkpoint_path, gecos::PayloadKind::kLanczosState);
    gecos::remove_checkpoint(lo.checkpoint_path);
    v.set("io.checkpoint_write_ms",
          time_writes(io_dir + "/rewrite.ckpt",
                      gecos::PayloadKind::kLanczosState, ck.payload, 5));
  }
  fs::remove_all(io_dir);
}

}  // namespace perfbench

#include "serve/protocol.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "io/xxhash.hpp"

namespace gecos::serve {

namespace {

// Hash seeds separating the two key domains: equal bytes under different
// seeds still produce unrelated keys.
constexpr std::uint64_t kJobKeySeed = 0x4A4F424B45593031ULL;   // "JOBKEY01"
constexpr std::uint64_t kEvolKeySeed = 0x45564F4C4B455931ULL;  // "EVOLKEY1"

void put_bool(PayloadWriter& w, bool b) { w.put_u32(b ? 1 : 0); }

bool get_bool(PayloadReader& r) {
  const std::uint32_t v = r.get_u32();
  if (v > 1) throw Error(ErrorKind::protocol, "boolean field out of range");
  return v != 0;
}

// Reads a u32 enum field, rejecting values outside [first, last]: a spec
// from a newer build (or a damaged one) must fail to decode, not reach a
// switch that matches no case.
template <typename E>
E get_enum(PayloadReader& r, E first, E last, const char* field) {
  const std::uint32_t v = r.get_u32();
  if (v < static_cast<std::uint32_t>(first) ||
      v > static_cast<std::uint32_t>(last))
    throw Error(ErrorKind::protocol,
                std::string(field) + " out of range: " + std::to_string(v));
  return static_cast<E>(v);
}

void put_doubles(PayloadWriter& w, const std::vector<double>& v) {
  w.put_u64(v.size());
  for (const double x : v) w.put_f64(x);
}

std::vector<double> get_doubles(PayloadReader& r) {
  const std::uint64_t n = r.get_u64();
  if (n > r.remaining() / sizeof(double))
    throw Error(ErrorKind::protocol, "array length exceeds payload");
  std::vector<double> v(n);
  for (double& x : v) x = r.get_f64();
  return v;
}

// Lattice parameters in canonical field order (part of the spec encoding
// and of the evolution key).
void encode_lattice(PayloadWriter& w, const HubbardParams& p) {
  w.put_u64(p.lx);
  w.put_u64(p.ly);
  w.put_f64(p.t);
  w.put_f64(p.u);
  w.put_f64(p.mu);
  put_bool(w, p.periodic_x);
  put_bool(w, p.periodic_y);
  put_bool(w, p.spinful);
}

HubbardParams decode_lattice(PayloadReader& r) {
  HubbardParams p;
  p.lx = r.get_u64();
  p.ly = r.get_u64();
  p.t = r.get_f64();
  p.u = r.get_f64();
  p.mu = r.get_f64();
  p.periodic_x = get_bool(r);
  p.periodic_y = get_bool(r);
  p.spinful = get_bool(r);
  return p;
}

// Bytes of a kFetchOk reply whose result arrays are all empty: the message
// type plus every fixed field and array length of encode_job_result().
std::uint64_t empty_fetch_reply_bytes() {
  static const std::uint64_t bytes = [] {
    PayloadWriter w;
    w.put_u32(static_cast<std::uint32_t>(MsgType::kFetchOk));
    encode_job_result(w, JobResult{});
    return static_cast<std::uint64_t>(w.bytes().size());
  }();
  return bytes;
}

// Exact read/write loops over a blocking socket, EINTR-restarted. Return
// false on EOF (read) / error instead of throwing so callers choose the
// message. Writes use MSG_NOSIGNAL: a peer that hung up is an EPIPE error
// on this connection, not a SIGPIPE that kills the process.
bool read_exact(int fd, unsigned char* buf, std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t k = ::read(fd, buf + done, n - done);
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (k == 0) return false;
    done += static_cast<std::size_t>(k);
  }
  return true;
}

bool write_exact(int fd, const unsigned char* buf, std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t k = ::send(fd, buf + done, n - done, MSG_NOSIGNAL);
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(k);
  }
  return true;
}

}  // namespace

void validate_job_spec(const JobSpec& spec) {
  const auto fail = [](const char* what) {
    throw Error(ErrorKind::protocol, std::string("invalid job spec: ") + what);
  };
  if (spec.kind != JobKind::kGroundState && spec.kind != JobKind::kQuench &&
      spec.kind != JobKind::kExpectation && spec.kind != JobKind::kSpectral)
    fail("unknown job kind");
  if (spec.lattice.lx < 1 || spec.lattice.ly < 1) fail("empty lattice");
  const std::size_t modes = hubbard_num_modes(spec.lattice);
  if (modes > 63) fail("lattice exceeds 63 modes");
  if (!spec.use_sector && modes > 24)
    fail("full-space jobs are limited to 24 modes (use a sector)");
  if (spec.use_sector) {
    // hubbard_sector re-validates, but failing here keeps the error a
    // protocol error with the field name instead of an invalid_argument
    // from deep inside the symmetry layer.
    const std::size_t up_bits = spec.lattice.spinful ? modes / 2 : modes;
    const std::size_t dn_bits = spec.lattice.spinful ? modes / 2 : 0;
    if (spec.n_up > up_bits) fail("n_up exceeds species mode count");
    if (spec.n_down > dn_bits) fail("n_down exceeds species mode count");
  }
  if (!(spec.tol > 0.0)) fail("tol must be positive");
  if (spec.kind == JobKind::kGroundState) {
    if (spec.num_eigenpairs < 1) fail("num_eigenpairs must be >= 1");
    if (spec.max_matvecs < 1) fail("max_matvecs must be >= 1");
  }
  if (spec.kind == JobKind::kQuench || spec.kind == JobKind::kExpectation) {
    if (spec.steps < 1) fail("steps must be >= 1 for evolution jobs");
    if (!(spec.dt > 0.0)) fail("dt must be positive");
  }
  // Evolution and spectral jobs run on sector states (the batching core and
  // the probe construction are sector-based); full-space variants are a
  // ground-state-only facility.
  if (spec.kind != JobKind::kGroundState && !spec.use_sector)
    fail("evolution and spectral jobs require use_sector");
  if (spec.kind == JobKind::kExpectation && spec.observables.empty())
    fail("expectation job without observables");
  const std::size_t sites = hubbard_num_sites(spec.lattice);
  for (const ObservableSpec& o : spec.observables) {
    if (o.kind != ObservableKind::kDensity &&
        o.kind != ObservableKind::kDoublon &&
        o.kind != ObservableKind::kDensityCorr &&
        o.kind != ObservableKind::kTotalNumber)
      fail("unknown observable kind");
    if (o.kind == ObservableKind::kDoublon && !spec.lattice.spinful)
      fail("doublon observable requires a spinful lattice");
    if (o.site_a >= sites || (o.kind == ObservableKind::kDensityCorr &&
                              o.site_b >= sites))
      fail("observable site index out of range");
  }
  if (spec.kind == JobKind::kSpectral) {
    if (spec.max_moments < 1) fail("max_moments must be >= 1");
    if (!(spec.eta > 0.0)) fail("eta must be positive");
    if (!(spec.w_max > spec.w_min)) fail("w_max must exceed w_min");
    if (spec.w_points < 2) fail("w_points must be >= 2");
  }
  // The result must fit one kFetchOk frame; a larger one would run and then
  // never be fetchable. Spectral results carry omega and A(omega), evolution
  // results times, loschmidt and one value per step and observable.
  const std::uint64_t doubles =
      (kMaxFrameBytes - empty_fetch_reply_bytes()) / sizeof(double);
  if (spec.kind == JobKind::kSpectral && spec.w_points > doubles / 2)
    fail("w_points: result exceeds the reply frame limit");
  if ((spec.kind == JobKind::kQuench || spec.kind == JobKind::kExpectation) &&
      spec.steps > doubles / (2 + spec.observables.size()))
    fail("steps x observables: result exceeds the reply frame limit");
}

void encode_job_spec(PayloadWriter& w, const JobSpec& spec) {
  w.put_u32(static_cast<std::uint32_t>(spec.kind));
  encode_lattice(w, spec.lattice);
  put_bool(w, spec.use_sector);
  w.put_u32(spec.n_up);
  w.put_u32(spec.n_down);
  w.put_u32(spec.num_eigenpairs);
  w.put_f64(spec.tol);
  w.put_u64(spec.max_matvecs);
  w.put_u64(spec.seed);
  w.put_u64(spec.checkpoint_interval);
  w.put_f64(spec.dt);
  w.put_u64(spec.steps);
  w.put_u64(spec.initial_occupation);
  w.put_u64(spec.observables.size());
  for (const ObservableSpec& o : spec.observables) {
    w.put_u32(static_cast<std::uint32_t>(o.kind));
    w.put_u32(o.site_a);
    w.put_u32(o.site_b);
  }
  w.put_f64(spec.eta);
  w.put_u64(spec.max_moments);
  w.put_f64(spec.w_min);
  w.put_f64(spec.w_max);
  w.put_u64(spec.w_points);
  w.put_u32(spec.priority);
}

JobSpec decode_job_spec(PayloadReader& r) {
  JobSpec spec;
  spec.kind = get_enum(r, JobKind::kGroundState, JobKind::kSpectral,
                       "job kind");
  spec.lattice = decode_lattice(r);
  spec.use_sector = get_bool(r);
  spec.n_up = r.get_u32();
  spec.n_down = r.get_u32();
  spec.num_eigenpairs = r.get_u32();
  spec.tol = r.get_f64();
  spec.max_matvecs = r.get_u64();
  spec.seed = r.get_u64();
  spec.checkpoint_interval = r.get_u64();
  spec.dt = r.get_f64();
  spec.steps = r.get_u64();
  spec.initial_occupation = r.get_u64();
  const std::uint64_t n_obs = r.get_u64();
  if (n_obs > r.remaining() / (3 * sizeof(std::uint32_t)))
    throw Error(ErrorKind::protocol, "observable count exceeds payload");
  spec.observables.resize(n_obs);
  for (ObservableSpec& o : spec.observables) {
    o.kind = get_enum(r, ObservableKind::kDensity,
                      ObservableKind::kTotalNumber, "observable kind");
    o.site_a = r.get_u32();
    o.site_b = r.get_u32();
  }
  spec.eta = r.get_f64();
  spec.max_moments = r.get_u64();
  spec.w_min = r.get_f64();
  spec.w_max = r.get_f64();
  spec.w_points = r.get_u64();
  spec.priority = r.get_u32();
  return spec;
}

void encode_job_result(PayloadWriter& w, const JobResult& res) {
  w.put_u32(static_cast<std::uint32_t>(res.kind));
  put_doubles(w, res.eigenvalues);
  put_doubles(w, res.residuals);
  put_doubles(w, res.residual_history);
  w.put_u64(res.matvecs);
  w.put_u64(res.iterations);
  put_bool(w, res.converged);
  put_bool(w, res.resumed);
  put_doubles(w, res.times);
  put_doubles(w, res.values);
  put_doubles(w, res.loschmidt);
  put_doubles(w, res.omega);
  put_doubles(w, res.spectral);
}

JobResult decode_job_result(PayloadReader& r) {
  JobResult res;
  res.kind = static_cast<JobKind>(r.get_u32());
  res.eigenvalues = get_doubles(r);
  res.residuals = get_doubles(r);
  res.residual_history = get_doubles(r);
  res.matvecs = r.get_u64();
  res.iterations = r.get_u64();
  res.converged = get_bool(r);
  res.resumed = get_bool(r);
  res.times = get_doubles(r);
  res.values = get_doubles(r);
  res.loschmidt = get_doubles(r);
  res.omega = get_doubles(r);
  res.spectral = get_doubles(r);
  return res;
}

void encode_job_status(PayloadWriter& w, const JobStatus& st) {
  w.put_u64(st.id);
  w.put_u32(static_cast<std::uint32_t>(st.state));
  w.put_u32(static_cast<std::uint32_t>(st.kind));
  w.put_u32(st.priority);
  w.put_u64(st.iteration);
  w.put_u64(st.matvecs);
  w.put_f64(st.metric);
  w.put_f64(st.target);
  w.put_f64(st.elapsed_s);
  w.put_f64(st.eta_s);
  w.put_string(st.error_kind);
  w.put_string(st.error_message);
}

JobStatus decode_job_status(PayloadReader& r) {
  JobStatus st;
  st.id = r.get_u64();
  st.state = static_cast<JobState>(r.get_u32());
  st.kind = static_cast<JobKind>(r.get_u32());
  st.priority = r.get_u32();
  st.iteration = r.get_u64();
  st.matvecs = r.get_u64();
  st.metric = r.get_f64();
  st.target = r.get_f64();
  st.elapsed_s = r.get_f64();
  st.eta_s = r.get_f64();
  st.error_kind = r.get_string();
  st.error_message = r.get_string();
  return st;
}

void encode_server_stats(PayloadWriter& w, const ServerStats& st) {
  w.put_u64(st.submitted);
  w.put_u64(st.completed);
  w.put_u64(st.failed);
  w.put_u64(st.cancelled);
  w.put_u64(st.batch_passes);
  w.put_u64(st.batched_jobs);
  w.put_u64(st.cache_hits);
  w.put_u64(st.cache_misses);
  w.put_u64(st.cache_evictions);
  w.put_u64(st.cache_bytes);
  w.put_u64(st.cache_entries);
  w.put_u64(st.queue_depth);
  w.put_u64(st.running);
}

ServerStats decode_server_stats(PayloadReader& r) {
  ServerStats st;
  st.submitted = r.get_u64();
  st.completed = r.get_u64();
  st.failed = r.get_u64();
  st.cancelled = r.get_u64();
  st.batch_passes = r.get_u64();
  st.batched_jobs = r.get_u64();
  st.cache_hits = r.get_u64();
  st.cache_misses = r.get_u64();
  st.cache_evictions = r.get_u64();
  st.cache_bytes = r.get_u64();
  st.cache_entries = r.get_u64();
  st.queue_depth = r.get_u64();
  st.running = r.get_u64();
  return st;
}

std::uint64_t job_key(const JobSpec& spec) {
  // Canonical encoding with the priority zeroed: two submissions differing
  // only in priority name the same artifact.
  JobSpec canon = spec;
  canon.priority = 0;
  PayloadWriter w;
  encode_job_spec(w, canon);
  return xxh64(w.bytes().data(), w.bytes().size(), kJobKeySeed);
}

std::uint64_t evolution_key(const JobSpec& spec) {
  PayloadWriter w;
  encode_lattice(w, spec.lattice);
  put_bool(w, spec.use_sector);
  w.put_u32(spec.n_up);
  w.put_u32(spec.n_down);
  w.put_f64(spec.dt);
  w.put_u64(spec.steps);
  w.put_u64(spec.initial_occupation);
  w.put_f64(spec.tol);
  w.put_u64(spec.seed);
  return xxh64(w.bytes().data(), w.bytes().size(), kEvolKeySeed);
}

void write_frame(int fd, std::span<const unsigned char> payload) {
  if (payload.size() > kMaxFrameBytes)
    throw Error(ErrorKind::protocol, "frame payload exceeds kMaxFrameBytes");
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  unsigned char hdr[sizeof(len)];
  std::memcpy(hdr, &len, sizeof(len));
  if (!write_exact(fd, hdr, sizeof(hdr)) ||
      !write_exact(fd, payload.data(), payload.size()))
    throw Error(ErrorKind::protocol, "short write on frame");
}

std::vector<unsigned char> read_frame(int fd) {
  std::uint32_t len = 0;
  unsigned char hdr[sizeof(len)];
  // Distinguish clean EOF (peer closed between frames) from EOF mid-frame:
  // the first byte read decides which.
  const ssize_t first = [&] {
    for (;;) {
      const ssize_t k = ::read(fd, hdr, 1);
      if (k < 0 && errno == EINTR) continue;
      return k;
    }
  }();
  if (first == 0) return {};
  if (first < 0 || !read_exact(fd, hdr + 1, sizeof(hdr) - 1))
    throw Error(ErrorKind::protocol, "short read on frame length");
  std::memcpy(&len, hdr, sizeof(len));
  if (len > kMaxFrameBytes)
    throw Error(ErrorKind::protocol, "frame length exceeds kMaxFrameBytes");
  std::vector<unsigned char> payload(len);
  if (len > 0 && !read_exact(fd, payload.data(), len))
    throw Error(ErrorKind::protocol, "short read on frame payload");
  return payload;
}

std::vector<unsigned char> encode_error_frame(ErrorKind kind,
                                              const std::string& message) {
  PayloadWriter w;
  w.put_u32(static_cast<std::uint32_t>(MsgType::kError));
  w.put_string(error_kind_name(kind));
  w.put_string(message);
  return {w.bytes().begin(), w.bytes().end()};
}

PayloadReader expect_reply(std::span<const unsigned char> payload,
                           MsgType expect) {
  PayloadReader r(payload);
  const MsgType type = static_cast<MsgType>(r.get_u32());
  if (type == MsgType::kError) {
    const std::string kind_name = r.get_string();
    const std::string message = r.get_string();
    ErrorKind kind = ErrorKind::protocol;
    if (!parse_error_kind(kind_name, kind)) kind = ErrorKind::protocol;
    throw Error(kind, message);
  }
  if (type != expect)
    throw Error(ErrorKind::protocol, "unexpected reply message type");
  return r;
}

}  // namespace gecos::serve

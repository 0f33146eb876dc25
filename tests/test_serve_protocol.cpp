// Serve-protocol suite: ErrorKind wire names, encode/decode round trips
// for every payload schema (bitwise doubles), job/evolution key semantics,
// spec validation including results too large for one reply frame,
// framed socket IO including truncation and oversize rejection, the error
// frame round trip, and a live in-process Server + Client integration over
// a real unix-domain socket (submit / status / fetch / cancel / stats /
// error passthrough / version-mismatch handshake / a client that hangs up
// before reading its hello reply / shutdown).
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/scheduler.hpp"
#include "serve/server.hpp"
#include "test_util.hpp"
#include "util/parallel.hpp"

using namespace gecos;
using namespace gecos::serve;

namespace {

/// True when fn throws a gecos::Error of `kind` whose what() names the kind
/// exactly once ("<kind>: <message>"), also after a trip over the wire.
bool throws_kind(ErrorKind kind, const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    const std::string what = e.what();
    const std::string prefix = std::string(error_kind_name(kind)) + ": ";
    return e.kind() == kind && what.rfind(prefix, 0) == 0 &&
           what.find(prefix, prefix.size()) == std::string::npos;
  } catch (...) {
    return false;
  }
  return false;
}

/// A fully non-default spec so every field must round-trip to survive.
JobSpec full_spec() {
  JobSpec s;
  s.kind = JobKind::kExpectation;
  s.lattice.lx = 3;
  s.lattice.ly = 2;
  s.lattice.t = 1.25;
  s.lattice.u = 3.5;
  s.lattice.mu = -0.75;
  s.lattice.periodic_x = false;
  s.lattice.periodic_y = true;
  s.lattice.spinful = true;
  s.use_sector = true;
  s.n_up = 3;
  s.n_down = 2;
  s.num_eigenpairs = 4;
  s.tol = 1e-8;
  s.max_matvecs = 777;
  s.seed = 123456789;
  s.checkpoint_interval = 50;
  s.dt = 0.0625;
  s.steps = 12;
  s.initial_occupation = 0b101101;
  s.observables = {{ObservableKind::kDensity, 1, 0},
                   {ObservableKind::kDoublon, 4, 0},
                   {ObservableKind::kDensityCorr, 0, 5},
                   {ObservableKind::kTotalNumber, 0, 0}};
  s.eta = 0.05;
  s.max_moments = 96;
  s.w_min = -7.5;
  s.w_max = 12.5;
  s.w_points = 33;
  s.priority = 9;
  return s;
}

bool specs_equal(const JobSpec& a, const JobSpec& b) {
  if (a.observables.size() != b.observables.size()) return false;
  for (std::size_t i = 0; i < a.observables.size(); ++i)
    if (a.observables[i].kind != b.observables[i].kind ||
        a.observables[i].site_a != b.observables[i].site_a ||
        a.observables[i].site_b != b.observables[i].site_b)
      return false;
  return a.kind == b.kind && a.lattice.lx == b.lattice.lx &&
         a.lattice.ly == b.lattice.ly && a.lattice.t == b.lattice.t &&
         a.lattice.u == b.lattice.u && a.lattice.mu == b.lattice.mu &&
         a.lattice.periodic_x == b.lattice.periodic_x &&
         a.lattice.periodic_y == b.lattice.periodic_y &&
         a.lattice.spinful == b.lattice.spinful &&
         a.use_sector == b.use_sector && a.n_up == b.n_up &&
         a.n_down == b.n_down && a.num_eigenpairs == b.num_eigenpairs &&
         a.tol == b.tol && a.max_matvecs == b.max_matvecs &&
         a.seed == b.seed &&
         a.checkpoint_interval == b.checkpoint_interval && a.dt == b.dt &&
         a.steps == b.steps &&
         a.initial_occupation == b.initial_occupation && a.eta == b.eta &&
         a.max_moments == b.max_moments && a.w_min == b.w_min &&
         a.w_max == b.w_max && a.w_points == b.w_points &&
         a.priority == b.priority;
}

/// The tiny ground-state job the live-server test runs: 2x2 spinful
/// half-filling, sector dim C(4,2)^2 = 36 — solves in milliseconds.
JobSpec tiny_ground() {
  JobSpec s;
  s.kind = JobKind::kGroundState;
  s.lattice.lx = 2;
  s.lattice.ly = 2;
  s.lattice.u = 4.0;
  s.lattice.mu = 0.5;
  s.lattice.spinful = true;
  s.use_sector = true;
  s.n_up = 2;
  s.n_down = 2;
  return s;
}

}  // namespace

int main() {
  set_num_threads(2);

  // -- ErrorKind wire names: total, distinct, round-trip --------------------
  {
    for (const ErrorKind k : kAllErrorKinds) {
      const char* name = error_kind_name(k);
      CHECK(name != nullptr && name[0] != '\0');
      ErrorKind parsed = ErrorKind::io_corrupt;
      CHECK(parse_error_kind(name, parsed));
      CHECK(parsed == k);
    }
    ErrorKind sink = ErrorKind::breakdown;
    CHECK(!parse_error_kind("definitely_not_a_kind", sink));
    CHECK(sink == ErrorKind::breakdown);  // untouched on failure
    CHECK(!parse_error_kind("", sink));
  }

  // -- spec round trip, bitwise ---------------------------------------------
  {
    const JobSpec spec = full_spec();
    PayloadWriter w;
    encode_job_spec(w, spec);
    PayloadReader r(w.bytes());
    const JobSpec back = decode_job_spec(r);
    r.require_end();
    CHECK(specs_equal(spec, back));

    // Truncated payload is io_corrupt (bounds-checked reader), not UB.
    PayloadReader short_r(w.bytes().subspan(0, w.bytes().size() - 4));
    CHECK(throws_kind(ErrorKind::io_corrupt,
                      [&] { (void)decode_job_spec(short_r); }));
  }

  // -- result round trip, bitwise -------------------------------------------
  {
    JobResult res;
    res.kind = JobKind::kSpectral;
    res.eigenvalues = {-13.8785798502, -11.25, 0.1};
    res.residuals = {1e-11, 3e-11, 7e-11};
    res.residual_history = {1.0, 0.1, 0.01, 1e-11};
    res.matvecs = 12345;
    res.iterations = 678;
    res.converged = true;
    res.resumed = true;
    res.times = {0.02, 0.04};
    res.values = {1.5, 0.5, 1.25, 0.75};
    res.loschmidt = {0.99, 0.98};
    res.omega = {-1.0, 0.0, 1.0};
    res.spectral = {0.1, 0.7, 0.2};
    PayloadWriter w;
    encode_job_result(w, res);
    PayloadReader r(w.bytes());
    const JobResult back = decode_job_result(r);
    r.require_end();
    CHECK(back.kind == res.kind);
    CHECK(std::memcmp(back.eigenvalues.data(), res.eigenvalues.data(),
                      res.eigenvalues.size() * sizeof(double)) == 0);
    CHECK(back.residuals == res.residuals);
    CHECK(back.residual_history == res.residual_history);
    CHECK_EQ(back.matvecs, res.matvecs);
    CHECK_EQ(back.iterations, res.iterations);
    CHECK(back.converged && back.resumed);
    CHECK(back.times == res.times);
    CHECK(back.values == res.values);
    CHECK(back.loschmidt == res.loschmidt);
    CHECK(back.omega == res.omega);
    CHECK(back.spectral == res.spectral);
  }

  // -- status and stats round trips -----------------------------------------
  {
    JobStatus st;
    st.id = 42;
    st.state = JobState::kFailed;
    st.kind = JobKind::kQuench;
    st.priority = 3;
    st.iteration = 17;
    st.matvecs = 204;
    st.metric = 3.25e-7;
    st.target = 1e-10;
    st.elapsed_s = 1.5;
    st.eta_s = 2.75;
    st.error_kind = "breakdown";
    st.error_message = "beta underflow";
    PayloadWriter w;
    encode_job_status(w, st);
    PayloadReader r(w.bytes());
    const JobStatus back = decode_job_status(r);
    r.require_end();
    CHECK_EQ(back.id, st.id);
    CHECK(back.state == st.state && back.kind == st.kind);
    CHECK_EQ(back.priority, st.priority);
    CHECK_EQ(back.iteration, st.iteration);
    CHECK_EQ(back.matvecs, st.matvecs);
    CHECK(back.metric == st.metric && back.target == st.target);
    CHECK(back.elapsed_s == st.elapsed_s && back.eta_s == st.eta_s);
    CHECK_EQ(back.error_kind, st.error_kind);
    CHECK_EQ(back.error_message, st.error_message);

    ServerStats ss;
    ss.submitted = 10;
    ss.completed = 7;
    ss.failed = 1;
    ss.cancelled = 2;
    ss.batch_passes = 3;
    ss.batched_jobs = 9;
    ss.cache_hits = 100;
    ss.cache_misses = 5;
    ss.cache_evictions = 1;
    ss.cache_bytes = 1 << 20;
    ss.cache_entries = 4;
    ss.queue_depth = 6;
    ss.running = 1;
    PayloadWriter w2;
    encode_server_stats(w2, ss);
    PayloadReader r2(w2.bytes());
    const ServerStats back2 = decode_server_stats(r2);
    r2.require_end();
    CHECK_EQ(back2.submitted, ss.submitted);
    CHECK_EQ(back2.completed, ss.completed);
    CHECK_EQ(back2.cancelled, ss.cancelled);
    CHECK_EQ(back2.batched_jobs, ss.batched_jobs);
    CHECK_EQ(back2.cache_bytes, ss.cache_bytes);
    CHECK_EQ(back2.running, ss.running);
  }

  // -- job_key / evolution_key semantics ------------------------------------
  {
    const JobSpec a = full_spec();
    JobSpec b = a;
    CHECK_EQ(job_key(a), job_key(b));
    b.priority = 0;  // priority is excluded: same artifact
    CHECK_EQ(job_key(a), job_key(b));
    b = a;
    b.seed += 1;  // any physics field changes the key
    CHECK(job_key(a) != job_key(b));
    b = a;
    b.lattice.u = 3.50001;
    CHECK(job_key(a) != job_key(b));

    // Observables do NOT enter the evolution key (that is the whole point
    // of batching), but dt/steps/occupation do.
    b = a;
    b.observables = {{ObservableKind::kDensity, 0, 0}};
    CHECK_EQ(evolution_key(a), evolution_key(b));
    CHECK(job_key(a) != job_key(b));
    b = a;
    b.dt = 0.125;
    CHECK(evolution_key(a) != evolution_key(b));
    b = a;
    b.initial_occupation = 0b111;
    CHECK(evolution_key(a) != evolution_key(b));
  }

  // -- validate_job_spec: protocol errors with field names ------------------
  {
    CHECK(throws_kind(ErrorKind::protocol, [] {
      JobSpec s = tiny_ground();
      s.lattice.lx = 0;
      validate_job_spec(s);
    }));
    CHECK(throws_kind(ErrorKind::protocol, [] {
      JobSpec s = tiny_ground();
      s.n_up = 5;  // only 4 up-modes on 2x2 spinful
      validate_job_spec(s);
    }));
    CHECK(throws_kind(ErrorKind::protocol, [] {
      JobSpec s = tiny_ground();
      s.tol = 0.0;
      validate_job_spec(s);
    }));
    CHECK(throws_kind(ErrorKind::protocol, [] {
      JobSpec s = tiny_ground();
      s.kind = JobKind::kExpectation;
      s.steps = 4;
      // expectation without observables
      validate_job_spec(s);
    }));
    CHECK(throws_kind(ErrorKind::protocol, [] {
      JobSpec s = tiny_ground();
      s.kind = JobKind::kQuench;
      s.steps = 4;
      s.use_sector = false;  // evolution requires a sector
      validate_job_spec(s);
    }));
    CHECK(throws_kind(ErrorKind::protocol, [] {
      JobSpec s = tiny_ground();
      s.kind = JobKind::kExpectation;
      s.steps = 4;
      s.observables = {{ObservableKind::kDensity, 99, 0}};
      validate_job_spec(s);
    }));
    CHECK(throws_kind(ErrorKind::protocol, [] {
      JobSpec s = tiny_ground();
      s.kind = JobKind::kSpectral;
      s.w_min = 5.0;
      s.w_max = -5.0;
      validate_job_spec(s);
    }));
    validate_job_spec(tiny_ground());  // and a good one passes
  }

  // -- validate_job_spec: the fetch reply must fit one frame ----------------
  // A result larger than kMaxFrameBytes would run and then never be
  // fetchable. Only specs are validated here, so nothing large is built.
  {
    PayloadWriter empty;
    empty.put_u32(static_cast<std::uint32_t>(MsgType::kFetchOk));
    encode_job_result(empty, JobResult{});
    const std::size_t fixed = empty.bytes().size();
    // The bound's model: a spectral reply adds 16 bytes per grid point and
    // an evolution reply 8 bytes per step and array (times, loschmidt and
    // one per observable).
    {
      JobResult r;
      r.omega.assign(33, 0.0);
      r.spectral.assign(33, 0.0);
      PayloadWriter w;
      w.put_u32(static_cast<std::uint32_t>(MsgType::kFetchOk));
      encode_job_result(w, r);
      CHECK_EQ(w.bytes().size(), fixed + 16 * 33);
      r = JobResult{};
      r.times.assign(7, 0.0);
      r.loschmidt.assign(7, 0.0);
      r.values.assign(7 * 3, 0.0);
      PayloadWriter w2;
      w2.put_u32(static_cast<std::uint32_t>(MsgType::kFetchOk));
      encode_job_result(w2, r);
      CHECK_EQ(w2.bytes().size(), fixed + 8 * 7 * (2 + 3));
    }
    const std::uint64_t doubles = (kMaxFrameBytes - fixed) / sizeof(double);
    const auto rejects = [](const JobSpec& s, const char* field) {
      try {
        validate_job_spec(s);
      } catch (const Error& e) {
        return e.kind() == ErrorKind::protocol &&
               std::string(e.what()).find(field) != std::string::npos;
      }
      return false;
    };

    JobSpec spectral = tiny_ground();
    spectral.kind = JobKind::kSpectral;
    validate_job_spec(spectral);  // the default 201-point grid
    spectral.w_points = doubles / 2;  // the largest grid that fits
    validate_job_spec(spectral);
    spectral.w_points = doubles / 2 + 1;
    CHECK(rejects(spectral, "w_points"));
    spectral.w_points = (std::uint64_t{1} << 24) + 1;
    CHECK(rejects(spectral, "w_points"));
    spectral.w_points = ~std::uint64_t{0};
    CHECK(rejects(spectral, "w_points"));

    JobSpec evolution = tiny_ground();
    evolution.kind = JobKind::kExpectation;
    evolution.steps = 100;
    evolution.observables = {{ObservableKind::kDensity, 0, 0},
                             {ObservableKind::kDoublon, 1, 0},
                             {ObservableKind::kTotalNumber, 0, 0}};
    validate_job_spec(evolution);
    evolution.steps = doubles / 5;  // times, loschmidt, 3 observables
    validate_job_spec(evolution);
    evolution.steps = doubles / 5 + 1;
    CHECK(rejects(evolution, "steps"));
    evolution.kind = JobKind::kQuench;
    evolution.observables.clear();
    evolution.steps = doubles / 2;
    validate_job_spec(evolution);
    evolution.steps = doubles / 2 + 1;
    CHECK(rejects(evolution, "steps"));
    evolution.steps = ~std::uint64_t{0};
    CHECK(rejects(evolution, "steps"));
  }

  // -- framed IO over a socketpair ------------------------------------------
  {
    int fds[2];
    CHECK_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const std::vector<unsigned char> payload = {0xde, 0xad, 0xbe, 0xef, 0x01};
    write_frame(fds[0], payload);
    const std::vector<unsigned char> got = read_frame(fds[1]);
    CHECK(got == payload);

    // Clean EOF before any byte -> empty vector, not an error.
    ::close(fds[0]);
    CHECK(read_frame(fds[1]).empty());
    ::close(fds[1]);

    // Truncation mid-frame: a length prefix promising more bytes than ever
    // arrive is a protocol error on the reader.
    CHECK_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const std::uint32_t lie = 100;
    CHECK_EQ(::write(fds[0], &lie, sizeof(lie)),
             static_cast<ssize_t>(sizeof(lie)));
    const unsigned char partial[10] = {};
    CHECK_EQ(::write(fds[0], partial, sizeof(partial)),
             static_cast<ssize_t>(sizeof(partial)));
    ::close(fds[0]);
    CHECK(throws_kind(ErrorKind::protocol, [&] { (void)read_frame(fds[1]); }));
    ::close(fds[1]);

    // Oversized length prefix: rejected before any allocation.
    CHECK_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const std::uint32_t huge = kMaxFrameBytes + 1;
    CHECK_EQ(::write(fds[0], &huge, sizeof(huge)),
             static_cast<ssize_t>(sizeof(huge)));
    CHECK(throws_kind(ErrorKind::protocol, [&] { (void)read_frame(fds[1]); }));
    ::close(fds[0]);
    ::close(fds[1]);
  }

  // -- error frames and expect_reply ----------------------------------------
  {
    const std::vector<unsigned char> frame =
        encode_error_frame(ErrorKind::not_found, "no such job: 7");
    try {
      (void)expect_reply(frame, MsgType::kFetchOk);
      CHECK(false);
    } catch (const Error& e) {
      CHECK(e.kind() == ErrorKind::not_found);
      CHECK(std::string(e.what()).find("no such job: 7") !=
            std::string::npos);
    }

    // A reply of the wrong type is a protocol error.
    PayloadWriter w;
    w.put_u32(static_cast<std::uint32_t>(MsgType::kStatusOk));
    const std::vector<unsigned char> wrong(w.bytes().begin(),
                                           w.bytes().end());
    CHECK(throws_kind(ErrorKind::protocol,
                      [&] { (void)expect_reply(wrong, MsgType::kFetchOk); }));

    // An unknown kind name from a newer peer degrades to protocol, still an
    // Error (never a crash).
    PayloadWriter we;
    we.put_u32(static_cast<std::uint32_t>(MsgType::kError));
    we.put_string("kind_from_the_future");
    we.put_string("message");
    const std::vector<unsigned char> future(we.bytes().begin(),
                                            we.bytes().end());
    CHECK(throws_kind(ErrorKind::protocol,
                      [&] { (void)expect_reply(future, MsgType::kFetchOk); }));
  }

  // -- live server + client over a real unix socket -------------------------
  {
    const std::string sock = "./gecos_test_proto.sock";
    Scheduler scheduler;  // no state dir: in-memory jobs only
    Server server(scheduler, sock);
    std::thread serve_thread([&] { server.serve(); });

    {
      Client client(sock);

      // Unknown ids travel back as the same Error an in-process call gives.
      CHECK(throws_kind(ErrorKind::not_found,
                        [&] { (void)client.status(999); }));
      CHECK(throws_kind(ErrorKind::not_found,
                        [&] { (void)client.fetch(999); }));
      CHECK(throws_kind(ErrorKind::not_found,
                        [&] { (void)client.cancel(999); }));

      // An invalid spec is rejected at submit with a protocol error, and so
      // is one whose result could never be fetched in one frame.
      CHECK(throws_kind(ErrorKind::protocol, [&] {
        JobSpec bad = tiny_ground();
        bad.lattice.lx = 0;
        (void)client.submit(bad);
      }));
      CHECK(throws_kind(ErrorKind::protocol, [&] {
        JobSpec bad = tiny_ground();
        bad.kind = JobKind::kSpectral;
        bad.w_points = (std::uint64_t{1} << 24) + 1;
        (void)client.submit(bad);
      }));

      // Submit, wait, fetch: the daemon result equals the in-process one.
      const std::uint64_t id = client.submit(tiny_ground());
      const JobStatus done = client.wait(id, 120.0);
      CHECK(done.state == JobState::kDone);
      const JobResult via_daemon = client.fetch(id);
      CHECK(via_daemon.converged);

      Scheduler local;
      const std::uint64_t lid = local.submit(tiny_ground());
      CHECK(local.wait(lid, 120.0));
      const JobResult local_res = local.fetch(lid);
      CHECK_EQ(via_daemon.eigenvalues.size(), local_res.eigenvalues.size());
      CHECK(std::memcmp(via_daemon.eigenvalues.data(),
                        local_res.eigenvalues.data(),
                        local_res.eigenvalues.size() * sizeof(double)) == 0);
      CHECK_EQ(via_daemon.matvecs, local_res.matvecs);
      local.stop(false);

      // Fetching a cancelled job reports cancelled; cancel of a terminal
      // job is refused.
      CHECK(!client.cancel(id));
      const ServerStats st = client.stats();
      CHECK_EQ(st.submitted, 1u);
      CHECK_EQ(st.completed, 1u);

      client.shutdown();
    }
    serve_thread.join();

    // Raw clients: a connected socket and a hand-rolled hello frame.
    const auto connect_raw = [&] {
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::memcpy(addr.sun_path, sock.c_str(), sock.size() + 1);
      const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      CHECK(fd >= 0);
      CHECK_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                         sizeof(addr)),
               0);
      return fd;
    };
    const auto send_hello = [](int fd, std::uint32_t version) {
      PayloadWriter w;
      w.put_u32(static_cast<std::uint32_t>(MsgType::kHello));
      w.put_string(std::string(kServeMagic, sizeof(kServeMagic)));
      w.put_u32(version);
      write_frame(fd, w.bytes());
    };

    // Handshake version drift: a hello with a bogus version gets a
    // version_mismatch error frame back.
    Server server2(scheduler, sock);
    std::thread serve2([&] { server2.serve(); });
    {
      const int fd = connect_raw();
      send_hello(fd, kServeVersion + 7);
      const std::vector<unsigned char> reply = read_frame(fd);
      CHECK(throws_kind(ErrorKind::version_mismatch, [&] {
        (void)expect_reply(reply, MsgType::kHelloOk);
      }));
      ::close(fd);
    }
    // Early hang-up: a client sends hello and leaves without reading the
    // reply. Shutting its read side first makes the daemon's reply meet a
    // closed reader every time (EPIPE), whatever the thread timing. The
    // daemon must drop that connection and keep serving: the next client's
    // hello and stats complete.
    {
      const int fd = connect_raw();
      CHECK_EQ(::shutdown(fd, SHUT_RD), 0);
      send_hello(fd, kServeVersion);
      ::close(fd);
      Client client(sock);
      CHECK_EQ(client.stats().submitted, 1u);
    }
    // Clean shutdown of the second server via a well-behaved client.
    {
      Client client(sock);
      client.shutdown();
    }
    serve2.join();
    scheduler.stop(false);
  }

  return gecos::test::finish("test_serve_protocol");
}

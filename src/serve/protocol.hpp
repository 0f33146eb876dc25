// gecosd wire protocol: framed, versioned request/reply messages.
//
// The serving layer (DESIGN.md "Serving layer") talks over a unix-domain
// socket in length-prefixed frames: a u32 byte count followed by that many
// payload bytes, serialized with the same PayloadWriter/PayloadReader
// primitives as the checkpoint format — native-endian raw fields, so a
// fetched eigenvalue is the solver's double bit-for-bit. Every payload
// begins with a u32 MsgType; the first frame on a connection must be kHello
// carrying the 8-byte protocol magic "GECOSRV1" and the protocol version,
// mirroring the GECOSCK1 checkpoint header so both on-disk and on-wire
// formats fail version drift loudly. Any server-side failure travels back
// as a kError frame holding the machine-readable error_kind_name() plus the
// human message; the client parses the kind and rethrows a gecos::Error, so
// a daemon hop is transparent to error-handling code. Malformed traffic
// (bad magic, oversized frame, short read, unknown message type) is
// ErrorKind::protocol everywhere.
//
// JobSpec is the one request schema for all four job kinds (ground state /
// quench / expectation / spectral): lattice + sector parameters key the
// job, job_key() hashes the canonical encoding MINUS the priority field
// (two submissions differing only in priority are the same work), and
// evolution_key() hashes the evolution-defining subset — the scheduler
// coalesces expectation jobs with equal evolution keys into one Krylov
// pass (observable batching). Results round-trip through JobResult with
// bitwise-exact doubles.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fermion/hubbard.hpp"
#include "io/checkpoint.hpp"
#include "util/error.hpp"

namespace gecos::serve {

/// 8-byte protocol magic carried by the kHello frame; the trailing '1' is
/// the coarse protocol generation (fine version in kServeVersion).
inline constexpr char kServeMagic[8] = {'G', 'E', 'C', 'O',
                                        'S', 'R', 'V', '1'};

/// Protocol version; a kHello carrying any other value is answered with a
/// version_mismatch error and the connection is closed.
inline constexpr std::uint32_t kServeVersion = 1;

/// Frame size ceiling (bytes). A length prefix beyond this is protocol
/// error — it is far above any legitimate job result and keeps a corrupt
/// or hostile prefix from driving a giant allocation.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 28;

/// Message type — the leading u32 of every frame payload. Requests are
/// odd-position, each paired with its *Ok reply; kError replaces any reply.
enum class MsgType : std::uint32_t {
  kHello = 1,       ///< magic + version handshake (first frame, both ways)
  kHelloOk = 2,     ///< handshake accepted
  kSubmit = 3,      ///< JobSpec -> job id
  kSubmitOk = 4,    ///< u64 job id
  kStatus = 5,      ///< u64 job id -> JobStatus
  kStatusOk = 6,    ///< encoded JobStatus
  kCancel = 7,      ///< u64 job id -> cancelled flag
  kCancelOk = 8,    ///< u32 1 = cancel accepted, 0 = already terminal
  kFetch = 9,       ///< u64 job id -> JobResult (done jobs only)
  kFetchOk = 10,    ///< encoded JobResult
  kShutdown = 11,   ///< stop accepting work and exit after the reply
  kShutdownOk = 12, ///< daemon is shutting down
  kStats = 13,      ///< -> ServerStats
  kStatsOk = 14,    ///< encoded ServerStats
  kError = 15,      ///< error_kind_name string + message string
};

/// What a job computes.
enum class JobKind : std::uint32_t {
  kGroundState = 1,  ///< k lowest eigenpairs via thick-restart Lanczos
  kQuench = 2,       ///< CDW quench: Loschmidt echo trajectory
  kExpectation = 3,  ///< quench + per-step observable expectations
  kSpectral = 4,     ///< continued-fraction spectral function of a probe
};

/// Lifecycle state of a submitted job.
enum class JobState : std::uint32_t {
  kQueued = 1,     ///< accepted, waiting for the executor
  kRunning = 2,    ///< on the executor thread now
  kDone = 3,       ///< result available via kFetch
  kFailed = 4,     ///< terminal error; status carries kind + message
  kCancelled = 5,  ///< cancelled before completing
};

/// Diagonal observable menu for expectation jobs. All entries are diagonal
/// in the occupation basis, so a batched pass measures each one with a
/// cheap elementwise sweep — no extra matvecs.
enum class ObservableKind : std::uint32_t {
  kDensity = 1,      ///< n_{site_a} (both spins when spinful)
  kDoublon = 2,      ///< n_{site_a,up} n_{site_a,down} (spinful lattices)
  kDensityCorr = 3,  ///< n_{site_a} n_{site_b} density-density correlator
  kTotalNumber = 4,  ///< total particle number N
};

/// One requested observable (site indices into the lx*ly lattice; unused
/// sites stay 0).
struct ObservableSpec {
  ObservableKind kind = ObservableKind::kDensity;  ///< which observable
  std::uint32_t site_a = 0;  ///< primary site index
  std::uint32_t site_b = 0;  ///< partner site (kDensityCorr only)
};

/// The one request schema for every job kind. Fields irrelevant to a kind
/// keep their defaults and still participate in job_key() — a canonical
/// spec is its own key.
struct JobSpec {
  JobKind kind = JobKind::kGroundState;  ///< what to compute
  HubbardParams lattice;                 ///< the lattice to build H from
  bool use_sector = true;   ///< restrict to the (n_up, n_down) sector
  std::uint32_t n_up = 0;   ///< sector count, species up (or total-N)
  std::uint32_t n_down = 0; ///< sector count, species down
  std::uint32_t num_eigenpairs = 1;     ///< ground state: k lowest pairs
  double tol = 1e-10;                   ///< solver residual tolerance
  std::uint64_t max_matvecs = 20000;    ///< solver matvec budget
  std::uint64_t seed = 20260730;        ///< start-vector seed
  std::uint64_t checkpoint_interval = 0; ///< matvecs between job checkpoints
  double dt = 0.02;                     ///< quench/expectation step size
  std::uint64_t steps = 0;              ///< quench/expectation step count
  /// Initial occupation bitmask for evolution jobs; 0 selects the CDW
  /// default hubbard_cdw_occupation(lattice).
  std::uint64_t initial_occupation = 0;
  std::vector<ObservableSpec> observables;  ///< expectation jobs
  double eta = 0.1;                  ///< spectral Lorentzian half-width
  std::uint64_t max_moments = 128;   ///< spectral continued-fraction depth
  double w_min = -10.0;              ///< spectral grid lower bound
  double w_max = 10.0;               ///< spectral grid upper bound
  std::uint64_t w_points = 201;      ///< spectral grid size
  /// Scheduling priority (higher runs first). Deliberately EXCLUDED from
  /// job_key(): priority changes scheduling, not the computed artifact.
  std::uint32_t priority = 0;
};

/// Result payload of a finished job; arrays round-trip bitwise. Evolution
/// values are row-major [step][observable].
struct JobResult {
  JobKind kind = JobKind::kGroundState;  ///< mirrors the spec kind
  std::vector<double> eigenvalues;       ///< ground state: ascending
  std::vector<double> residuals;         ///< ground state: per pair
  std::vector<double> residual_history;  ///< ground state: trajectory
  std::uint64_t matvecs = 0;     ///< operator applications spent
  std::uint64_t iterations = 0;  ///< solver iterations
  bool converged = false;        ///< solver converged within budget
  bool resumed = false;          ///< continued from a daemon checkpoint
  std::vector<double> times;     ///< evolution time points (step ends)
  std::vector<double> values;    ///< [step][observable] expectations (real)
  std::vector<double> loschmidt; ///< |<psi0|psi(t)>|^2 per step
  std::vector<double> omega;     ///< spectral grid
  std::vector<double> spectral;  ///< A(omega) on the grid
};

/// Point-in-time job status — the PR 9 progress fields over the wire.
struct JobStatus {
  std::uint64_t id = 0;                    ///< job id
  JobState state = JobState::kQueued;      ///< lifecycle state
  JobKind kind = JobKind::kGroundState;    ///< what it computes
  std::uint32_t priority = 0;              ///< scheduling priority
  std::uint64_t iteration = 0;             ///< solver iteration
  std::uint64_t matvecs = 0;               ///< operator applications
  double metric = 0.0;                     ///< current residual / estimate
  double target = 0.0;                     ///< convergence target
  double elapsed_s = 0.0;                  ///< solve wall time so far
  double eta_s = -1.0;                     ///< estimated remaining; <0 unknown
  std::string error_kind;     ///< error_kind_name() when state == kFailed
  std::string error_message;  ///< human message when state == kFailed
};

/// Daemon-side aggregate counters, served by kStats. The five cache_*
/// fields are reserved: gecosd keeps no cross-job cache, so they always
/// read 0, and they stay in the frame so existing readers of kStats (the
/// benchmark among them) keep decoding it.
struct ServerStats {
  std::uint64_t submitted = 0;     ///< jobs accepted
  std::uint64_t completed = 0;     ///< jobs reaching kDone
  std::uint64_t failed = 0;        ///< jobs reaching kFailed
  std::uint64_t cancelled = 0;     ///< jobs reaching kCancelled
  std::uint64_t batch_passes = 0;  ///< coalesced evolution passes run
  std::uint64_t batched_jobs = 0;  ///< expectation jobs served by them
  std::uint64_t cache_hits = 0;       ///< reserved, always 0
  std::uint64_t cache_misses = 0;     ///< reserved, always 0
  std::uint64_t cache_evictions = 0;  ///< reserved, always 0
  std::uint64_t cache_bytes = 0;      ///< reserved, always 0
  std::uint64_t cache_entries = 0;    ///< reserved, always 0
  std::uint64_t queue_depth = 0;   ///< jobs waiting
  std::uint64_t running = 0;       ///< jobs on the executor now
};

/// Validates a spec's structural invariants (lattice sizes, sector counts
/// vs mode counts, per-kind field ranges, observable site indices) and that
/// its result fits one kFetchOk frame (spectral grids of 16 * w_points
/// bytes, evolution trajectories of 8 * steps * (2 + observables) bytes,
/// plus the fixed fields, within kMaxFrameBytes). Throws Error{protocol}
/// naming the offending field.
void validate_job_spec(const JobSpec& spec);

/// Serializes a spec canonically (field order fixed; priority included
/// last). decode_job_spec() inverts it exactly.
void encode_job_spec(PayloadWriter& w, const JobSpec& spec);
/// Decodes a spec written by encode_job_spec(); throws Error{protocol} on
/// out-of-range enum values.
JobSpec decode_job_spec(PayloadReader& r);

/// Serializes a result; decode inverts it with bitwise-exact doubles.
void encode_job_result(PayloadWriter& w, const JobResult& res);
/// Decodes a result written by encode_job_result().
JobResult decode_job_result(PayloadReader& r);

/// Serializes a status snapshot; decode inverts it.
void encode_job_status(PayloadWriter& w, const JobStatus& st);
/// Decodes a status written by encode_job_status().
JobStatus decode_job_status(PayloadReader& r);

/// Serializes the daemon counters; decode inverts it.
void encode_server_stats(PayloadWriter& w, const ServerStats& st);
/// Decodes counters written by encode_server_stats().
ServerStats decode_server_stats(PayloadReader& r);

/// Content hash of a spec's canonical encoding with the priority field
/// zeroed: the identity of the computed result. Equal keys mean a
/// re-submit finds the same solver checkpoint.
std::uint64_t job_key(const JobSpec& spec);

/// Content hash of the evolution-defining subset (lattice, sector, dt,
/// steps, initial occupation, tol, seed): expectation jobs with equal
/// evolution keys share one state trajectory and are batched into a single
/// Krylov pass.
std::uint64_t evolution_key(const JobSpec& spec);

/// Blocking exact write of a length-prefixed frame to a socket fd. Throws
/// Error{protocol} on a short write, an oversized payload or a peer that
/// hung up (EPIPE; never SIGPIPE).
void write_frame(int fd, std::span<const unsigned char> payload);

/// Blocking exact read of one length-prefixed frame. Throws
/// Error{protocol} on EOF mid-frame or an oversized length prefix; an
/// immediate clean EOF (before any length byte) returns an empty vector so
/// servers can treat connection close as a non-error.
std::vector<unsigned char> read_frame(int fd);

/// Builds a kError frame payload from a gecos::Error (or any kind +
/// message pair) for the server's catch-all reply path.
std::vector<unsigned char> encode_error_frame(ErrorKind kind,
                                              const std::string& message);

/// If `payload` is a kError frame, parses kind + message and throws the
/// corresponding gecos::Error (unknown kind names map to
/// ErrorKind::protocol so newer daemons stay readable). Otherwise returns
/// a reader positioned AFTER the leading MsgType, which must equal
/// `expect` (Error{protocol} otherwise).
PayloadReader expect_reply(std::span<const unsigned char> payload,
                           MsgType expect);

}  // namespace gecos::serve

// Versioned, checksummed, crash-safe binary checkpoint format.
//
// Long solves (the recorded n=32 sector ground state is ~100 s single-core;
// ROADMAP item 2 targets n=36-40) die with nothing to show when the process
// is killed at matvec 150. This layer gives the Lanczos solver and the
// gecosd job journal a durable on-disk form. The wire layout is a fixed
// 24-byte header (8-byte magic "GECOSCK1", u32 format version, u32 payload
// kind, u64 payload size), the raw payload bytes, and a trailing XXH64
// digest of everything before it — see DESIGN.md "Checkpoint format &
// failure model" for the byte-exact table. Multi-byte fields are
// native-endian: a file moved across endianness fails the version check,
// which is the honest answer (the amplitude payload would be byte-swapped
// anyway).
//
// Writes are crash-safe by construction: the full image is written to a
// writer-unique side file `path + ".tmp.<pid>.<seq>"`, flushed and fsync'd,
// the previous checkpoint (if any) is rotated to `path + ".bak"`, and the
// tmp file renamed into place — both renames atomic on POSIX, so at every
// instant the path set contains at least one complete, validated
// checkpoint. The pid + sequence suffix makes concurrent writers (threads
// of one process, or a daemon and its tools racing on the same path) safe:
// each assembles its full image in a private side file, and the atomic
// renames guarantee the published file is always ONE writer's complete
// image, never an interleaving (pinned by tests/test_checkpoint.cpp's
// concurrent-writer test). Readers validate size floor,
// magic, checksum, version, payload-size consistency, and payload kind, in
// that order, and report failures through the gecos::Error taxonomy
// (io_corrupt / version_mismatch); read_checkpoint_with_fallback() falls
// back to the `.bak` rotation when the primary is missing or damaged —
// recovery always proceeds from the last good file.
//
// PayloadWriter/PayloadReader are the (de)serialization primitives: a
// little append-only byte builder and a bounds-checked cursor. Amplitudes
// are memcpy'd as raw IEEE doubles, so a write/read round trip is bitwise
// exact — including signed zeros and NaN payloads.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "linalg/blas1.hpp"
#include "util/error.hpp"

namespace gecos {

/// 8-byte file magic; the trailing '1' is a coarse format generation (the
/// fine version lives in the header's version field).
inline constexpr char kCheckpointMagic[8] = {'G', 'E', 'C', 'O',
                                             'S', 'C', 'K', '1'};

/// Current checkpoint format version. Readers accept exactly this version
/// and throw Error{version_mismatch} for anything else.
inline constexpr std::uint32_t kCheckpointVersion = 1;

/// Size of the fixed header (magic + version + kind + payload size).
inline constexpr std::size_t kCheckpointHeaderSize = 24;

/// What a checkpoint's payload contains. Stored in the header so a reader
/// rejects e.g. a gecosd journal handed to Lanczos::resume(). Kinds 1-3
/// (state vector, sector vector, sector basis) and 5 (imaginary-time
/// state) are retired: no build writes them, and they are never reused.
enum class PayloadKind : std::uint32_t {
  kLanczosState = 4,  ///< mid-flight thick-restart Lanczos solver state
  kServeJob = 6,      ///< gecosd job journal: spec + state + result payload
};

/// Append-only payload builder. All put_* calls append native-endian raw
/// bytes; bytes() views the accumulated buffer for write_checkpoint().
class PayloadWriter {
 public:
  /// Appends a 32-bit unsigned integer.
  void put_u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  /// Appends a 64-bit unsigned integer.
  void put_u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  /// Appends an IEEE double, bit-exact.
  void put_f64(double v) { raw(&v, sizeof(v)); }
  /// Appends a complex amplitude span as raw interleaved (re, im) doubles.
  void put_cplx(std::span<const cplx> v) { raw(v.data(), v.size_bytes()); }
  /// Appends a length-prefixed (u64) byte string.
  void put_string(const std::string& s);
  /// View of the accumulated payload bytes.
  std::span<const unsigned char> bytes() const { return buf_; }

 private:
  void raw(const void* p, std::size_t n);

  std::vector<unsigned char> buf_;
};

/// Bounds-checked payload cursor. Every get_* advances the read position
/// and throws Error{io_corrupt} when the payload is too short; a checksum-
/// valid file can still be structurally short if written by buggy code, so
/// readers never trust lengths blindly.
class PayloadReader {
 public:
  /// Wraps a payload byte span (not owned; must outlive the reader).
  explicit PayloadReader(std::span<const unsigned char> data) : data_(data) {}

  /// Reads a 32-bit unsigned integer.
  std::uint32_t get_u32();
  /// Reads a 64-bit unsigned integer.
  std::uint64_t get_u64();
  /// Reads an IEEE double, bit-exact.
  double get_f64();
  /// Reads out.size() complex amplitudes into `out`.
  void get_cplx(std::span<cplx> out);
  /// Reads a length-prefixed (u64) byte string.
  std::string get_string();
  /// Bytes not yet consumed.
  std::size_t remaining() const { return data_.size() - pos_; }
  /// Throws Error{io_corrupt} unless the whole payload was consumed —
  /// trailing junk means the payload and its descriptor disagree.
  void require_end() const;

 private:
  const unsigned char* raw(std::size_t n);

  std::span<const unsigned char> data_;
  std::size_t pos_ = 0;
};

/// A validated checkpoint image: its payload kind, the payload bytes, and
/// whether it was served from the `.bak` rotation instead of the primary.
struct Checkpoint {
  PayloadKind kind{};                  ///< header payload kind
  std::vector<unsigned char> payload;  ///< validated payload bytes
  bool from_backup = false;  ///< true when read from path + ".bak"
};

/// Atomically writes a checkpoint: full image to a writer-unique
/// `path + ".tmp.<pid>.<seq>"` side file (fsync'd), existing `path` rotated
/// to `path + ".bak"`, tmp renamed into place. Safe against concurrent
/// writers on the same path (each publishes a complete image; see the file
/// comment). Throws Error{io_corrupt} on any filesystem failure.
void write_checkpoint(const std::string& path, PayloadKind kind,
                      std::span<const unsigned char> payload);

/// Reads and fully validates `path` (size floor, magic, checksum, version,
/// payload-size consistency — in that order). Throws Error{io_corrupt} or
/// Error{version_mismatch}.
Checkpoint read_checkpoint(const std::string& path);

/// read_checkpoint() plus a payload-kind requirement; a kind mismatch is
/// Error{io_corrupt} ("wrong payload kind").
Checkpoint read_checkpoint(const std::string& path, PayloadKind expect);

/// Reads `path`, falling back to `path + ".bak"` when the primary is
/// missing or fails validation. Rethrows the primary's error when both are
/// bad; sets Checkpoint::from_backup when the rotation was used.
Checkpoint read_checkpoint_with_fallback(const std::string& path,
                                         PayloadKind expect);

/// True when `path` or its `.bak` rotation exists on disk (existence only;
/// no validation).
bool checkpoint_exists(const std::string& path);

/// Removes `path`, its `.bak` rotation and every writer side file
/// `path + ".tmp.*"` left by an interrupted write (one scan of the parent
/// directory). Must not race a write_checkpoint() on the same path: the
/// writer's side file would vanish before its rename. Never throws.
void remove_checkpoint(const std::string& path) noexcept;

}  // namespace gecos

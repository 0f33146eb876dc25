// Checkpoint wire format: header/payload/digest assembly, atomic
// tmp+fsync+rename writes with .bak rotation, and strict staged validation
// on read (size floor -> magic -> checksum -> version -> descriptor).
#include "io/checkpoint.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "io/xxhash.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace gecos {

namespace {

/// Minimum possible file size: header + empty payload + trailing digest.
constexpr std::size_t kMinFileSize = kCheckpointHeaderSize + 8;

std::string errno_text() { return std::strerror(errno); }

/// Reads a whole file into a byte vector; false when it cannot be opened.
bool slurp(const std::string& path, std::vector<unsigned char>& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return false;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  if (size < 0) {
    std::fclose(f);
    throw Error(ErrorKind::io_corrupt, path + ": ftell: " + errno_text());
  }
  std::fseek(f, 0, SEEK_SET);
  out.resize(static_cast<std::size_t>(size));
  const std::size_t got = size ? std::fread(out.data(), 1, out.size(), f) : 0;
  std::fclose(f);
  if (got != out.size())
    throw Error(ErrorKind::io_corrupt, path + ": short read");
  return true;
}

/// The directory containing `path` ("." for a bare file name).
std::string parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".")
                                    : path.substr(0, slash ? slash : 1);
}

/// fsync the directory containing `path` so the renames themselves are
/// durable (best-effort: some filesystems reject directory fsync).
void sync_parent_dir(const std::string& path) {
  const int fd = ::open(parent_dir(path).c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

/// Parses and validates a complete checkpoint image. The validation order
/// is part of the format contract (documented in DESIGN.md): size floor,
/// magic, checksum, version, payload-size consistency.
Checkpoint parse(const std::string& path,
                 std::vector<unsigned char>&& bytes) {
  if (bytes.size() < kMinFileSize)
    throw Error(ErrorKind::io_corrupt,
                path + ": file too short (" + std::to_string(bytes.size()) +
                    " bytes) to be a checkpoint");
  if (std::memcmp(bytes.data(), kCheckpointMagic, sizeof(kCheckpointMagic)))
    throw Error(ErrorKind::io_corrupt, path + ": bad magic");

  const std::size_t hashed = bytes.size() - 8;
  std::uint64_t stored;
  std::memcpy(&stored, bytes.data() + hashed, 8);
  if (xxh64(bytes.data(), hashed) != stored)
    throw Error(ErrorKind::io_corrupt, path + ": checksum mismatch");

  std::uint32_t version, kind_raw;
  std::uint64_t payload_size;
  std::memcpy(&version, bytes.data() + 8, 4);
  std::memcpy(&kind_raw, bytes.data() + 12, 4);
  std::memcpy(&payload_size, bytes.data() + 16, 8);
  if (version != kCheckpointVersion)
    throw Error(ErrorKind::version_mismatch,
                path + ": format version " + std::to_string(version) +
                    ", this build reads version " +
                    std::to_string(kCheckpointVersion));
  if (payload_size != hashed - kCheckpointHeaderSize)
    throw Error(ErrorKind::io_corrupt,
                path + ": payload size field disagrees with file size");

  Checkpoint ck;
  ck.kind = static_cast<PayloadKind>(kind_raw);
  ck.payload.assign(bytes.begin() + kCheckpointHeaderSize,
                    bytes.begin() + static_cast<std::ptrdiff_t>(hashed));
  return ck;
}

}  // namespace

// ---------------------------------------------------------------------------
// PayloadWriter / PayloadReader

void PayloadWriter::raw(const void* p, std::size_t n) {
  const unsigned char* b = static_cast<const unsigned char*>(p);
  buf_.insert(buf_.end(), b, b + n);
}

void PayloadWriter::put_string(const std::string& s) {
  put_u64(s.size());
  raw(s.data(), s.size());
}

const unsigned char* PayloadReader::raw(std::size_t n) {
  if (n > data_.size() - pos_)
    throw Error(ErrorKind::io_corrupt,
                "payload truncated: need " + std::to_string(n) +
                    " bytes at offset " + std::to_string(pos_) + ", have " +
                    std::to_string(data_.size() - pos_));
  const unsigned char* p = data_.data() + pos_;
  pos_ += n;
  return p;
}

std::uint32_t PayloadReader::get_u32() {
  std::uint32_t v;
  std::memcpy(&v, raw(sizeof(v)), sizeof(v));
  return v;
}

std::uint64_t PayloadReader::get_u64() {
  std::uint64_t v;
  std::memcpy(&v, raw(sizeof(v)), sizeof(v));
  return v;
}

double PayloadReader::get_f64() {
  double v;
  std::memcpy(&v, raw(sizeof(v)), sizeof(v));
  return v;
}

void PayloadReader::get_cplx(std::span<cplx> out) {
  std::memcpy(out.data(), raw(out.size_bytes()), out.size_bytes());
}

std::string PayloadReader::get_string() {
  const std::uint64_t n = get_u64();
  if (n > data_.size() - pos_)
    throw Error(ErrorKind::io_corrupt,
                "payload truncated inside a string field");
  const unsigned char* p = raw(static_cast<std::size_t>(n));
  return std::string(reinterpret_cast<const char*>(p),
                     static_cast<std::size_t>(n));
}

void PayloadReader::require_end() const {
  if (pos_ != data_.size())
    throw Error(ErrorKind::io_corrupt,
                "payload has " + std::to_string(data_.size() - pos_) +
                    " trailing bytes past its descriptor");
}

// ---------------------------------------------------------------------------
// File-level read/write

void write_checkpoint(const std::string& path, PayloadKind kind,
                      std::span<const unsigned char> payload) {
  GECOS_SPAN("checkpoint.write");
  const bool metrics = telemetry::metrics_enabled();
  const std::uint64_t t0 = metrics ? telemetry::now_ns() : 0;
  // Assemble the full image in memory: header, payload, trailing digest.
  std::vector<unsigned char> image(kCheckpointHeaderSize + payload.size() + 8);
  std::memcpy(image.data(), kCheckpointMagic, sizeof(kCheckpointMagic));
  const std::uint32_t version = kCheckpointVersion;
  const std::uint32_t kind_raw = static_cast<std::uint32_t>(kind);
  const std::uint64_t payload_size = payload.size();
  std::memcpy(image.data() + 8, &version, 4);
  std::memcpy(image.data() + 12, &kind_raw, 4);
  std::memcpy(image.data() + 16, &payload_size, 8);
  if (!payload.empty())
    std::memcpy(image.data() + kCheckpointHeaderSize, payload.data(),
                payload.size());
  const std::size_t hashed = image.size() - 8;
  const std::uint64_t digest = xxh64(image.data(), hashed);
  std::memcpy(image.data() + hashed, &digest, 8);

  // Durable write to a writer-unique side file first; the primary is never
  // opened for writing, so a crash at any point here leaves it untouched.
  // The pid + sequence suffix keeps concurrent writers (two checkpointing
  // threads, or a daemon racing its tools) out of each other's buffers: a
  // fixed ".tmp" name would interleave two writers' bytes in one file and
  // publish garbage through the rename. With unique side files every rename
  // publishes one writer's COMPLETE image; the final path/bak pair is some
  // serialization of the racers, each file individually valid.
  static std::atomic<std::uint64_t> write_seq{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(write_seq.fetch_add(1, std::memory_order_relaxed));
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f)
    throw Error(ErrorKind::io_corrupt, tmp + ": open: " + errno_text());
  const bool wrote =
      std::fwrite(image.data(), 1, image.size(), f) == image.size() &&
      std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  if (std::fclose(f) != 0 || !wrote) {
    std::remove(tmp.c_str());
    throw Error(ErrorKind::io_corrupt, tmp + ": write: " + errno_text());
  }

  // Rotate the previous checkpoint, then publish. Each rename is atomic;
  // between them the last good image lives at .bak.
  std::rename(path.c_str(), (path + ".bak").c_str());  // ok if absent
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw Error(ErrorKind::io_corrupt, path + ": rename: " + errno_text());
  }
  sync_parent_dir(path);
  if (metrics)
    telemetry::observe(telemetry::Hist::checkpoint_write_ns,
                       telemetry::now_ns() - t0);
}

Checkpoint read_checkpoint(const std::string& path) {
  GECOS_SPAN("checkpoint.read");
  std::vector<unsigned char> bytes;
  if (!slurp(path, bytes))
    throw Error(ErrorKind::io_corrupt, path + ": cannot open: " +
                                           errno_text());
  Checkpoint ck = parse(path, std::move(bytes));
  telemetry::count(telemetry::Counter::checkpoint_restores);
  return ck;
}

Checkpoint read_checkpoint(const std::string& path, PayloadKind expect) {
  Checkpoint ck = read_checkpoint(path);
  if (ck.kind != expect)
    throw Error(ErrorKind::io_corrupt,
                path + ": wrong payload kind " +
                    std::to_string(static_cast<std::uint32_t>(ck.kind)) +
                    " (expected " +
                    std::to_string(static_cast<std::uint32_t>(expect)) + ")");
  return ck;
}

Checkpoint read_checkpoint_with_fallback(const std::string& path,
                                         PayloadKind expect) {
  try {
    return read_checkpoint(path, expect);
  } catch (const Error& primary_error) {
    try {
      Checkpoint ck = read_checkpoint(path + ".bak", expect);
      ck.from_backup = true;
      return ck;
    } catch (const Error&) {
      throw primary_error;  // the primary's diagnosis is the useful one
    }
  }
}

bool checkpoint_exists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0 ||
         ::access((path + ".bak").c_str(), F_OK) == 0;
}

void remove_checkpoint(const std::string& path) noexcept {
  std::remove(path.c_str());
  std::remove((path + ".bak").c_str());
  // Side files of writers killed between fopen and rename. Names are
  // collected first so the directory is not modified mid-scan.
  const std::string dir = parent_dir(path);
  const std::string prefix = path.substr(path.find_last_of('/') + 1) + ".tmp.";
  DIR* d = ::opendir(dir.c_str());
  if (!d) return;
  std::vector<std::string> stale;
  while (const dirent* e = ::readdir(d))
    if (std::strncmp(e->d_name, prefix.c_str(), prefix.size()) == 0)
      stale.push_back(dir + "/" + e->d_name);
  ::closedir(d);
  for (const std::string& f : stale) std::remove(f.c_str());
}

}  // namespace gecos

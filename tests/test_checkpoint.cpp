// Checkpoint-format suite: error taxonomy, XXH64 reference vectors,
// bitwise write/read round trips of Lanczos-state and gecosd-journal
// payloads, payload-kind confusion, the full corruption matrix (truncations
// at every 64-byte boundary, single bit-flips across
// header/payload/checksum, wrong magic, version skew) with a 100% detection
// requirement, the .bak fallback that recovery is built on, writer side
// files (ignored by readers, deleted by remove_checkpoint), and the
// concurrent-writer guarantee: two threads hammering one path each publish
// complete images — a reader never sees an interleaving of both.
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "fault_inject.hpp"
#include "io/checkpoint.hpp"
#include "io/xxhash.hpp"
#include "test_util.hpp"
#include "util/error.hpp"

using namespace gecos;

namespace {

/// True when fn() throws a gecos::Error of exactly the given kind.
bool throws_kind(ErrorKind kind, const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.kind() == kind;
  } catch (...) {
    return false;
  }
  return false;
}

/// True when fn() throws any gecos::Error (detection, kind not pinned).
bool throws_error(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error&) {
    return true;
  } catch (...) {
    return false;
  }
  return false;
}

/// An amplitude payload laid out as a 6-qubit state's (n, dim, then 64
/// seeded Gaussian amplitudes): 1,040 bytes.
std::vector<unsigned char> amp_payload(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> g;
  std::vector<cplx> amps(64);
  for (cplx& a : amps) a = cplx(g(rng), g(rng));
  PayloadWriter w;
  w.put_u64(6);
  w.put_u64(amps.size());
  w.put_cplx(amps);
  return {w.bytes().begin(), w.bytes().end()};
}

/// Payload of the fallback-aware read of `path` expecting `kind`.
std::vector<unsigned char> load(const std::string& path, PayloadKind kind) {
  return read_checkpoint_with_fallback(path, kind).payload;
}

bool file_exists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

}  // namespace

int main() {
  // -- error taxonomy basics ------------------------------------------------
  {
    const Error e(ErrorKind::io_corrupt, "details");
    CHECK(e.kind() == ErrorKind::io_corrupt);
    CHECK_EQ(std::string(e.what()), std::string("io_corrupt: details"));
    CHECK_EQ(std::string(to_string(ErrorKind::version_mismatch)),
             std::string("version_mismatch"));
    CHECK_EQ(std::string(to_string(ErrorKind::numerical_nan)),
             std::string("numerical_nan"));
    // It is a runtime_error, so legacy catch sites still see it.
    const std::runtime_error& base = e;
    CHECK(std::strstr(base.what(), "details") != nullptr);
  }

  // -- XXH64 reference vectors (spec test values) ---------------------------
  {
    CHECK_EQ(xxh64("", 0), 0xEF46DB3751D8E999ULL);
    CHECK_EQ(xxh64("a", 1), 0xD24EC4F1A98C6E5BULL);
    CHECK_EQ(xxh64("abc", 3), 0x44BC2CF5AD770999ULL);
    const char fox[] = "The quick brown fox jumps over the lazy dog";
    CHECK_EQ(xxh64(fox, sizeof(fox) - 1), 0x0B242D361FDA71BCULL);
    // Seed participates; single-byte change avalanches.
    CHECK(xxh64("abc", 3, 1) != xxh64("abc", 3, 0));
    CHECK(xxh64("abd", 3) != xxh64("abc", 3));
  }

  // -- PayloadWriter/PayloadReader: typed round trip + bounds checking ------
  {
    PayloadWriter w;
    w.put_u32(0xDEADBEEFu);
    w.put_u64(0x0123456789ABCDEFULL);
    w.put_f64(-13.8785798502);
    w.put_string("rng-state blob");
    const std::vector<cplx> amps = {cplx(1.5, -2.5), cplx(0.0, 3.25)};
    w.put_cplx(amps);

    PayloadReader r(w.bytes());
    CHECK_EQ(r.get_u32(), 0xDEADBEEFu);
    CHECK_EQ(r.get_u64(), 0x0123456789ABCDEFULL);
    CHECK_EQ(r.get_f64(), -13.8785798502);
    CHECK_EQ(r.get_string(), std::string("rng-state blob"));
    std::vector<cplx> back(2);
    r.get_cplx(back);
    CHECK(std::memcmp(back.data(), amps.data(), 2 * sizeof(cplx)) == 0);
    r.require_end();  // consumed exactly

    PayloadReader over(w.bytes());
    over.get_u64();
    CHECK(throws_kind(ErrorKind::io_corrupt, [&] {
      for (int i = 0; i < 100; ++i) over.get_u64();  // walks off the end
    }));
    PayloadReader under(w.bytes());
    under.get_u32();
    CHECK(throws_kind(ErrorKind::io_corrupt, [&] { under.require_end(); }));
  }

  // -- property round trips: random payload -> write -> read -> bitwise equal
  const std::string path = "ckpt_test_state.bin";
  remove_checkpoint(path);
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    const std::vector<unsigned char> payload = amp_payload(seed);
    write_checkpoint(path, PayloadKind::kLanczosState, payload);
    const Checkpoint back =
        read_checkpoint_with_fallback(path, PayloadKind::kLanczosState);
    CHECK(back.kind == PayloadKind::kLanczosState);
    CHECK(!back.from_backup);
    CHECK(back.payload == payload);
  }
  {
    // A journal-shaped payload: strings, integers and raw doubles,
    // including a signed zero and a NaN payload, come back bit for bit.
    PayloadWriter w;
    w.put_string("job spec");
    w.put_u32(6);
    w.put_f64(-0.0);
    w.put_f64(std::numeric_limits<double>::quiet_NaN());
    const std::vector<unsigned char> journal(w.bytes().begin(),
                                             w.bytes().end());
    const std::string jpath = "ckpt_test_journal.bin";
    remove_checkpoint(jpath);
    write_checkpoint(jpath, PayloadKind::kServeJob, journal);
    CHECK(load(jpath, PayloadKind::kServeJob) == journal);

    // Empty payloads are legal images too.
    const std::string epath = "ckpt_test_empty.bin";
    remove_checkpoint(epath);
    write_checkpoint(epath, PayloadKind::kLanczosState, {});
    CHECK(load(epath, PayloadKind::kLanczosState).empty());

    // Payload-kind confusion is detected, not misparsed.
    CHECK(throws_kind(ErrorKind::io_corrupt, [&] {
      (void)read_checkpoint(jpath, PayloadKind::kLanczosState);
    }));
    CHECK(throws_kind(ErrorKind::io_corrupt, [&] {
      (void)load(epath, PayloadKind::kServeJob);
    }));
    remove_checkpoint(jpath);
    remove_checkpoint(epath);
  }

  // -- corruption matrix: every injected fault must be detected -------------
  {
    const std::vector<unsigned char> payload = amp_payload(5);
    remove_checkpoint(path);
    // Fresh file, no .bak to fall back to.
    write_checkpoint(path, PayloadKind::kLanczosState, payload);
    const std::vector<unsigned char> pristine = test::read_file(path);
    std::size_t injected = 0, detected = 0;

    const auto expect_detection = [&](const std::function<void()>& corrupt) {
      test::write_file(path, pristine);
      corrupt();
      ++injected;
      if (throws_error([&] { (void)read_checkpoint(path); })) ++detected;
    };

    // Truncation at every 64-byte boundary, plus one byte short of intact.
    for (std::size_t keep = 0; keep < pristine.size(); keep += 64)
      expect_detection([&] { test::truncate_file(path, keep); });
    expect_detection([&] { test::truncate_file(path, pristine.size() - 1); });

    // Single bit-flips: every byte of the 24-byte header and the 8-byte
    // trailing checksum, and a stride through the payload; rotate the bit
    // index so all eight bit positions are exercised.
    for (std::size_t off = 0; off < 24; ++off)
      expect_detection([&] { test::flip_bit(path, off, off % 8); });
    for (std::size_t off = pristine.size() - 8; off < pristine.size(); ++off)
      expect_detection([&] { test::flip_bit(path, off, off % 8); });
    for (std::size_t off = 24; off < pristine.size() - 8; off += 7)
      expect_detection([&] { test::flip_bit(path, off, off % 8); });

    // Wrong magic and version skew (version skew is checksum-valid, so it
    // must surface as version_mismatch specifically).
    expect_detection([&] { test::corrupt_magic(path); });
    test::write_file(path, pristine);
    test::rewrite_version(path, 999);
    ++injected;
    if (throws_kind(ErrorKind::version_mismatch,
                    [&] { (void)read_checkpoint(path); }))
      ++detected;
    test::write_file(path, pristine);
    test::rewrite_version(path, 0);
    ++injected;
    if (throws_kind(ErrorKind::version_mismatch,
                    [&] { (void)read_checkpoint(path); }))
      ++detected;

    std::printf("corruption matrix: %zu/%zu detected\n", detected, injected);
    CHECK_EQ(detected, injected);  // 100% detection, no exceptions

    // And the pristine bytes still load (the matrix tested the file, not
    // the reader's goodwill).
    test::write_file(path, pristine);
    CHECK(load(path, PayloadKind::kLanczosState) == payload);
  }

  // -- atomic rotation and .bak recovery ------------------------------------
  {
    const PayloadKind kind = PayloadKind::kLanczosState;
    const std::vector<unsigned char> first = amp_payload(11);
    const std::vector<unsigned char> second = amp_payload(22);
    remove_checkpoint(path);
    write_checkpoint(path, kind, first);
    write_checkpoint(path, kind, second);  // rotates first -> .bak

    // Primary intact: primary wins.
    CHECK(load(path, kind) == second);

    // Primary corrupted: recovery proceeds from the last good file.
    test::flip_bit(path, 100, 3);
    const Checkpoint ck = read_checkpoint_with_fallback(path, kind);
    CHECK(ck.from_backup);
    CHECK(ck.payload == first);

    // Primary missing entirely: same story.
    test::remove_file(path);
    CHECK(load(path, kind) == first);
    CHECK(checkpoint_exists(path));  // .bak counts as existence

    // Both damaged: the primary's diagnosis is what surfaces.
    write_checkpoint(path, kind, second);
    test::flip_bit(path, 50, 1);
    test::flip_bit(path + ".bak", 50, 1);
    CHECK(throws_kind(ErrorKind::io_corrupt, [&] { (void)load(path, kind); }));
  }

  // -- writer side files: a torn write that never renamed leaves
  // `path.tmp.<pid>.<seq>`; readers ignore it and remove_checkpoint deletes
  // it, in the working directory and in a named one ------------------------
  {
    const PayloadKind kind = PayloadKind::kLanczosState;
    const std::vector<unsigned char> first = amp_payload(11);
    ::mkdir("ckpt_test_dir", 0755);  // may exist from an earlier run
    const std::string dpath = "ckpt_test_dir/job.ckpt";
    for (const std::string& p : {path, dpath}) {
      remove_checkpoint(p);
      write_checkpoint(p, kind, first);
      const std::string stray = p + ".tmp.4242.7";
      const std::string other = p + "x.tmp.4242.7";  // another checkpoint's
      test::write_file(stray, {0xDE, 0xAD});
      test::write_file(other, {0xBE, 0xEF});
      CHECK(load(p, kind) == first);
      CHECK(!read_checkpoint_with_fallback(p, kind).from_backup);
      remove_checkpoint(p);
      CHECK(!checkpoint_exists(p));
      CHECK(!file_exists(stray));
      CHECK(file_exists(other));
      test::remove_file(other);
    }
    ::rmdir("ckpt_test_dir");
  }

  // -- concurrent writers on one path: complete images, never interleaved ---
  {
    // Two writer threads race ~50 write_checkpoint() calls each on the SAME
    // path (the gecosd journal scenario: an executor finishing a job while
    // a second scheduler instance journals a resubmission). The atomic
    // side-file + rename protocol promises every published file is one
    // writer's complete payload. Each payload is self-describing — writer
    // id, sequence number, and 1024 words derived from both — so a reader
    // can prove non-interleaving word by word.
    const std::string cpath = "ckpt_test_concurrent.bin";
    remove_checkpoint(cpath);
    constexpr int kWrites = 50;
    constexpr std::size_t kWords = 1024;

    const auto encode = [](std::uint64_t writer, std::uint64_t seq) {
      PayloadWriter w;
      w.put_u64(writer);
      w.put_u64(seq);
      for (std::size_t i = 0; i < kWords; ++i)
        w.put_u64(writer * 1000003 + seq * 31 + i);
      return std::vector<unsigned char>(w.bytes().begin(), w.bytes().end());
    };
    // Returns true when the payload is one writer's complete image.
    const auto coherent = [&](std::span<const unsigned char> payload) {
      PayloadReader r(payload);
      const std::uint64_t writer = r.get_u64();
      const std::uint64_t seq = r.get_u64();
      if (writer != 1 && writer != 2) return false;
      for (std::size_t i = 0; i < kWords; ++i)
        if (r.get_u64() != writer * 1000003 + seq * 31 + i) return false;
      r.require_end();
      return true;
    };

    std::atomic<bool> stop_reader{false};
    std::atomic<int> incoherent{0};
    std::atomic<int> good_reads{0};
    const auto writer = [&](std::uint64_t id) {
      for (int s = 0; s < kWrites; ++s)
        write_checkpoint(cpath, PayloadKind::kServeJob,
                         encode(id, static_cast<std::uint64_t>(s)));
    };
    std::thread reader([&] {
      while (!stop_reader.load(std::memory_order_relaxed)) {
        try {
          const Checkpoint ck =
              read_checkpoint_with_fallback(cpath, PayloadKind::kServeJob);
          if (coherent(ck.payload)) good_reads.fetch_add(1);
          else incoherent.fetch_add(1);
        } catch (const Error&) {
          // Transient rotation windows (primary and .bak both mid-rename)
          // may surface as missing/corrupt; that is allowed — what is NOT
          // allowed is a successful read of an interleaved image.
        }
      }
    });
    std::thread w1(writer, 1);
    std::thread w2(writer, 2);
    w1.join();
    w2.join();
    stop_reader.store(true);
    reader.join();

    CHECK_EQ(incoherent.load(), 0);  // every successful read was coherent
    CHECK(good_reads.load() > 0);    // and the reader did observe images

    // After the dust settles both the primary and the rotated .bak are
    // valid, complete images.
    const Checkpoint final_ck = read_checkpoint(cpath, PayloadKind::kServeJob);
    CHECK(coherent(final_ck.payload));
    const Checkpoint bak_ck =
        read_checkpoint(cpath + ".bak", PayloadKind::kServeJob);
    CHECK(coherent(bak_ck.payload));
    remove_checkpoint(cpath);
  }

  return gecos::test::finish("test_checkpoint");
}

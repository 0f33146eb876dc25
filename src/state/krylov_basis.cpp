#include "state/krylov_basis.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "simd/kernels.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace gecos {

KrylovBasis::KrylovBasis(std::size_t dim, std::size_t capacity)
    : dim_(dim), capacity_(capacity) {
  if (dim == 0 || capacity == 0)
    throw std::invalid_argument("KrylovBasis: dim and capacity must be >= 1");
  if (dim > std::numeric_limits<std::size_t>::max() / sizeof(cplx) / capacity)
    throw Error(ErrorKind::dim_mismatch,
                "KrylovBasis: " + std::to_string(dim) + " x " +
                    std::to_string(capacity) +
                    " amplitudes overflow addressable memory");
  try {
    store_.assign(dim * capacity, cplx(0.0));
  } catch (const std::bad_alloc&) {
    throw Error(ErrorKind::dim_mismatch,
                "KrylovBasis: allocation of " +
                    std::to_string(dim * capacity * sizeof(cplx)) +
                    " bytes failed (dim " + std::to_string(dim) +
                    ", capacity " + std::to_string(capacity) + ")");
  }
}

KrylovBasis::~KrylovBasis() {
  // A freed block can stay in the heap while the next basis lands elsewhere
  // (glibc serves large aligned requests from a fragmented heap once one
  // such block has been unmapped), so two bases' pages would stay resident.
  // Dropping the pages first keeps only live bases resident. Smaller
  // blocks keep theirs: a service reuses them job after job, and on the
  // 4-vCPU VM building a released 10 MiB basis again took 4.2 ms against
  // 0.4 ms on reused pages. Advisory: on failure the pages just stay.
  const std::size_t bytes = store_.size() * sizeof(cplx);
  if (bytes < kReleaseBytes) return;
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const auto lo = reinterpret_cast<std::uintptr_t>(store_.data());
  const std::uintptr_t first = (lo + page - 1) & ~(page - 1);
  const std::uintptr_t last = (lo + bytes) & ~(page - 1);
  if (last > first)
    ::madvise(reinterpret_cast<void*>(first), last - first, MADV_DONTNEED);
}

void KrylovBasis::reset(std::size_t dim) {
  assert(dim >= 1 && dim * capacity_ <= store_.size() &&
         "KrylovBasis::reset: new dim must fit the backing allocation");
  dim_ = dim;
  std::fill(store_.begin(),
            store_.begin() + static_cast<std::ptrdiff_t>(dim_ * capacity_),
            cplx(0.0));
}

std::span<cplx> KrylovBasis::vec(std::size_t j) {
  assert(j < capacity_);
  return {store_.data() + j * dim_, dim_};
}

std::span<const cplx> KrylovBasis::vec(std::size_t j) const {
  assert(j < capacity_);
  return {store_.data() + j * dim_, dim_};
}

void KrylovBasis::orthogonalize(std::span<cplx> w, std::size_t count,
                                std::span<cplx> h, int passes) const {
  assert(w.size() == dim_ && count <= capacity_ && h.size() >= count);
  for (int pass = 0; pass < passes; ++pass) {
    for (std::size_t j = 0; j < count; ++j) {
      const cplx c = vec_dot(vec(j), w);
      vec_axpy(w, -c, vec(j));
      h[j] += c;
    }
  }
}

void KrylovBasis::project_out(std::span<cplx> w, std::size_t count,
                              int passes) const {
  assert(w.size() == dim_ && count <= capacity_);
  for (int pass = 0; pass < passes; ++pass) {
    for (std::size_t j = 0; j < count; ++j) {
      const cplx c = vec_dot(vec(j), w);
      vec_axpy(w, -c, vec(j));
    }
  }
}

void KrylovBasis::accumulate(std::span<cplx> y, std::span<const cplx> coeffs,
                             std::size_t count) const {
  assert(y.size() == dim_ && count <= capacity_ && coeffs.size() >= count);
  for (std::size_t j = 0; j < count; ++j) vec_axpy(y, coeffs[j], vec(j));
}

void KrylovBasis::combine_in_place(std::span<const double> z, std::size_t rows,
                                   std::size_t count) {
  if (count == 0 || count > rows || count > kMaxCombine || rows > capacity_ ||
      z.size() < rows * rows)
    throw std::invalid_argument(
        "KrylovBasis::combine_in_place: need 1 <= count <= rows <= capacity, "
        "count <= " + std::to_string(kMaxCombine) + " and a rows x rows z");
  // Tile length: the count outputs of one tile fill the stack buffer,
  // rounded down to whole 8-amplitude blocks when the tile allows it.
  std::size_t tile = kMaxCombine / count;
  if (tile >= 8) tile -= tile % 8;
  const simd::Kernels& kn = simd::active();
  cplx* const data = store_.data();
  const std::size_t dim = dim_;
  parallel_for(dim, [&](std::size_t b, std::size_t e, int) {
    alignas(64) cplx acc[kMaxCombine];
    for (std::size_t t0 = b; t0 < e; t0 += tile) {
      const std::size_t len = std::min(tile, e - t0);
      std::fill(acc, acc + count * len, cplx(0.0));
      // Rows in order, so each output amplitude sees the same axpy
      // sequence as accumulate() into a zero-filled vector.
      for (std::size_t r = 0; r < rows; ++r) {
        const cplx* vr = data + r * dim + t0;
        for (std::size_t i = 0; i < count; ++i)
          kn.axpy(acc + i * len, vr, len, cplx(z[r * rows + i]));
      }
      for (std::size_t i = 0; i < count; ++i)
        std::copy(acc + i * len, acc + (i + 1) * len, data + i * dim + t0);
    }
  });
}

}  // namespace gecos

// KrylovBasis: preallocated batched storage for Krylov subspace vectors.
//
// Every Krylov method in src/solver/ (Lanczos eigensolver, exp(zH) evolver,
// imaginary-time projector) carries a set of m orthonormal statevectors next
// to the 2^n state being processed. A KrylovBasis owns all m vectors in ONE
// 64-byte-aligned block (same allocator as StateVector, contiguous so
// basis-wide sweeps stream linearly), hands out per-vector spans, and
// implements the batched primitives the solvers share: modified
// Gram-Schmidt orthogonalization of a work vector against the stored prefix,
// linear recombination into an outside vector (exp(T) coefficient
// application) and in-place recombination of the slots themselves
// (thick-restart contraction, Ritz-vector recovery). All inner loops route
// through the parallel BLAS-1 / SIMD kernels; nothing here allocates after
// construction, which is what makes solver iterations allocation-free after
// warm-up. Destroying a block of 16 MiB or more returns its pages to the
// kernel before the block goes back to the heap, so a freed basis never
// stays resident while the next one is placed elsewhere (DESIGN.md "Krylov
// solver layer").
#pragma once

#include <cstddef>
#include <span>

#include "linalg/blas1.hpp"
#include "state/state_vector.hpp"

namespace gecos {

/// Owning block of `capacity` aligned statevectors of a fixed dimension.
class KrylovBasis {
 public:
  /// Allocates capacity * dim amplitudes up front (the only allocation this
  /// class ever performs). Throws std::invalid_argument on a zero size and
  /// Error{dim_mismatch} when the product overflows or cannot be allocated.
  KrylovBasis(std::size_t dim, std::size_t capacity);
  /// Blocks of at least this many bytes return their pages to the kernel
  /// on destruction (one n = 20 statevector).
  static constexpr std::size_t kReleaseBytes = std::size_t{16} << 20;

  /// Returns the whole pages of a block of at least kReleaseBytes to the
  /// kernel, then frees the block.
  ~KrylovBasis();

  KrylovBasis(const KrylovBasis&) = delete;             ///< one owner
  KrylovBasis& operator=(const KrylovBasis&) = delete;  ///< one owner

  /// Amplitude count per vector and number of preallocated slots.
  std::size_t dim() const { return dim_; }
  std::size_t capacity() const { return capacity_; }

  /// Repartitions the backing allocation into `capacity()` slots of `dim`
  /// amplitudes each and zero-fills them — reuse of one allocation across
  /// solves of different vector lengths (e.g. a full-space basis re-aimed at
  /// a sector dimension). PRECONDITION (debug-asserted, not checked in
  /// release builds): dim >= 1 and dim * capacity() fits in the original
  /// allocation — a larger dim would hand out overlapping/out-of-bounds
  /// slot spans. This never allocates or shrinks the backing store.
  void reset(std::size_t dim);

  /// View of slot j (unchecked beyond an assert; slots are caller-managed).
  std::span<cplx> vec(std::size_t j);
  std::span<const cplx> vec(std::size_t j) const;

  /// Modified Gram-Schmidt: removes the components of slots [0, count)
  /// from w one slot at a time (one vec_dot, then one vec_axpy against the
  /// already-updated w), accumulating the removed coefficients into h
  /// (h[j] += <v_j|w>). `passes` >= 2 gives the classic "twice is enough"
  /// re-orthogonalization; corrections from later passes are folded into h
  /// so h always holds the total removed component. w must not alias any
  /// slot.
  void orthogonalize(std::span<cplx> w, std::size_t count, std::span<cplx> h,
                     int passes = 2) const;

  /// Orthogonalization without coefficient recording (h discarded): the
  /// re-orthogonalization primitive of the Lanczos three-term recurrence.
  void project_out(std::span<cplx> w, std::size_t count, int passes = 2) const;

  /// y += sum_{j < count} coeffs[j] * v_j (Ritz vectors, exp(T) e1
  /// recombination). y must not alias any slot.
  void accumulate(std::span<cplx> y, std::span<const cplx> coeffs,
                  std::size_t count) const;

  /// Most outputs combine_in_place() takes in one call: its per-thread
  /// stack tile holds this many amplitudes, at least one per output.
  static constexpr std::size_t kMaxCombine = 4096;

  /// In-place recombination V[:, 0:count] <- V[:, 0:rows] Z[:, 0:count]:
  /// slot i becomes sum_{r < rows} z[r * rows + i] v_r for every i < count,
  /// with z the real row-major rows x rows matrix (the eigenvector layout
  /// of eigh_sym: column i is vector i). Slots [count, rows) are read, not
  /// written. One parallel pass over the amplitudes: each chunk walks its
  /// range in tiles, accumulates the count outputs of a tile in a stack
  /// buffer (rows in order, one axpy per row and output), then copies them
  /// over the slots. Every output amplitude is therefore bitwise equal to
  /// accumulate() of column i into a zero-filled outside vector, at any
  /// thread count and SIMD tier. Throws std::invalid_argument unless
  /// 1 <= count <= min(rows, kMaxCombine), rows <= capacity() and
  /// z.size() >= rows * rows.
  void combine_in_place(std::span<const double> z, std::size_t rows,
                        std::size_t count);

 private:
  std::size_t dim_ = 0;
  std::size_t capacity_ = 0;
  AlignedVec store_;
};

}  // namespace gecos

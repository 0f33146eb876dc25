// SectorOperator: a number-conserving Hamiltonian restricted to a sector.
//
// Takes a symbolic ScbSum (Pauli-word sums included) that commutes with
// every species number operator of a SectorBasis and applies it
// matrix-free *within* the sector: the LinearOperator dim() is the sector
// dimension, so Lanczos, KrylovEvolver and the spectral estimators run on
// sector vectors unchanged — same interface, exponentially fewer
// amplitudes.
//
// Construction first rewrites the sum into *transition-canonical* form:
// every X/Y factor branches into the transition family (X = s + s+,
// Y = i s+ - i s; 2^f words per term with f X/Y factors, f = 0 for every
// Jordan-Wigner-derived fermionic sum), and identical words merge. This
// matters because the SCB spans the single-qubit operator space with eight
// elements, so a sum can be number-conserving as an OPERATOR while no
// individual word is (XX + YY hopping); after canonicalization each word
// moves a definite particle count per species, branches that cancel
// (s+ s+ of XX against YY) vanish exactly, and conservation becomes a
// per-word test: any surviving word with a nonzero species number change
// makes construction throw. (Sums that conserve only through diagonal
// identities like I = n + m split across words are rejected conservatively
// — none of the builders in this repo produce such forms.)
//
// Each surviving word is a flip/select/sign mask kernel (ops/term.hpp's
// TermKernel), and inside the sector a hop word (flip != 0) is a signed
// partial permutation of the ranks. Construction compiles the whole sum to
// one row-oriented sparse matrix: all *diagonal* words (the U and mu terms
// of a Hubbard Hamiltonian) fuse into one per-rank coefficient d_r, and row
// r lists, in word order, the source rank rank(cfg_r ^ flip) of every hop
// word whose selection that source satisfies, each entry a uint32 rank plus
// a uint32 index into the signed coefficient table {+base_j, -base_j}. The
// rank -> configuration table that drives the compile is a local, freed when
// construction returns. The n = 20 (5,5) Hubbard sector (dim 63,504, 60 hop
// words) stores 16.7 entries per row, 10.0 MB in all with the row offsets
// and the diagonal; the n = 32 (3,3) sector (dim 313,600, 96 hop words)
// 15.6 per row, 46.7 MB.
//
// apply_add is one parallel row gather, y_r += scale * (d_r x_r +
// sum_e c[e] x[col_e]): each thread writes only its own output rows, so the
// result is bitwise identical for any thread count, and nothing allocates
// after construction. See DESIGN.md "Symmetry sectors".
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ops/linear_op.hpp"
#include "ops/scb_sum.hpp"
#include "symmetry/sector_basis.hpp"

namespace gecos {

/// Restriction of a number-conserving operator to a sector, compiled to a
/// row-gather sparse matrix over sector ranks.
class SectorOperator : public LinearOperator {
 public:
  /// Compiles the sum's bare terms into the sector rows. Throws
  /// std::invalid_argument when the sum is empty, its qubit count differs
  /// from the basis, or the transition-canonical conservation check finds a
  /// word with a nonzero species particle-number change; throws
  /// Error{dim_mismatch} when the sector dimension exceeds the uint32 rank
  /// range of the row entries.
  SectorOperator(SectorBasis basis, const ScbSum& h);

  /// The sector enumeration this operator is restricted to.
  const SectorBasis& basis() const { return basis_; }
  /// Full-space qubit count n of the underlying operator.
  std::size_t n_qubits() const override { return basis_.n_qubits(); }
  /// Sector dimension — the vector length apply_add works on (NOT 2^n).
  std::size_t dim() const override { return basis_.dim(); }
  /// Surviving transition-canonical words: hop words plus the diagonal words
  /// fused into the per-rank diagonal (X/Y factors branch at construction
  /// and canceling branches merge away, so this can differ from the input
  /// term count).
  std::size_t num_kernels() const { return num_kernels_; }
  /// Modelled traffic of one apply_add in bytes (a model, not a
  /// measurement): per row the offset, the y read-modify-write and, with a
  /// diagonal, d_r and x_r; per entry the entry and the x gather.
  std::uint64_t apply_bytes() const;

  /// Two-argument accumulate and overwriting apply from the base class.
  using LinearOperator::apply_add;
  /// y += scale * (P H P) x over sector ranks (x.size() == dim(); x and y
  /// distinct buffers, asserted). One parallel row gather, allocation-free
  /// and bitwise identical for any thread count.
  void apply_add(std::span<const cplx> x, std::span<cplx> y,
                 cplx scale) const override;

 private:
  /// One off-diagonal entry of a row: source rank and index into coeffs_.
  struct Entry {
    std::uint32_t col;
    std::uint32_t coeff;
  };

  SectorBasis basis_;
  std::size_t num_kernels_ = 0;
  std::vector<cplx> diag_;                // fused diagonal (empty if none)
  std::vector<cplx> coeffs_;              // [2j] = +base_j, [2j+1] = -base_j
  std::vector<std::uint64_t> row_start_;  // dim + 1 offsets into entries_
  std::unique_ptr<Entry[]> entries_;      // rows in rank order, word order
};

}  // namespace gecos

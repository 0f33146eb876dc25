#include "symmetry/sector_operator.hpp"

#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "ops/term.hpp"
#include "simd/kernels.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace gecos {

namespace {

/// Rewrites one SCB word into the transition-canonical family: every X/Y
/// factor branches into {s, s+} (X = s + s+, Y = i s+ - i s), all other
/// factors pass through. Accumulates the 2^f branch words (f = number of
/// X/Y factors) into `out`, where canceling branches of different input
/// words merge away exactly.
void canonicalize_word(const std::vector<Scb>& word, cplx coeff, ScbSum& out) {
  std::vector<std::size_t> xy;
  for (std::size_t q = 0; q < word.size(); ++q)
    if (word[q] == Scb::X || word[q] == Scb::Y) xy.push_back(q);
  // 2^f branches per word: physical number-conserving terms carry at most a
  // handful of X/Y factors (a hop is two), so an X/Y-heavy word signals a
  // non-conserving operator long before the expansion could blow up.
  if (xy.size() > 24)
    throw std::invalid_argument(
        "SectorOperator: word with > 24 X/Y factors cannot be "
        "canonicalized (and cannot conserve particle number)");
  std::vector<Scb> branch = word;
  for (std::uint64_t g = 0; g < (std::uint64_t{1} << xy.size()); ++g) {
    cplx c = coeff;
    for (std::size_t i = 0; i < xy.size(); ++i) {
      const bool raise = ((g >> i) & 1) != 0;
      branch[xy[i]] = raise ? Scb::Sp : Scb::Sm;
      if (word[xy[i]] == Scb::Y) c *= raise ? cplx(0.0, 1.0) : cplx(0.0, -1.0);
    }
    out.add(branch, c);
  }
}

}  // namespace

SectorOperator::SectorOperator(SectorBasis basis, const ScbSum& h)
    : basis_(std::move(basis)) {
  compile(h);
}

SectorOperator::SectorOperator(SectorBasis basis, const PauliSum& h)
    : basis_(std::move(basis)) {
  // Pauli strings are SCB words already ({I,X,Y,Z} is a subset of the
  // basis); route through an ScbSum so both constructors share the
  // canonicalization and the kernel compiler.
  ScbSum s(h.num_qubits());
  for (const auto& [str, coeff] : h.sorted_terms()) s.add(str.ops(), coeff);
  compile(s);
}

void SectorOperator::compile(const ScbSum& h) {
  if (h.empty())
    throw std::invalid_argument("SectorOperator: empty operator sum");
  if (h.num_qubits() != basis_.n_qubits())
    throw std::invalid_argument("SectorOperator: qubit-count mismatch");
  const std::size_t d = basis_.dim();
  if (d > std::numeric_limits<std::uint32_t>::max())
    throw Error(ErrorKind::dim_mismatch,
                "SectorOperator: sector dimension " + std::to_string(d) +
                    " exceeds the uint32 rank range of the row entries");

  // Transition-canonical rewrite (see the header comment): after this,
  // every word moves a definite particle count per species.
  ScbSum canon(h.num_qubits());
  for (const auto& [word, coeff] : h.terms())
    canonicalize_word(word, coeff, canon);

  // Conservation check + compilation in one pass. Coefficients here are
  // exact +-1 / +-i multiples of the input coefficients and equal-magnitude
  // branches cancel exactly in floating point (ScbSum::add erases them at
  // its own 1e-14 merge tolerance), so the skip threshold is the same small
  // ABSOLUTE epsilon — scaling it by the sum's magnitude would silently
  // drop genuine small terms from sums with large coefficient disparity,
  // quietly compiling a different operator. Dirt above this threshold with
  // a nonzero species delta throws instead: loud beats wrong.
  const double tol = 1e-14;
  const auto species = basis_.species();
  std::vector<TermKernel> diagonal, hops;
  for (const auto& [word, coeff] : canon.terms()) {
    if (std::abs(coeff) <= tol) continue;
    for (const SpeciesSector& s : species) {
      int delta = 0;
      for (std::size_t q = 0; q < word.size(); ++q) {
        if (!((s.mask >> q) & 1)) continue;
        if (word[q] == Scb::Sp) ++delta;
        else if (word[q] == Scb::Sm) --delta;
      }
      if (delta != 0)
        throw std::invalid_argument(
            "SectorOperator: operator does not conserve a species particle "
            "number (nonzero sector-changing component)");
    }
    TermKernel k(ScbTerm(coeff, word, false));
    (k.flip == 0 ? diagonal : hops).push_back(std::move(k));
  }
  num_kernels_ = diagonal.size() + hops.size();
  if (num_kernels_ == 0)
    throw std::invalid_argument(
        "SectorOperator: operator vanishes in canonical form");
  // Same instrumentation site as ScbSum's kernel rebuild: every surviving
  // canonical word cost one TermKernel mask compilation.
  telemetry::count(telemetry::Counter::kernel_compiles, num_kernels_);

  // The rank -> configuration table (one enumeration walk, freed on
  // return) drives the passes below. Fuse every diagonal word into one
  // per-rank coefficient, summed in word order.
  std::vector<std::uint64_t> configs(d);
  std::uint64_t next = basis_.first_config();
  for (std::uint64_t& c : configs) {
    c = next;
    next = basis_.next_config(next);
  }
  const std::uint64_t* const cfgs = configs.data();
  if (!diagonal.empty()) {
    diag_.assign(d, cplx(0.0));
    parallel_for(d, [&](std::size_t lo, std::size_t hi, int) {
      for (const TermKernel& k : diagonal) {
        for (std::size_t r = lo; r < hi; ++r) {
          const std::uint64_t c = cfgs[r];
          if ((c & k.select_mask) == k.select_val) {
            const bool neg = (std::popcount(c & k.sign_mask) & 1) != 0;
            diag_[r] += neg ? -k.base : k.base;
          }
        }
      }
    });
  }

  // Hop words as arrays. Word j moves a selected source s to s ^ flip_j, so
  // it contributes to output row r exactly when the source cfg_r ^ flip_j
  // passes its selection, i.e. when cfg_r & select_mask_j equals
  // row_val_j = select_val_j ^ (flip_j & select_mask_j).
  const std::size_t nh = hops.size();
  std::vector<std::uint64_t> flip(nh), mask(nh), row_val(nh), sign(nh);
  coeffs_.resize(2 * nh);
  for (std::size_t j = 0; j < nh; ++j) {
    const TermKernel& k = hops[j];
    flip[j] = k.flip;
    mask[j] = k.select_mask;
    row_val[j] = k.select_val ^ (k.flip & k.select_mask);
    sign[j] = k.sign_mask;
    coeffs_[2 * j] = k.base;
    coeffs_[2 * j + 1] = -k.base;
  }

  // Two passes over the rows: a branch-free count (vectorizes over the
  // words) sizes each row, then each row is filled in word order. The fill
  // first lists the row's words branch-free, so the rank() calls that
  // dominate the build do not sit behind an unpredictable branch.
  row_start_.assign(d + 1, 0);
  parallel_for(d, [&](std::size_t lo, std::size_t hi, int) {
    for (std::size_t r = lo; r < hi; ++r) {
      const std::uint64_t c = cfgs[r];
      std::uint64_t n = 0;
      for (std::size_t j = 0; j < nh; ++j) n += (c & mask[j]) == row_val[j];
      row_start_[r + 1] = n;
    }
  });
  for (std::size_t r = 0; r < d; ++r) row_start_[r + 1] += row_start_[r];
  // Left uninitialized: the fill writes every entry, and its first touch
  // then happens on the worker that owns the rows.
  entries_ = std::make_unique_for_overwrite<Entry[]>(row_start_[d]);
  parallel_for(d, [&](std::size_t lo, std::size_t hi, int) {
    std::vector<std::uint32_t> hit(nh);
    for (std::size_t r = lo; r < hi; ++r) {
      const std::uint64_t c = cfgs[r];
      std::size_t n = 0;
      for (std::size_t j = 0; j < nh; ++j) {
        hit[n] = static_cast<std::uint32_t>(j);
        n += (c & mask[j]) == row_val[j];
      }
      Entry* const e = entries_.get() + row_start_[r];
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t j = hit[i];
        const std::uint64_t src = c ^ flip[j];
        const auto neg =
            static_cast<std::uint32_t>(std::popcount(src & sign[j]) & 1);
        e[i] = {static_cast<std::uint32_t>(basis_.rank(src)), 2 * j + neg};
      }
    }
  });
}

std::uint64_t SectorOperator::apply_bytes() const {
  const std::uint64_t row = 8 + 32 + (diag_.empty() ? 0 : 32);
  return row * basis_.dim() +
         (sizeof(Entry) + sizeof(cplx)) * row_start_.back();
}

void SectorOperator::apply_add(std::span<const cplx> x, std::span<cplx> y,
                               cplx scale) const {
  assert(x.data() != y.data() &&
         "SectorOperator::apply_add: x and y must not alias");
  assert(x.size() == basis_.dim() && y.size() == basis_.dim());
  const std::size_t d = basis_.dim();
  if (telemetry::metrics_enabled()) {
    telemetry::count(telemetry::Counter::kernel_sweeps);
    telemetry::count(telemetry::Counter::amplitudes_touched, d);
    telemetry::count(telemetry::Counter::bytes_moved, apply_bytes());
  }
  // Row gather: y_r += scale * (d_r x_r + sum_e c[e] x[col_e]), entries in
  // word order, each product in the SIMD tiers' cmul_fma rounding and every
  // sum a plain add. Rows are disjoint per chunk, so any thread count gives
  // the same bits.
  const cplx* const xs = x.data();
  const cplx* const diag = diag_.empty() ? nullptr : diag_.data();
  parallel_for(d, [&](std::size_t lo, std::size_t hi, int) {
    for (std::size_t r = lo; r < hi; ++r) {
      cplx acc = diag != nullptr ? simd::cmul_fma(diag[r], xs[r]) : cplx(0.0);
      const Entry* e = entries_.get() + row_start_[r];
      const Entry* const end = entries_.get() + row_start_[r + 1];
      for (; e != end; ++e) {
        const cplx t = simd::cmul_fma(coeffs_[e->coeff], xs[e->col]);
        acc = cplx(acc.real() + t.real(), acc.imag() + t.imag());
      }
      const cplx t = simd::cmul_fma(scale, acc);
      y[r] = cplx(y[r].real() + t.real(), y[r].imag() + t.imag());
    }
  });
}

}  // namespace gecos

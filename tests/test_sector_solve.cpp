// Sector-native solver suite: the Krylov solver layer running unchanged on
// SectorOperator through LinearOperator. Pins (1) sector Lanczos minimized
// over all sectors == full-space dense ground state (the sector decomposition
// is exhaustive), (2) sector Lanczos == dense eigh of the explicitly
// projected sector matrix per sector, (3) imaginary-time projection agrees
// with sector Lanczos, (4) sector KrylovEvolver == full-space KrylovEvolver
// on embedded states, (5) warm sector Lanczos re-solves allocate nothing,
// (6) KrylovBasis::reset repartitioning, (7) KrylovBasis::
// combine_in_place bitwise equal to accumulate() at 1 and 4 threads on
// every SIMD tier the host has, and (8) a basis large enough to release its
// pages on destruction comes back zero-filled when built again.
#include "alloc_probe.hpp"  // first: replaces global operator new
// clang-format off
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>
#include <vector>
// clang-format on

#include "fermion/hubbard.hpp"
#include "linalg/blas1.hpp"
#include "linalg/expm.hpp"
#include "linalg/matrix.hpp"
#include "ops/scb_sum.hpp"
#include "simd/simd.hpp"
#include "solver/imag_time.hpp"
#include "solver/krylov_evolve.hpp"
#include "solver/lanczos.hpp"
#include "state/krylov_basis.hpp"
#include "symmetry/sector_operator.hpp"
#include "symmetry/sector_vector.hpp"
#include "test_util.hpp"
#include "util/parallel.hpp"

using namespace gecos;

namespace {

/// Dense matrix of the sector-restricted operator, built by applying it to
/// every sector basis vector (columns) — the brute-force reference the
/// matrix-free kernels are checked against.
Matrix sector_dense(const SectorOperator& op) {
  const std::size_t d = op.dim();
  Matrix m(d, d);
  std::vector<cplx> e(d, cplx(0.0)), col(d);
  for (std::size_t j = 0; j < d; ++j) {
    e[j] = cplx(1.0);
    op.apply(e, col);
    for (std::size_t i = 0; i < d; ++i) m(i, j) = col[i];
    e[j] = cplx(0.0);
  }
  return m;
}

/// Lowest eigenvalue of a Hermitian matrix via the dense Jacobi eigh.
double dense_ground(const Matrix& m) { return eigh(m).eigenvalues.front(); }

/// Checks KrylovBasis::combine_in_place over a random rows-slot basis of
/// the given dim, for every count in [min_count, rows], on every available
/// SIMD tier at 1 and 4 threads: outputs memcmp-equal to accumulate() of
/// each column into a zero-filled outside vector, slots [count, rows)
/// untouched.
void check_combine_in_place(std::size_t dim, std::size_t rows,
                            std::size_t min_count) {
  std::mt19937 rng(static_cast<unsigned>(dim * 31 + rows));
  std::normal_distribution<double> g;
  std::vector<double> z(rows * rows);
  for (double& x : z) x = g(rng);
  KrylovBasis src(dim, rows);
  for (std::size_t r = 0; r < rows; ++r)
    for (cplx& a : src.vec(r)) a = cplx(g(rng), g(rng));
  const std::size_t bytes = dim * sizeof(cplx);
  const int threads0 = num_threads();
  const SimdTier tier0 = simd_tier();
  KrylovBasis kb(dim, rows);
  KrylovBasis ref(dim, rows);  // slot i: accumulate() of column i into zeros
  std::vector<cplx> coeffs(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t r = 0; r < rows; ++r) coeffs[r] = cplx(z[r * rows + i]);
    src.accumulate(ref.vec(i), coeffs, rows);
  }
  for (std::size_t count = min_count; count <= rows; ++count) {
    for (const SimdTier tier :
         {SimdTier::scalar, SimdTier::avx2, SimdTier::avx512}) {
      if (!simd_tier_available(tier)) continue;
      set_simd_tier(tier);
      for (const int threads : {1, 4}) {
        set_num_threads(threads);
        for (std::size_t r = 0; r < rows; ++r)
          vec_copy(kb.vec(r), src.vec(r));
        kb.combine_in_place(z, rows, count);
        bool same = true;
        for (std::size_t i = 0; i < count; ++i)
          same = same &&
                 std::memcmp(kb.vec(i).data(), ref.vec(i).data(), bytes) == 0;
        for (std::size_t r = count; r < rows; ++r)
          same = same &&
                 std::memcmp(kb.vec(r).data(), src.vec(r).data(), bytes) == 0;
        if (!same)
          std::printf("combine_in_place mismatch: dim %zu rows %zu count %zu "
                      "tier %s threads %d\n",
                      dim, rows, count, simd_tier_name(tier), threads);
        CHECK(same);
      }
    }
  }
  set_simd_tier(tier0);
  set_num_threads(threads0);
}

}  // namespace

int main() {
  // -- exhaustive sector decomposition reproduces the full ground state ------
  {
    HubbardParams p;  // 2x2 spinful lattice, n = 8
    p.lx = 2;
    p.ly = 2;
    p.u = 4.0;
    p.mu = 0.5;
    p.spinful = true;
    const ScbSum h = hubbard_scb(p);
    const double full_e0 = dense_ground(h.to_matrix());

    double best = std::numeric_limits<double>::infinity();
    for (std::size_t up = 0; up <= 4; ++up)
      for (std::size_t dn = 0; dn <= 4; ++dn) {
        const SectorBasis b = hubbard_sector(p, up, dn);
        const SectorOperator hs(b, h);
        // Per-sector pin: matrix-free sector Lanczos vs dense eigh of the
        // explicitly projected sector matrix.
        const double dense_e0 = dense_ground(sector_dense(hs));
        if (b.dim() < 2) {  // 1x1 sector: the diagonal entry IS the energy
          const SectorVector v(b);
          best = std::min(best, v.expectation(hs).real());
          CHECK_NEAR(v.expectation(hs).real(), dense_e0, 1e-10);
          continue;
        }
        LanczosOptions lo;
        lo.tol = 1e-10;
        lo.max_subspace = std::min<std::size_t>(32, b.dim());
        if (lo.max_subspace < lo.k + 2) lo.max_subspace = lo.k + 2;
        Lanczos solver(hs, lo);
        const double e0 = solver.solve().eigenvalues[0];
        CHECK_NEAR(e0, dense_e0, 1e-8);
        best = std::min(best, e0);
      }
    CHECK_NEAR(best, full_e0, 1e-8);
  }

  // -- sector Lanczos vs imaginary-time projection (independent principle) ---
  {
    HubbardParams p;  // spinless ring, n = 10
    p.lx = 10;
    p.u = 2.0;
    p.mu = 0.3;
    p.periodic_x = true;
    const ScbSum h = hubbard_scb(p);
    const SectorBasis b = hubbard_sector(p, 5);
    CHECK_EQ(b.dim(), std::size_t{252});
    const SectorOperator hs(b, h);

    LanczosOptions lo;
    lo.tol = 1e-10;
    Lanczos solver(hs, lo);
    const double e0 = solver.solve().eigenvalues[0];

    SectorVector psi = SectorVector::random(b, 97);
    ImagTimeOptions io;
    io.variance_tol = 1e-10;
    const ImagTimeResult ir = imag_time_ground_state(hs, psi.amps(), io);
    CHECK(ir.converged);
    CHECK_NEAR(ir.energy, e0, 1e-6);
    // The projected state is the Lanczos Ritz vector up to a global phase.
    CHECK(vec_diff_up_to_phase(psi.amps(), solver.ritz_vector(0)) < 1e-4);
  }

  // -- sector KrylovEvolver == full-space KrylovEvolver on embedded states ---
  {
    HubbardParams p;  // 3x2 spinful lattice, n = 12
    p.lx = 3;
    p.ly = 2;
    p.u = 4.0;
    p.mu = 0.5;
    p.periodic_x = true;
    p.spinful = true;
    const ScbSum h = hubbard_scb(p);
    const std::uint64_t occ = hubbard_cdw_occupation(p);
    const SectorBasis b = hubbard_sector_of(p, occ);
    const SectorOperator hs(b, h);

    KrylovOptions ko;
    ko.tol = 1e-12;
    const KrylovEvolver sector_ev(hs, ko);
    const KrylovEvolver full_ev(h, ko);

    SectorVector xs = SectorVector::config_state(b, occ);
    StateVector xf = StateVector::product(hubbard_num_modes(p), occ);
    const double dt = 0.05;
    for (int s = 0; s < 4; ++s) {
      sector_ev.step(xs.amps(), dt);
      full_ev.step(xf, dt);
    }
    // The full evolution never leaves the sector ([H, N_s] = 0), so the
    // embedded sector evolution must match everywhere.
    CHECK(xs.embed().max_abs_diff(xf) < 1e-9);
    CHECK_NEAR(xs.norm(), 1.0, 1e-10);
  }

  // -- allocation probe: a warm sector Lanczos re-solve allocates nothing ----
  {
    HubbardParams p;
    p.lx = 6;
    p.u = 2.0;
    p.mu = 0.3;
    const ScbSum h = hubbard_scb(p);
    const SectorBasis b = hubbard_sector(p, 3);
    const SectorOperator hs(b, h);
    LanczosOptions lo;
    lo.tol = 1e-10;
    Lanczos solver(hs, lo);
    solver.solve();  // warm-up: results and workspaces all sized
    const long before = gecos::test::allocations();
    const LanczosResult& r = solver.solve();
    const long delta = gecos::test::allocations() - before;
    CHECK(r.converged);
#if GECOS_ALLOC_PROBE_ACTIVE
    CHECK_EQ(delta, 0L);
#endif
    std::printf("alloc probe: %ld allocations during warm sector re-solve\n",
                delta);
  }

  // -- KrylovBasis::reset repartitions one allocation across dimensions ------
  {
    KrylovBasis kb(64, 4);  // 256 amplitudes total
    kb.vec(3)[63] = cplx(2.0);
    kb.reset(32);  // same capacity, half the dim: fits the allocation
    CHECK_EQ(kb.dim(), std::size_t{32});
    CHECK_EQ(kb.capacity(), std::size_t{4});
    for (std::size_t j = 0; j < 4; ++j)
      for (const cplx& a : kb.vec(j)) CHECK(a == cplx(0.0));
    kb.vec(3)[31] = cplx(1.0);
    kb.reset(64);  // back to the construction dim: also fits
    CHECK_EQ(kb.dim(), std::size_t{64});
    for (std::size_t j = 0; j < 4; ++j)
      for (const cplx& a : kb.vec(j)) CHECK(a == cplx(0.0));
  }

  // -- a basis of at least kReleaseBytes releases its pages when destroyed --
  // The destructor tells the kernel to drop the block's whole pages before
  // freeing it; a basis built afterwards must still read all zeros.
  {
    const std::size_t dim = std::size_t{1} << 16;  // 1 MiB per vector
    const std::size_t cap =
        KrylovBasis::kReleaseBytes / (dim * sizeof(cplx)) + 1;
    for (int round = 0; round < 2; ++round) {
      KrylovBasis kb(dim, cap);
      for (std::size_t j = 0; j < cap; ++j) {
        const std::span<cplx> v = kb.vec(j);
        CHECK(std::all_of(v.begin(), v.end(),
                          [](const cplx& a) { return a == cplx(0.0); }));
        std::fill(v.begin(), v.end(), cplx(1.0, -1.0));
      }
    }
  }

  // -- KrylovBasis::combine_in_place: the thick-restart contraction is the
  // staged accumulate() bit for bit ------------------------------------------
  {
    // Above the parallel grain, a dim that is no multiple of any tile or
    // chunk length; then one count past 512, whose tiles drop below 8.
    check_combine_in_place(3 * 8192 + 77, 12, 1);
    check_combine_in_place(37, 600, 598);

    KrylovBasis kb(16, 4);
    const std::vector<double> z(16, 1.0);
    const auto rejects = [&](std::span<const double> zz, std::size_t rows,
                             std::size_t count) {
      try {
        kb.combine_in_place(zz, rows, count);
      } catch (const std::invalid_argument&) {
        return true;
      }
      return false;
    };
    CHECK(rejects(z, 4, 0));                         // no outputs
    CHECK(rejects(z, 3, 4));                         // count > rows
    CHECK(rejects(std::vector<double>(25), 5, 2));   // rows > capacity
    CHECK(rejects(std::span<const double>(z).first(8), 4, 2));  // short z
    CHECK(!rejects(z, 4, 4));
  }

  return gecos::test::finish("test_sector_solve");
}

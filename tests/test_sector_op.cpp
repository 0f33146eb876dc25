// SectorOperator suite: sector-restricted apply against the full-space
// P H P reference (embed -> full matrix-free apply -> project) on Hubbard
// lattices and ad-hoc conserving sums, the per-term classification paths
// (diagonal, hop, filtered XX+YY, statically dead), the symbolic
// conservation rejection, the uint32 sector-dimension limit,
// PauliSum-vs-ScbSum construction agreement, a molecular-like sum with many
// distinct coefficients, embed/project round trips, bitwise thread-count
// determinism, and the zero-allocation pin on warm sector matvecs.
#include "alloc_probe.hpp"  // first: replaces global operator new
// clang-format off
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>
// clang-format on

#include "fermion/hubbard.hpp"
#include "linalg/blas1.hpp"
#include "ops/scb_sum.hpp"
#include "symmetry/sector_operator.hpp"
#include "symmetry/sector_vector.hpp"
#include "test_util.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

using namespace gecos;

namespace {

/// Max |(P H P) x - sector_apply(x)| over a random sector state: embeds x,
/// applies the full-space operator, projects back, and compares against the
/// sector operator's own apply.
double sector_vs_full(const SectorBasis& basis, const ScbSum& h,
                      std::uint64_t seed) {
  const SectorOperator hs(basis, h);
  SectorVector x = SectorVector::random(basis, seed);

  SectorVector y_sector = x;
  y_sector.apply(hs);

  StateVector full = x.embed();
  full.apply(h);
  const SectorVector y_full = SectorVector::project(basis, full);
  return y_sector.max_abs_diff(y_full);
}

}  // namespace

int main() {
  // -- Hubbard lattices: sector apply == projected full apply ----------------
  {
    HubbardParams p1;  // spinless periodic ring
    p1.lx = 8;
    p1.u = 2.0;
    p1.mu = 0.3;
    p1.periodic_x = true;
    const ScbSum h1 = hubbard_scb(p1);
    for (std::size_t n : {std::size_t{1}, std::size_t{4}, std::size_t{7}})
      CHECK(sector_vs_full(hubbard_sector(p1, n), h1, 11 + n) < 1e-12);

    HubbardParams p2;  // 2D spinful lattice, n = 8
    p2.lx = 2;
    p2.ly = 2;
    p2.u = 4.0;
    p2.mu = 0.5;
    p2.spinful = true;
    const ScbSum h2 = hubbard_scb(p2);
    for (std::size_t up = 0; up <= 2; ++up)
      for (std::size_t dn = 0; dn <= 2; ++dn)
        CHECK(sector_vs_full(hubbard_sector(p2, up, dn), h2, 31 + 4 * up + dn) <
              1e-12);
  }

  // -- filtered kernels: XX+YY conserves as a sum, not per term --------------
  {
    // (X0 X1 + Y0 Y1)/2 = s+_0 s_1 + s_0 s+_1 commutes with N; its X/Y terms
    // have unconstrained flips, so they exercise the membership filter.
    ScbSum hop(3);
    hop.add(ScbTerm::parse("X X I", cplx(0.5), false));
    hop.add(ScbTerm::parse("Y Y I", cplx(0.5), false));
    hop.add(ScbTerm::parse("n I I", cplx(0.7), false));  // a diagonal term too
    for (std::size_t n : {std::size_t{1}, std::size_t{2}})
      CHECK(sector_vs_full(SectorBasis::fixed_number(3, n), hop, 7 + n) <
            1e-13);
  }

  // -- many distinct coefficients: a seeded molecular-like two-body sum ------
  {
    // Complex one- and two-body coefficients, every one distinct, on the
    // total-N sectors (the generator conserves N, not each spin).
    const ScbSum mol = jw_sum(random_two_body(10, 20, 40, 7), 10);
    for (std::size_t n : {std::size_t{3}, std::size_t{5}})
      CHECK(sector_vs_full(SectorBasis::fixed_number(10, n), mol, 50 + n) <
            1e-12);
  }

  // -- conservation check rejects non-commuting operators --------------------
  {
    ScbSum bad(2);
    bad.add(ScbTerm::parse("X I", cplx(1.0), false));  // [X, N] != 0
    bool threw = false;
    try {
      SectorOperator op(SectorBasis::fixed_number(2, 1), bad);
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    CHECK(threw);

    // Total-number conserving but NOT per-species conserving: a spin-flip
    // hop must be rejected on the spinful product sector...
    ScbSum flip(4);
    flip.add(ScbTerm::parse("s+ s I I", cplx(1.0), true));  // a+_up a_down
    threw = false;
    try {
      SectorOperator op(SectorBasis::spinful(4, 1, 1), flip);
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    CHECK(threw);
    // ...but accepted on the total-N sector of the same 4 qubits.
    const SectorOperator ok(SectorBasis::fixed_number(4, 2), flip);
    CHECK(ok.num_kernels() == 2);
  }

  // -- a sector past the uint32 rank range of the rows is refused up front ---
  {
    ScbSum h(40);
    std::vector<Scb> word(40, Scb::I);
    word[0] = Scb::N;
    h.add(word, cplx(1.0));
    bool threw = false;
    try {
      SectorOperator op(SectorBasis::fixed_number(40, 20), h);  // C(40,20)
    } catch (const Error& e) {
      threw = e.kind() == ErrorKind::dim_mismatch;
    }
    CHECK(threw);
  }

  // -- kernel classification: one diagonal + the hop pair of one "+ h.c." ----
  {
    ScbSum h(2);
    h.add(ScbTerm::parse("n I", cplx(1.0), false));
    h.add(ScbTerm::parse("s+ s", cplx(0.25), true));
    const SectorOperator op(SectorBasis::fixed_number(2, 1), h);
    CHECK_EQ(op.num_kernels(), std::size_t{3});  // n, s+ s, and its adjoint
  }

  // -- PauliSum construction path agrees with ScbSum -------------------------
  {
    HubbardParams p;
    p.lx = 4;
    p.u = 1.5;
    p.mu = 0.2;
    const ScbSum h = hubbard_scb(p);
    const SectorBasis b = hubbard_sector(p, 2);
    const SectorOperator from_scb(b, h);
    const SectorOperator from_pauli(b, h.to_pauli());
    SectorVector x = SectorVector::random(b, 5);
    SectorVector ys = x, yp = x;
    ys.apply(from_scb);
    yp.apply(from_pauli);
    CHECK(ys.max_abs_diff(yp) < 1e-12);
  }

  // -- apply_add scale factor and accumulate semantics -----------------------
  {
    HubbardParams p;
    p.lx = 6;
    p.u = 2.0;
    const ScbSum h = hubbard_scb(p);
    const SectorBasis b = hubbard_sector(p, 3);
    const SectorOperator hs(b, h);
    const SectorVector x = SectorVector::random(b, 17);
    std::vector<cplx> y(b.dim(), cplx(0.5, -0.25));
    std::vector<cplx> expect = y;
    std::vector<cplx> hx(b.dim(), cplx(0.0));
    hs.apply(x.amps(), hx);
    const cplx s(0.3, -1.1);
    for (std::size_t i = 0; i < expect.size(); ++i) expect[i] += s * hx[i];
    hs.apply_add(x.amps(), y, s);
    CHECK(vec_max_abs_diff(y, expect) < 1e-13);
  }

  // -- embed / project round trip --------------------------------------------
  {
    const SectorBasis b = SectorBasis::spinful(10, 2, 3);
    const SectorVector x = SectorVector::random(b, 23);
    const SectorVector back = SectorVector::project(b, x.embed());
    CHECK_EQ(x.max_abs_diff(back), 0.0);  // lossless: amplitudes are copied
    // Projecting a full random state and re-embedding keeps exactly the
    // sector component.
    const StateVector full = StateVector::random(10, 29);
    const SectorVector proj = SectorVector::project(b, full);
    const StateVector emb = proj.embed();
    double off = 0.0, on = 0.0;
    for (std::uint64_t c = 0; c < full.dim(); ++c) {
      if (b.contains(c))
        on = std::max(on, std::abs(emb[c] - full[c]));
      else
        off = std::max(off, std::abs(emb[c]));
    }
    CHECK_EQ(on, 0.0);
    CHECK_EQ(off, 0.0);
  }

  // -- bitwise determinism across thread counts (dim 12870 > parallel grain) -
  {
    const SectorBasis b = SectorBasis::fixed_number(16, 8);
    CHECK_EQ(b.dim(), std::size_t{12870});
    ScbSum h(16);
    std::vector<Scb> word(16, Scb::I);
    // A ring of hops plus a staggered diagonal: enough terms to matter.
    for (std::size_t q = 0; q < 16; ++q) {
      word.assign(16, Scb::I);
      word[q] = Scb::Sp;
      word[(q + 1) % 16] = Scb::Sm;
      h.add(word, cplx(0.3, 0.1 * static_cast<double>(q)));
      word[q] = Scb::Sm;
      word[(q + 1) % 16] = Scb::Sp;
      h.add(word, cplx(0.3, -0.1 * static_cast<double>(q)));
      word.assign(16, Scb::I);
      word[q] = Scb::N;
      h.add(word, cplx(q % 2 ? 1.0 : -1.0));
    }
    const SectorOperator hs(b, h);
    const SectorVector x = SectorVector::random(b, 41);
    const SectorVector y0 = SectorVector::random(b, 43);
    const cplx s(0.3, -0.7);
    // Overwriting apply and a scaled accumulate onto a nonzero y, at every
    // thread count from 1 to 4: each thread owns its output rows, so the
    // bits must not depend on how the rows are split.
    std::vector<cplx> ref_apply, ref_add;
    for (int t = 1; t <= 4; ++t) {
      set_num_threads(t);
      std::vector<cplx> ya(b.dim(), cplx(0.0));
      hs.apply(x.amps(), ya);
      std::vector<cplx> ys(y0.amps().begin(), y0.amps().end());
      hs.apply_add(x.amps(), ys, s);
      if (t == 1) {
        ref_apply = ya;
        ref_add = ys;
        continue;
      }
      CHECK(std::memcmp(ya.data(), ref_apply.data(),
                        ya.size() * sizeof(cplx)) == 0);
      CHECK(std::memcmp(ys.data(), ref_add.data(),
                        ys.size() * sizeof(cplx)) == 0);
    }
    set_num_threads(1);

    // -- allocation probe: warm sector matvecs allocate nothing --------------
    std::vector<cplx> z(b.dim(), cplx(0.0));
    hs.apply_add(x.amps(), z, cplx(1.0));  // warm-up
    const long before = gecos::test::allocations();
    hs.apply_add(x.amps(), z, cplx(1.0));
    hs.apply_add(x.amps(), z, cplx(0.5, 0.5));
    const long delta = gecos::test::allocations() - before;
#if GECOS_ALLOC_PROBE_ACTIVE
    CHECK_EQ(delta, 0L);
#endif
    std::printf("alloc probe: %ld allocations during warm sector matvecs\n",
                delta);
  }

  return gecos::test::finish("test_sector_op");
}

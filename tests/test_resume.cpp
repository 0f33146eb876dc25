// Interrupt/resume suite: a checkpointing Lanczos run cut off by a matvec
// budget resumes into the bit-identical trajectory (same eigenvalues, same
// final matvec count as the uninterrupted run); recovery falls back to
// .bak when the primary is damaged; geometry mismatches are rejected; and
// the same machinery works unchanged on sector-restricted operators.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "fault_inject.hpp"
#include "fermion/hubbard.hpp"
#include "io/checkpoint.hpp"
#include "ops/scb_sum.hpp"
#include "solver/lanczos.hpp"
#include "state/state_vector.hpp"
#include "symmetry/sector_operator.hpp"
#include "test_util.hpp"
#include "util/error.hpp"

using namespace gecos;

namespace {

/// True when fn() throws a gecos::Error of exactly the given kind.
template <typename Fn>
bool throws_kind(ErrorKind kind, Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.kind() == kind;
  } catch (...) {
    return false;
  }
  return false;
}

}  // namespace

int main() {
  const std::string lpath = "resume_test_lanczos.bin";

  // -- Lanczos: interrupted + resumed == uninterrupted ----------------------
  HubbardParams ring;  // 1D periodic ring, n = 8
  ring.lx = 8;
  ring.u = 2.0;
  ring.mu = 0.3;
  ring.periodic_x = true;
  const ScbSum h = hubbard_scb(ring);

  LanczosOptions lo;
  lo.k = 2;
  lo.tol = 1e-11;
  Lanczos ref(h, lo);
  const double e_ref = ref.solve().eigenvalues[0];
  const double e1_ref = ref.result().eigenvalues[1];
  const std::size_t matvecs_ref = ref.result().matvecs;
  CHECK(ref.result().converged);

  LanczosOptions lc = lo;
  lc.checkpoint_path = lpath;
  lc.checkpoint_interval = 10;
  remove_checkpoint(lpath);
  {
    LanczosOptions cut = lc;
    cut.max_matvecs = 30;  // interrupt mid-flight, well before convergence
    Lanczos part(h, cut);
    const LanczosResult& ri = part.solve();
    CHECK(!ri.converged);
    CHECK_EQ(ri.checkpoints_written, 2);  // at matvecs 10 and 20
    CHECK(checkpoint_exists(lpath));
  }
  {
    Lanczos cont(h, lc);
    const LanczosResult& rr = cont.resume(lpath);
    CHECK(rr.converged);
    CHECK(rr.resumed);
    CHECK_EQ(rr.resumed_matvecs, 20);  // inherited from the last checkpoint
    // Bit-identical continuation for a fixed thread count: the resumed run
    // lands on the very trajectory the uninterrupted one took.
    CHECK_NEAR(rr.eigenvalues[0], e_ref, 1e-13);
    CHECK_NEAR(rr.eigenvalues[1], e1_ref, 1e-13);
    CHECK_EQ(rr.matvecs, matvecs_ref);
    CHECK(rr.max_norm_drift <= 1e-10);  // resume-boundary health monitors
    CHECK(rr.max_ortho_loss <= 1e-10);
    std::printf("lanczos resume: E0=%.12f matvecs=%zu (saved %zu)\n",
                rr.eigenvalues[0], rr.matvecs, rr.resumed_matvecs);
  }

  // -- geometry validation: a checkpoint only resumes into the same solver --
  {
    HubbardParams chain;  // n = 6: wrong dimension entirely
    chain.lx = 6;
    chain.u = 2.0;
    const ScbSum h6 = hubbard_scb(chain);
    Lanczos wrong_dim(h6, lo);
    CHECK(throws_kind(ErrorKind::dim_mismatch,
                      [&] { (void)wrong_dim.resume(lpath); }));

    LanczosOptions lo2 = lo;  // right operator, different subspace cap
    lo2.max_subspace = 20;
    Lanczos wrong_m(h, lo2);
    CHECK(throws_kind(ErrorKind::dim_mismatch,
                      [&] { (void)wrong_m.resume(lpath); }));

    LanczosOptions lo3 = lo;  // different reorth policy (lo: the default)
    lo3.reorth = LanczosReorth::kFull;
    Lanczos wrong_policy(h, lo3);
    CHECK(throws_kind(ErrorKind::dim_mismatch,
                      [&] { (void)wrong_policy.resume(lpath); }));
  }

  // -- fault recovery: corrupt primary falls back to .bak, both dead throws -
  {
    // Re-create the interrupted state (the resumed run above kept writing,
    // rotating its own generations over these files): after the cut solve,
    // .bak holds the matvecs=10 checkpoint and the primary matvecs=20.
    remove_checkpoint(lpath);
    {
      LanczosOptions cut = lc;
      cut.max_matvecs = 30;
      Lanczos part(h, cut);
      CHECK(!part.solve().converged);
    }
    // Damage the primary: resume proceeds from the backup and still
    // reproduces the uninterrupted physics. The resume solver itself runs
    // with checkpointing off so the damaged files stay as laid out here.
    test::flip_bit(lpath, 200, 5);
    Lanczos cont(h, lo);
    const LanczosResult& rr = cont.resume(lpath);
    CHECK(rr.converged);
    CHECK_EQ(rr.resumed_matvecs, 10);  // the .bak generation
    CHECK_NEAR(rr.eigenvalues[0], e_ref, 1e-13);
    CHECK_EQ(rr.matvecs, matvecs_ref);

    // Both generations damaged: the error surfaces instead of garbage.
    test::flip_bit(lpath + ".bak", 200, 5);
    Lanczos dead(h, lo);
    CHECK(throws_kind(ErrorKind::io_corrupt, [&] { (void)dead.resume(lpath); }));

    // No file at all is also io_corrupt (unopenable), not a silent fresh run.
    remove_checkpoint(lpath);
    Lanczos gone(h, lo);
    CHECK(throws_kind(ErrorKind::io_corrupt, [&] { (void)gone.resume(lpath); }));
  }

  // -- sector-restricted operators resume through the same machinery --------
  {
    HubbardParams p;  // 2x2 spinful lattice, n = 8; half-filling sector
    p.lx = 2;
    p.ly = 2;
    p.u = 4.0;
    p.mu = 0.5;
    p.spinful = true;
    const ScbSum hf = hubbard_scb(p);
    const SectorBasis basis = hubbard_sector(p, 2, 2);
    const SectorOperator hs(basis, hf);

    LanczosOptions so;
    so.k = 1;
    so.tol = 1e-11;
    Lanczos sref(hs, so);
    const double es_ref = sref.solve().eigenvalues[0];
    const std::size_t sm_ref = sref.result().matvecs;
    CHECK(sref.result().converged);

    LanczosOptions sc = so;
    sc.checkpoint_path = lpath;
    sc.checkpoint_interval = 4;
    remove_checkpoint(lpath);
    {
      LanczosOptions cut = sc;
      cut.max_matvecs = 10;
      Lanczos part(hs, cut);
      CHECK(!part.solve().converged);
    }
    Lanczos cont(hs, sc);
    const LanczosResult& rr = cont.resume(lpath);
    CHECK(rr.converged);
    CHECK_NEAR(rr.eigenvalues[0], es_ref, 1e-13);
    CHECK_EQ(rr.matvecs, sm_ref);
    std::printf("sector resume: dim=%zu E0=%.12f matvecs=%zu\n", basis.dim(),
                rr.eigenvalues[0], rr.matvecs);
    remove_checkpoint(lpath);
  }

  return gecos::test::finish("test_resume");
}

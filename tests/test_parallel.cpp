// Threading layer: parallel_for coverage and chunk bookkeeping, scatter_bits
// random access into the subset walk, and thread-count invariance of the
// parallel kernels (same answers at 1 and several workers).
#include <atomic>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "linalg/blas1.hpp"
#include "fermion/hubbard.hpp"
#include "ops/scb_sum.hpp"
#include "state/state_vector.hpp"
#include "test_util.hpp"
#include "util/bits.hpp"
#include "util/parallel.hpp"

using namespace gecos;

int main() {
  const int saved_threads = num_threads();
  std::mt19937 rng(5);

  // scatter_bits is the k-th subset of the mask in ascending order — check
  // against the (sub - mask) & mask successor walk.
  {
    const std::uint64_t mask = 0b1011010110;
    std::uint64_t sub = 0;
    for (std::uint64_t k = 0;; ++k) {
      CHECK_EQ(scatter_bits(k, mask), sub);
      if (sub == mask) break;
      sub = (sub - mask) & mask;
    }
    CHECK_EQ(scatter_bits(0, 0), std::uint64_t{0});
  }

  // parallel_for covers [0, n) exactly once with in-range chunk ids, at
  // several thread-count settings and with a grain forcing real dispatch.
  for (int t : {1, 2, 3, 5}) {
    set_num_threads(t);
    const std::size_t n = 100000;
    std::vector<std::atomic<int>> hits(n);
    std::atomic<bool> chunk_ok{true};
    parallel_for(
        n,
        [&](std::size_t b, std::size_t e, int chunk) {
          if (chunk < 0 || chunk >= num_threads()) chunk_ok = false;
          for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
        },
        /*grain=*/1);
    CHECK(chunk_ok.load());
    bool all_once = true;
    for (std::size_t i = 0; i < n; ++i) all_once &= hits[i].load() == 1;
    CHECK(all_once);
  }

  // Zero-length and tiny ranges stay serial and correct.
  {
    set_num_threads(4);
    int calls = 0;
    parallel_for(0, [&](std::size_t, std::size_t, int) { ++calls; });
    CHECK_EQ(calls, 0);
    std::vector<int> seen(3, 0);
    parallel_for(3, [&](std::size_t b, std::size_t e, int) {
      for (std::size_t i = b; i < e; ++i) seen[i] = 1;
    });
    CHECK_EQ(seen[0] + seen[1] + seen[2], 3);
  }

  // Thread-count invariance of the statevector kernels on a real workload:
  // Hubbard chain apply and reductions agree between 1 and 4 workers.
  {
    HubbardParams p;
    p.lx = 12;
    p.t = 1.0;
    p.u = 2.0;
    p.mu = 0.4;
    p.periodic_x = true;
    const ScbSum h = hubbard_scb(p);
    const ScbSum hp = h.to_pauli();
    const StateVector x = StateVector::random(12, 8);

    set_num_threads(1);
    std::vector<cplx> y1(x.dim());
    h.apply(x.amps(), y1);
    std::vector<cplx> yp1(x.dim());
    hp.apply(x.amps(), yp1);
    const double n1 = vec_norm(y1);
    const cplx d1 = vec_dot(x.amps(), y1);

    set_num_threads(4);
    std::vector<cplx> y4(x.dim());
    h.apply(x.amps(), y4);
    std::vector<cplx> yp4(x.dim());
    hp.apply(x.amps(), yp4);

    CHECK_NEAR(vec_max_abs_diff(y1, y4), 0.0, 0.0);  // identical per term
    CHECK_NEAR(vec_max_abs_diff(yp1, yp4), 0.0, 0.0);
    CHECK_NEAR(vec_norm(y4) - n1, 0.0, 1e-12);
    CHECK_NEAR(vec_dot(x.amps(), y4) - d1, 0.0, 1e-12);
    CHECK_NEAR(vec_max_abs_diff(y1, yp1), 0.0, 1e-11);  // SCB == Pauli

    // axpy and scale across the pool.
    std::vector<cplx> a1(y1), a4(y1);
    set_num_threads(1);
    vec_axpy(a1, cplx(0.5, -0.25), x.amps());
    vec_scale(a1, cplx(1.5));
    set_num_threads(4);
    vec_axpy(a4, cplx(0.5, -0.25), x.amps());
    vec_scale(a4, cplx(1.5));
    CHECK_NEAR(vec_max_abs_diff(a1, a4), 0.0, 0.0);
  }

  // Concurrent const use from two application threads: both expectation
  // calls race on the first-use kernel-cache rebuild of a shared const
  // ScbSum and issue overlapping parallel_for dispatches (serialized by the
  // pool). Results must match the single-threaded answer; the CI ASan leg
  // guards the memory safety of this path.
  {
    set_num_threads(2);
    HubbardParams p;
    p.lx = 10;
    p.t = 1.0;
    p.u = 3.0;
    p.periodic_x = true;
    const ScbSum h = hubbard_scb(p);  // fresh: kernel cache not built yet
    const StateVector x = StateVector::random(10, 17);
    // Per-thread StateVector copies: the internal expectation scratch is
    // per-object and not safe to share across threads (see state_vector.hpp).
    const StateVector xa = x, xb = x;
    cplx ea, eb;
    std::thread ta([&] { ea = xa.expectation(h); });
    std::thread tb([&] { eb = xb.expectation(h); });
    ta.join();
    tb.join();
    set_num_threads(1);
    const cplx expect = x.expectation(h);
    CHECK_NEAR(ea - expect, 0.0, 1e-12);
    CHECK_NEAR(eb - expect, 0.0, 1e-12);
  }

  // The knob clamps to >= 1.
  set_num_threads(0);
  CHECK_EQ(num_threads(), 1);

  set_num_threads(saved_threads);
  return gecos::test::finish("test_parallel");
}

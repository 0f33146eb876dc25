// Artifact-cache suite: hit/miss accounting and pointer identity, the
// type-checked key collision rule, LRU eviction under a byte budget with
// pinned entries exempt, clear() semantics, and the three serve-layer
// artifact builders (Hamiltonian ScbSum, compiled sector operator, compiled
// observable) — including the byte charge of a sector operator (its own
// memory_bytes()) and the headline warm-path property that a cache hit
// skips kernel compilation and sector-table construction entirely
// (telemetry deltas pinned at zero).
#include <cmath>
#include <memory>
#include <vector>

#include "serve/artifact_cache.hpp"
#include "symmetry/sector_vector.hpp"
#include "telemetry/telemetry.hpp"
#include "test_util.hpp"
#include "util/parallel.hpp"

using namespace gecos;
using namespace gecos::serve;

namespace {

/// A payload with a visible size for budget tests.
using Blob = std::vector<unsigned char>;

std::shared_ptr<const Blob> make_blob(std::size_t n) {
  return std::make_shared<const Blob>(n, 0xab);
}

auto blob_bytes = [](const Blob& b) { return b.size(); };

HubbardParams quick_lattice() {
  HubbardParams p;
  p.lx = 3;
  p.ly = 2;
  p.t = 1.0;
  p.u = 4.0;
  p.mu = 0.5;
  p.periodic_x = true;
  p.spinful = true;
  return p;
}

}  // namespace

int main() {
  set_num_threads(2);

  // -- miss, hit, pointer identity ------------------------------------------
  {
    ArtifactCache cache(1 << 20);
    int builds = 0;
    const auto build = [&] {
      ++builds;
      return make_blob(64);
    };
    const auto a = cache.get_or_build<Blob>(1, build, blob_bytes);
    CHECK_EQ(builds, 1);
    CHECK_EQ(cache.misses(), 1u);
    CHECK_EQ(cache.hits(), 0u);
    const auto b = cache.get_or_build<Blob>(1, build, blob_bytes);
    CHECK_EQ(builds, 1);  // second lookup never calls build
    CHECK_EQ(cache.hits(), 1u);
    CHECK(a.get() == b.get());  // pointer identity, not just equality
    CHECK_EQ(cache.resident_entries(), 1u);
    CHECK_EQ(cache.resident_bytes(), 64u);
  }

  // -- a key colliding across types is a miss, never a wrong-type cast ------
  {
    ArtifactCache cache(1 << 20);
    const auto blob = cache.get_or_build<Blob>(7, [] { return make_blob(8); },
                                               blob_bytes);
    const auto ints = cache.get_or_build<std::vector<int>>(
        7, [] { return std::make_shared<const std::vector<int>>(4, -1); },
        [](const std::vector<int>& v) { return v.size() * sizeof(int); });
    CHECK_EQ(cache.misses(), 2u);  // same key, different type: both build
    CHECK(ints->size() == 4 && ints->at(0) == -1);
    CHECK(blob->size() == 8);
  }

  // -- LRU eviction under the byte budget -----------------------------------
  {
    ArtifactCache cache(100);
    // A is released back to the cache (unpinned); B arrives and pushes the
    // total over budget, so A — the least recently used unpinned entry —
    // is evicted.
    cache.get_or_build<Blob>(1, [] { return make_blob(60); }, blob_bytes);
    const auto b = cache.get_or_build<Blob>(
        2, [] { return make_blob(60); }, blob_bytes);
    CHECK_EQ(cache.evictions(), 1u);
    CHECK_EQ(cache.resident_entries(), 1u);
    CHECK_EQ(cache.resident_bytes(), 60u);
    // A rebuilds on the next request (a fresh miss).
    int rebuilds = 0;
    cache.get_or_build<Blob>(1,
                             [&] {
                               ++rebuilds;
                               return make_blob(60);
                             },
                             blob_bytes);
    CHECK_EQ(rebuilds, 1);
    (void)b;
  }

  // -- pinned entries are never evicted: the budget bounds idle bytes -------
  {
    ArtifactCache cache(100);
    auto a = cache.get_or_build<Blob>(1, [] { return make_blob(60); },
                                      blob_bytes);
    auto b = cache.get_or_build<Blob>(2, [] { return make_blob(60); },
                                      blob_bytes);
    // Both pinned by the local shared_ptrs: over budget, zero evictions.
    CHECK_EQ(cache.evictions(), 0u);
    CHECK_EQ(cache.resident_entries(), 2u);
    CHECK_EQ(cache.resident_bytes(), 120u);
    // Release both and insert C: the sweep now drops the idle A and B,
    // keeping only C within budget.
    a.reset();
    b.reset();
    const auto c = cache.get_or_build<Blob>(
        3, [] { return make_blob(60); }, blob_bytes);
    CHECK_EQ(cache.evictions(), 2u);
    CHECK_EQ(cache.resident_entries(), 1u);
    CHECK(c->size() == 60);
  }

  // -- clear() drops unpinned entries and keeps pinned ones -----------------
  {
    ArtifactCache cache(1 << 20);
    const auto pinned = cache.get_or_build<Blob>(
        1, [] { return make_blob(16); }, blob_bytes);
    cache.get_or_build<Blob>(2, [] { return make_blob(16); }, blob_bytes);
    cache.clear();
    // The pinned entry survived: next lookup is a hit with the same object.
    const auto again = cache.get_or_build<Blob>(
        1, [] { return make_blob(16); }, blob_bytes);
    CHECK(again.get() == pinned.get());
    // The unpinned entry was dropped: next lookup rebuilds.
    int rebuilds = 0;
    cache.get_or_build<Blob>(2,
                             [&] {
                               ++rebuilds;
                               return make_blob(16);
                             },
                             blob_bytes);
    CHECK_EQ(rebuilds, 1);
  }

  // -- serve artifact builders: identity across calls, keyed by content -----
  {
    ArtifactCache cache(std::size_t{256} << 20);
    const HubbardParams p = quick_lattice();

    const auto h1 = cached_hubbard(cache, p);
    const auto h2 = cached_hubbard(cache, p);
    CHECK(h1.get() == h2.get());
    HubbardParams p2 = p;
    p2.u = 4.25;
    CHECK(cached_hubbard(cache, p2).get() != h1.get());

    const auto s1 = cached_sector_op(cache, p, 3, 3);
    const auto s2 = cached_sector_op(cache, p, 3, 3);
    CHECK(s1.get() == s2.get());
    CHECK(cached_sector_op(cache, p, 2, 2).get() != s1.get());

    const ObservableSpec obs{ObservableKind::kDensity, 1, 0};
    const auto o1 = cached_observable(cache, p, 3, 3, obs);
    const auto o2 = cached_observable(cache, p, 3, 3, obs);
    CHECK(o1.get() == o2.get());
    const ObservableSpec other{ObservableKind::kDensity, 2, 0};
    CHECK(cached_observable(cache, p, 3, 3, other).get() != o1.get());
    // Same site, different kind: a distinct artifact.
    const ObservableSpec doublon{ObservableKind::kDoublon, 1, 0};
    CHECK(cached_observable(cache, p, 3, 3, doublon).get() != o1.get());
  }

  // -- a cached sector operator is charged exactly its own footprint --------
  {
    ArtifactCache cache(std::size_t{256} << 20);
    const HubbardParams p = quick_lattice();
    (void)cached_hubbard(cache, p);  // the Hamiltonian is its own entry
    std::size_t before = cache.resident_bytes();
    const auto op = cached_sector_op(cache, p, 3, 3);
    CHECK_EQ(cache.resident_bytes() - before, op->memory_bytes());
    // At least the config table, the row offsets and the fused diagonal.
    CHECK(op->memory_bytes() > op->dim() * (8 + 8 + 16));
    before = cache.resident_bytes();
    const auto obs = cached_observable(cache, p, 3, 3,
                                       {ObservableKind::kDoublon, 1, 0});
    CHECK_EQ(cache.resident_bytes() - before, obs->memory_bytes());
  }

  // -- the warm path skips kernel compiles and sector-table builds ----------
  {
    telemetry::set_metrics_enabled(true);
    ArtifactCache cache(std::size_t{256} << 20);
    const HubbardParams p = quick_lattice();

    const auto before_cold = telemetry::metrics_snapshot();
    const auto op = cached_sector_op(cache, p, 3, 3);
    const auto after_cold = telemetry::metrics_snapshot();
    const auto cold = telemetry::metrics_delta(before_cold, after_cold);
    CHECK(cold.counter(telemetry::Counter::kernel_compiles) > 0);
    CHECK(cold.counter(telemetry::Counter::artifact_misses) > 0);

    const auto before_warm = telemetry::metrics_snapshot();
    const auto warm_op = cached_sector_op(cache, p, 3, 3);
    const auto after_warm = telemetry::metrics_snapshot();
    const auto warm = telemetry::metrics_delta(before_warm, after_warm);
    CHECK(warm_op.get() == op.get());
    CHECK_EQ(warm.counter(telemetry::Counter::kernel_compiles), 0u);
    CHECK_EQ(warm.counter(telemetry::Counter::sector_table_builds), 0u);
    CHECK(warm.counter(telemetry::Counter::artifact_hits) > 0);
    CHECK_EQ(warm.counter(telemetry::Counter::artifact_misses), 0u);
    telemetry::set_metrics_enabled(false);

    // And the cached operator actually computes: a Hermitian expectation
    // on the rank-0 sector state is finite and real.
    const SectorVector v(op->basis());
    const cplx e = v.expectation(*op);
    CHECK(std::isfinite(e.real()));
    CHECK_NEAR(e.imag(), 0.0, 1e-12);
  }

  return gecos::test::finish("test_artifact_cache");
}

#include "serve/artifact_cache.hpp"

#include <functional>

#include "io/xxhash.hpp"
#include "serve/batch.hpp"
#include "telemetry/telemetry.hpp"

namespace gecos::serve {

namespace {

// Per-artifact-type hash tags: the same lattice bytes keyed as a Hubbard
// sum, a sector operator or an observable never collide.
constexpr std::uint64_t kHubbardTag = 0x4855424201ULL;
constexpr std::uint64_t kSectorOpTag = 0x534543544F500001ULL;
constexpr std::uint64_t kObservableTag = 0x4F42530000000001ULL;

std::uint64_t hash_payload(const PayloadWriter& w, std::uint64_t tag) {
  return xxh64(w.bytes().data(), w.bytes().size(), tag);
}

// Rough byte accounting for a Hamiltonian sum: the budget bounds idle
// memory, so tracking the dominant allocation is enough. Sector operators
// report their own footprint (SectorOperator::memory_bytes).
std::size_t scb_sum_bytes(const ScbSum& s) {
  return s.size() * (s.num_qubits() * sizeof(Scb) + 64);
}

const auto sector_op_bytes = std::mem_fn(&SectorOperator::memory_bytes);

}  // namespace

std::uint64_t ArtifactCache::hits() const {
  std::scoped_lock<std::mutex> lk(mutex_);
  return hits_;
}

std::uint64_t ArtifactCache::misses() const {
  std::scoped_lock<std::mutex> lk(mutex_);
  return misses_;
}

std::uint64_t ArtifactCache::evictions() const {
  std::scoped_lock<std::mutex> lk(mutex_);
  return evictions_;
}

std::size_t ArtifactCache::resident_bytes() const {
  std::scoped_lock<std::mutex> lk(mutex_);
  return bytes_;
}

std::size_t ArtifactCache::resident_entries() const {
  std::scoped_lock<std::mutex> lk(mutex_);
  return entries_.size();
}

void ArtifactCache::clear() {
  std::scoped_lock<std::mutex> lk(mutex_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.value.use_count() == 1) {
      bytes_ -= it->second.bytes;
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

std::shared_ptr<const void> ArtifactCache::lookup(std::uint64_t key,
                                                  const std::type_info& type) {
  std::scoped_lock<std::mutex> lk(mutex_);
  auto it = entries_.find(key);
  if (it != entries_.end() && *it->second.type == type) {
    ++hits_;
    it->second.last_use = ++seq_;
    telemetry::count(telemetry::Counter::artifact_hits);
    return it->second.value;
  }
  ++misses_;
  telemetry::count(telemetry::Counter::artifact_misses);
  return nullptr;
}

std::shared_ptr<const void> ArtifactCache::insert(
    std::uint64_t key, const std::type_info& type,
    std::shared_ptr<const void> value, std::size_t bytes) {
  std::scoped_lock<std::mutex> lk(mutex_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // A racing builder won while we were building outside the lock (or a
    // key collided across types — then overwrite). Adopt the winner so
    // every caller holds the SAME object: pointer identity is what makes
    // shared kernel caches and config tables actually shared.
    if (*it->second.type == type) return it->second.value;
    bytes_ -= it->second.bytes;
    entries_.erase(it);
  }
  Entry e;
  e.value = std::move(value);
  e.type = &type;
  e.bytes = bytes;
  e.last_use = ++seq_;
  bytes_ += bytes;
  auto stored = e.value;
  entries_.emplace(key, std::move(e));
  evict_locked();
  return stored;
}

void ArtifactCache::evict_locked() {
  // LRU scan until under budget; entries some caller still pins
  // (use_count > 1: ours plus theirs) are exempt — the budget bounds idle
  // bytes, not the live working set.
  while (bytes_ > budget_) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.value.use_count() > 1) continue;
      if (victim == entries_.end() ||
          it->second.last_use < victim->second.last_use)
        victim = it;
    }
    if (victim == entries_.end()) return;  // everything pinned
    bytes_ -= victim->second.bytes;
    entries_.erase(victim);
    ++evictions_;
    telemetry::count(telemetry::Counter::artifact_evictions);
  }
}

std::shared_ptr<const ScbSum> cached_hubbard(ArtifactCache& cache,
                                             const HubbardParams& p) {
  PayloadWriter w;
  encode_lattice(w, p);
  const std::uint64_t key = hash_payload(w, kHubbardTag);
  return cache.get_or_build<ScbSum>(
      key, [&] { return std::make_shared<const ScbSum>(hubbard_scb(p)); },
      scb_sum_bytes);
}

std::shared_ptr<const SectorOperator> cached_sector_op(ArtifactCache& cache,
                                                       const HubbardParams& p,
                                                       std::uint32_t n_up,
                                                       std::uint32_t n_down) {
  PayloadWriter w;
  encode_lattice(w, p);
  w.put_u32(n_up);
  w.put_u32(n_down);
  const std::uint64_t key = hash_payload(w, kSectorOpTag);
  return cache.get_or_build<SectorOperator>(
      key,
      [&] {
        const std::shared_ptr<const ScbSum> h = cached_hubbard(cache, p);
        return std::make_shared<const SectorOperator>(
            hubbard_sector(p, n_up, n_down), *h);
      },
      sector_op_bytes);
}

std::shared_ptr<const SectorOperator> cached_observable(
    ArtifactCache& cache, const HubbardParams& p, std::uint32_t n_up,
    std::uint32_t n_down, const ObservableSpec& obs) {
  PayloadWriter w;
  encode_lattice(w, p);
  w.put_u32(n_up);
  w.put_u32(n_down);
  w.put_u32(static_cast<std::uint32_t>(obs.kind));
  w.put_u32(obs.site_a);
  w.put_u32(obs.site_b);
  const std::uint64_t key = hash_payload(w, kObservableTag);
  return cache.get_or_build<SectorOperator>(
      key,
      [&] {
        return std::make_shared<const SectorOperator>(
            hubbard_sector(p, n_up, n_down), build_observable(p, obs));
      },
      sector_op_bytes);
}

}  // namespace gecos::serve

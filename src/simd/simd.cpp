#include "simd/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <stdexcept>

#include "simd/kernels.hpp"

namespace gecos {

namespace {

/// Host CPUID support for a tier (independent of what was compiled in).
bool cpu_supports(SimdTier t) {
#if defined(__x86_64__) || defined(_M_X64)
  switch (t) {
    case SimdTier::scalar:
      return true;
    case SimdTier::avx2:
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    case SimdTier::avx512:
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512dq") &&
             __builtin_cpu_supports("avx512vl") &&
             __builtin_cpu_supports("avx512bw");
  }
  return false;
#else
  return t == SimdTier::scalar;
#endif
}

/// First-use tier: GECOS_SIMD when set (loud failure on an unknown name or
/// an unavailable tier — a silent fallback would quietly un-force what the
/// user forced), else the widest available tier.
SimdTier initial_tier() {
  if (const char* env = std::getenv("GECOS_SIMD")) {
    const SimdTier t = parse_simd_tier(env);
    if (!simd_tier_available(t))
      throw std::invalid_argument(
          std::string("GECOS_SIMD=") + simd_tier_name(t) +
          ": tier not available on this host (compiled: " +
          (simd::impl_for(t).compiled ? "yes" : "no") + ", cpu: " +
          (cpu_supports(t) ? "yes" : "no") + ")");
    return t;
  }
  return simd_best_tier();
}

std::atomic<SimdTier>& tier_state() {
  static std::atomic<SimdTier> t{initial_tier()};
  return t;
}

}  // namespace

const char* simd_tier_name(SimdTier t) {
  switch (t) {
    case SimdTier::scalar:
      return "scalar";
    case SimdTier::avx2:
      return "avx2";
    case SimdTier::avx512:
      return "avx512";
  }
  return "unknown";
}

SimdTier parse_simd_tier(const std::string& name) {
  if (name == "scalar") return SimdTier::scalar;
  if (name == "avx2") return SimdTier::avx2;
  if (name == "avx512") return SimdTier::avx512;
  throw std::invalid_argument("parse_simd_tier: unknown tier '" + name +
                              "' (expected scalar | avx2 | avx512)");
}

bool simd_tier_available(SimdTier t) {
  return simd::impl_for(t).compiled && cpu_supports(t);
}

SimdTier simd_best_tier() {
  if (simd_tier_available(SimdTier::avx512)) return SimdTier::avx512;
  if (simd_tier_available(SimdTier::avx2)) return SimdTier::avx2;
  return SimdTier::scalar;
}

SimdTier simd_tier() {
  return tier_state().load(std::memory_order_relaxed);
}

void set_simd_tier(SimdTier t) {
  if (!simd_tier_available(t))
    throw std::invalid_argument(
        std::string("set_simd_tier: tier '") + simd_tier_name(t) +
        "' is not available on this host");
  tier_state().store(t, std::memory_order_relaxed);
}

namespace simd {

const TierImpl& impl_for(SimdTier t) {
  switch (t) {
    case SimdTier::avx2:
      return kAvx2Impl;
    case SimdTier::avx512:
      return kAvx512Impl;
    case SimdTier::scalar:
      break;
  }
  return kScalarImpl;
}

const Kernels& active() { return impl_for(simd_tier()).kernels; }

}  // namespace simd

}  // namespace gecos

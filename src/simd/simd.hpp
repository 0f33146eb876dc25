// Runtime-dispatched SIMD tier selection for the wide statevector kernels.
//
// The hot loops of the library (blas1 reductions and updates, TermKernel /
// TermExp sweeps, fused Trotter passes) route their innermost contiguous
// ranges through a table of function pointers (src/simd/kernels.hpp) chosen
// at runtime from up to three tiers:
//
//   scalar  — portable std::fma implementation, always compiled, the
//             reference every wide tier is pinned against (test_simd);
//   avx2    — 2 complex<double> per register (AVX2 + FMA3);
//   avx512  — 4 complex<double> per register (AVX-512 F/DQ/VL/BW).
//
// Tier selection: the first call reads the GECOS_SIMD environment variable
// ("scalar" | "avx2" | "avx512", mirroring GECOS_THREADS); when unset, the
// widest tier both compiled in AND supported by the host CPUID is picked.
// Forcing a tier the host cannot run throws std::invalid_argument — loud
// beats a SIGILL. bench_main exposes the same knob as --simd.
//
// Every tier computes BITWISE-IDENTICAL results for identical (pointer,
// length) ranges: reductions accumulate into a fixed 8-double lane pattern
// (lane j sums the doubles at positions == j mod 8) combined by one shared
// tree, and elementwise kernels use the exact fused-multiply-add formulas
// of the x86 fmaddsub/fmsubadd instructions (the scalar tier spells them
// with std::fma). The kernel translation units are compiled with
// -ffp-contract=off so no compiler re-fusion can break the equivalence.
// See DESIGN.md "SIMD kernels & runtime dispatch".
#pragma once

#include <string>

namespace gecos {

/// Dispatch tiers, narrowest to widest. Values are stable (used as array
/// indices and recorded in BENCH_pauli.json's hw block).
enum class SimdTier { scalar = 0, avx2 = 1, avx512 = 2 };

/// Human-readable tier name ("scalar" / "avx2" / "avx512"), the same
/// spelling GECOS_SIMD and --simd accept.
const char* simd_tier_name(SimdTier t);

/// Parses a tier name; throws std::invalid_argument on anything else.
SimdTier parse_simd_tier(const std::string& name);

/// True when the tier is both compiled into this binary and supported by
/// the host CPU (CPUID). The scalar tier is always available.
bool simd_tier_available(SimdTier t);

/// Widest available tier on this host (what auto-selection picks).
SimdTier simd_best_tier();

/// Currently active tier. The first call initializes it from GECOS_SIMD
/// (throwing std::invalid_argument on an unknown name or an unavailable
/// tier) or from simd_best_tier() when the variable is unset.
SimdTier simd_tier();

/// Forces the active tier; throws std::invalid_argument when the tier is
/// not available on this host. Thread-safe, but callers should switch tiers
/// only between (not during) kernel invocations — concurrent kernels keep
/// working either way, each call snapshots one table.
void set_simd_tier(SimdTier t);

}  // namespace gecos

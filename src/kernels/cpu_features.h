// Runtime CPU-dispatch policy for the kernel substrate.
//
// The default build carries no -march flags: every translation unit
// except the vector backends compiles for the baseline ISA, and those
// are only *entered* after a cpuid probe says the host executes their
// instructions. The level is resolved once on
// first use and cached; benches and tests may override it to compare
// code paths on the same machine.

#ifndef RELSERVE_KERNELS_CPU_FEATURES_H_
#define RELSERVE_KERNELS_CPU_FEATURES_H_

namespace relserve {
namespace kernels {

enum class SimdLevel {
  kScalar,  // portable fallback, correct on any hardware
  // FMA micro-kernels on x86 with AVX2+FMA+OS support: the 6x16 ymm
  // GEMM tile, or on AVX-512F hosts the bit-identical 6x32 zmm tile
  // (and the AVX-VNNI int8 backend where the CPU has it).
  kAvx2,
};

const char* SimdLevelName(SimdLevel level);

// Raw hardware probe (cpuid on x86, kScalar elsewhere). Ignores the
// environment override and the cached active level.
SimdLevel DetectSimdLevel();

// The level all kernels dispatch on. Resolved once: hardware probe,
// then the RELSERVE_SIMD environment variable ("scalar" forces the
// fallback; "avx2" requests the vector path but silently degrades to
// scalar when the probe says the hardware cannot run it).
SimdLevel ActiveSimdLevel();

// Test/bench hook: pins the active level from now on. Requests the
// hardware cannot satisfy degrade to kScalar; returns the level
// actually installed.
SimdLevel SetActiveSimdLevel(SimdLevel level);

}  // namespace kernels
}  // namespace relserve

#endif  // RELSERVE_KERNELS_CPU_FEATURES_H_

// simd.h — portable fixed-width f64 lane wrapper for the sweep kernels.
//
// One backend is selected at compile time from the target ISA:
//
//   * AVX2   — 4×f64 (`__AVX2__`, e.g. -march=x86-64-v3)
//   * SSE2   — 2×f64 (the x86-64 baseline, always on)
//   * NEON   — 2×f64 (`__aarch64__`)
//   * scalar — 1 lane; the always-correct reference, also what
//              `-DCL_SIMD_FORCE_SCALAR=1` forces on any target.
//
// Every backend is bit-identical: the kernels perform the same IEEE-754
// operations on the same values whatever the lane width (DESIGN.md
// §"SIMD kernels").
//
// VF64 is not a general vector library: it holds exactly what the one
// vectorized kernel, sim/sweep_kernels.h's fold_traffic, uses —
// unaligned load/store, broadcast, + and *. GCC does not vectorize the
// plain 5-lane loop at the kernel's inlined call sites, and that loop
// measured slower end to end (DESIGN.md §10). The header also holds the
// software-prefetch hint of the column gathers.
#pragma once

#include <cstddef>

#if defined(CL_SIMD_FORCE_SCALAR)
#define CL_SIMD_SCALAR 1
#elif defined(__AVX2__)
#define CL_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define CL_SIMD_SSE2 1
#include <emmintrin.h>
#elif defined(__aarch64__) && defined(__ARM_NEON)
#define CL_SIMD_NEON 1
#include <arm_neon.h>
#else
#define CL_SIMD_SCALAR 1
#endif

namespace cl::simd {

#if defined(CL_SIMD_AVX2)
inline constexpr const char* kBackendName = "avx2";
#elif defined(CL_SIMD_SSE2)
inline constexpr const char* kBackendName = "sse2";
#elif defined(CL_SIMD_NEON)
inline constexpr const char* kBackendName = "neon";
#else
inline constexpr const char* kBackendName = "scalar";
#endif

/// Software-prefetch hint for the column-gather kernels: swarm indices stride
/// tens of sessions apart, so nearly every column access opens a fresh
/// cache line in a pattern the hardware prefetcher cannot predict — but
/// the kernel knows the next indices well in advance. Purely a hint; no
/// effect on results.
inline void prefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

/// How many elements ahead the gather kernels prefetch — far enough to
/// cover a memory round-trip at a few cycles per element, near enough
/// that the lines still sit in L1 when the loop arrives.
inline constexpr std::size_t kPrefetchAhead = 16;

// ---------------------------------------------------------------------------
// VF64 — kLanes × double
// ---------------------------------------------------------------------------

#if defined(CL_SIMD_AVX2)

struct VF64 {
  __m256d v;
  static constexpr std::size_t kLanes = 4;

  static VF64 set1(double x) { return {_mm256_set1_pd(x)}; }
  static VF64 loadu(const double* p) { return {_mm256_loadu_pd(p)}; }
  void storeu(double* p) const { _mm256_storeu_pd(p, v); }

  friend VF64 operator+(VF64 a, VF64 b) { return {_mm256_add_pd(a.v, b.v)}; }
  friend VF64 operator*(VF64 a, VF64 b) { return {_mm256_mul_pd(a.v, b.v)}; }
};

#elif defined(CL_SIMD_SSE2)

struct VF64 {
  __m128d v;
  static constexpr std::size_t kLanes = 2;

  static VF64 set1(double x) { return {_mm_set1_pd(x)}; }
  static VF64 loadu(const double* p) { return {_mm_loadu_pd(p)}; }
  void storeu(double* p) const { _mm_storeu_pd(p, v); }

  friend VF64 operator+(VF64 a, VF64 b) { return {_mm_add_pd(a.v, b.v)}; }
  friend VF64 operator*(VF64 a, VF64 b) { return {_mm_mul_pd(a.v, b.v)}; }
};

#elif defined(CL_SIMD_NEON)

struct VF64 {
  float64x2_t v;
  static constexpr std::size_t kLanes = 2;

  static VF64 set1(double x) { return {vdupq_n_f64(x)}; }
  static VF64 loadu(const double* p) { return {vld1q_f64(p)}; }
  void storeu(double* p) const { vst1q_f64(p, v); }

  friend VF64 operator+(VF64 a, VF64 b) { return {vaddq_f64(a.v, b.v)}; }
  friend VF64 operator*(VF64 a, VF64 b) { return {vmulq_f64(a.v, b.v)}; }
};

#else  // scalar

struct VF64 {
  double v;
  static constexpr std::size_t kLanes = 1;

  static VF64 set1(double x) { return {x}; }
  static VF64 loadu(const double* p) { return {*p}; }
  void storeu(double* p) const { *p = v; }

  friend VF64 operator+(VF64 a, VF64 b) { return {a.v + b.v}; }
  friend VF64 operator*(VF64 a, VF64 b) { return {a.v * b.v}; }
};

#endif

}  // namespace cl::simd

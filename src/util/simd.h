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
// VF64 is not a general vector library. The one vectorized kernel in
// sim/sweep_kernels.h (fold_traffic) uses unaligned load/store,
// broadcast, + and *. The rest — /, `gt_mask`/`mask_and` (branchless
// `x > t ? v : 0` selects), per-lane extract and an index-array gather
// (native on AVX2, per-lane loads elsewhere) — served the per-peer
// upload kernel the count route replaced; only tests/test_simd.cpp uses
// them now.
//
// Alignment: `aligned_vector<T>` (a std::vector on AlignedAllocator)
// gives the sweep's scratch arrays 64-byte alignment — one cache line,
// and the widest load any backend issues.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

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

/// Scratch-array alignment: one cache line, and ≥ the widest vector any
/// backend loads.
inline constexpr std::size_t kAlign = 64;

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

/// Minimal over-aligned allocator (C++17 aligned operator new) so
/// std::vector scratch starts on a 64-byte boundary.
template <typename T, std::size_t Align = kAlign>
struct AlignedAllocator {
  using value_type = T;
  static_assert(Align >= alignof(T) && (Align & (Align - 1)) == 0);

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{Align}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{Align});
  }
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };
  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
};

template <typename T>
using aligned_vector = std::vector<T, AlignedAllocator<T>>;

// ---------------------------------------------------------------------------
// VF64 — kLanes × double
// ---------------------------------------------------------------------------

#if defined(CL_SIMD_AVX2)

struct VF64 {
  __m256d v;
  static constexpr std::size_t kLanes = 4;

  static VF64 zero() { return {_mm256_setzero_pd()}; }
  static VF64 set1(double x) { return {_mm256_set1_pd(x)}; }
  static VF64 loadu(const double* p) { return {_mm256_loadu_pd(p)}; }
  void storeu(double* p) const { _mm256_storeu_pd(p, v); }

  /// base[idx[0..3]] — native gather. Indices are treated as *signed*
  /// 32-bit by the instruction; the kernels gather by ExP/PoP id, which
  /// stays far below 2³¹.
  static VF64 gather(const double* base, const std::uint32_t* idx) {
    const __m128i vi =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx));
    return {_mm256_i32gather_pd(base, vi, 8)};
  }

  friend VF64 operator+(VF64 a, VF64 b) { return {_mm256_add_pd(a.v, b.v)}; }
  friend VF64 operator*(VF64 a, VF64 b) { return {_mm256_mul_pd(a.v, b.v)}; }
  friend VF64 operator/(VF64 a, VF64 b) { return {_mm256_div_pd(a.v, b.v)}; }

  /// All-ones lane mask where a > b.
  static VF64 gt_mask(VF64 a, VF64 b) {
    return {_mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ)};
  }
  /// Lane-wise a & mask (mask lanes are all-ones / all-zeros).
  static VF64 mask_and(VF64 a, VF64 mask) {
    return {_mm256_and_pd(a.v, mask.v)};
  }

  [[nodiscard]] double lane(std::size_t i) const {
    alignas(32) double tmp[4];
    _mm256_store_pd(tmp, v);
    return tmp[i];
  }
};

#elif defined(CL_SIMD_SSE2)

struct VF64 {
  __m128d v;
  static constexpr std::size_t kLanes = 2;

  static VF64 zero() { return {_mm_setzero_pd()}; }
  static VF64 set1(double x) { return {_mm_set1_pd(x)}; }
  static VF64 loadu(const double* p) { return {_mm_loadu_pd(p)}; }
  void storeu(double* p) const { _mm_storeu_pd(p, v); }

  /// SSE2 has no gather: two scalar loads packed.
  static VF64 gather(const double* base, const std::uint32_t* idx) {
    return {_mm_set_pd(base[idx[1]], base[idx[0]])};
  }

  friend VF64 operator+(VF64 a, VF64 b) { return {_mm_add_pd(a.v, b.v)}; }
  friend VF64 operator*(VF64 a, VF64 b) { return {_mm_mul_pd(a.v, b.v)}; }
  friend VF64 operator/(VF64 a, VF64 b) { return {_mm_div_pd(a.v, b.v)}; }

  static VF64 gt_mask(VF64 a, VF64 b) { return {_mm_cmpgt_pd(a.v, b.v)}; }
  static VF64 mask_and(VF64 a, VF64 mask) {
    return {_mm_and_pd(a.v, mask.v)};
  }

  [[nodiscard]] double lane(std::size_t i) const {
    alignas(16) double tmp[2];
    _mm_store_pd(tmp, v);
    return tmp[i];
  }
};

#elif defined(CL_SIMD_NEON)

struct VF64 {
  float64x2_t v;
  static constexpr std::size_t kLanes = 2;

  static VF64 zero() { return {vdupq_n_f64(0.0)}; }
  static VF64 set1(double x) { return {vdupq_n_f64(x)}; }
  static VF64 loadu(const double* p) { return {vld1q_f64(p)}; }
  void storeu(double* p) const { vst1q_f64(p, v); }

  static VF64 gather(const double* base, const std::uint32_t* idx) {
    const double lanes[2] = {base[idx[0]], base[idx[1]]};
    return {vld1q_f64(lanes)};
  }

  friend VF64 operator+(VF64 a, VF64 b) { return {vaddq_f64(a.v, b.v)}; }
  friend VF64 operator*(VF64 a, VF64 b) { return {vmulq_f64(a.v, b.v)}; }
  friend VF64 operator/(VF64 a, VF64 b) { return {vdivq_f64(a.v, b.v)}; }

  static VF64 gt_mask(VF64 a, VF64 b) {
    return {vreinterpretq_f64_u64(vcgtq_f64(a.v, b.v))};
  }
  static VF64 mask_and(VF64 a, VF64 mask) {
    return {vreinterpretq_f64_u64(vandq_u64(vreinterpretq_u64_f64(a.v),
                                            vreinterpretq_u64_f64(mask.v)))};
  }

  [[nodiscard]] double lane(std::size_t i) const {
    double tmp[2];
    vst1q_f64(tmp, v);
    return tmp[i];
  }
};

#else  // scalar

struct VF64 {
  double v;
  static constexpr std::size_t kLanes = 1;

  static VF64 zero() { return {0.0}; }
  static VF64 set1(double x) { return {x}; }
  static VF64 loadu(const double* p) { return {*p}; }
  void storeu(double* p) const { *p = v; }
  static VF64 gather(const double* base, const std::uint32_t* idx) {
    return {base[idx[0]]};
  }

  friend VF64 operator+(VF64 a, VF64 b) { return {a.v + b.v}; }
  friend VF64 operator*(VF64 a, VF64 b) { return {a.v * b.v}; }
  friend VF64 operator/(VF64 a, VF64 b) { return {a.v / b.v}; }
  static VF64 gt_mask(VF64 a, VF64 b) {
    std::uint64_t m = a.v > b.v ? ~std::uint64_t{0} : 0;
    double d;
    __builtin_memcpy(&d, &m, sizeof d);
    return {d};
  }
  static VF64 mask_and(VF64 a, VF64 mask) {
    std::uint64_t x, m;
    __builtin_memcpy(&x, &a.v, sizeof x);
    __builtin_memcpy(&m, &mask.v, sizeof m);
    x &= m;
    double d;
    __builtin_memcpy(&d, &x, sizeof d);
    return {d};
  }
  [[nodiscard]] double lane(std::size_t) const { return v; }
};

#endif

}  // namespace cl::simd

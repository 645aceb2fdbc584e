// The packed AVX2/FMA micro-kernels.
//
// Compiled with per-function `target("avx2,fma")` attributes so this TU
// builds under any -march (including the portable -DGEP_NATIVE_ARCH=OFF
// CI leg); callers only reach it after simd::active() confirmed the
// host executes AVX2+FMA. Every kernel is written once over Vec<T>,
// shares one k-loop (ukr_loop) and is instantiated for double and float
// at the end of the file.
//
// Correctness contracts (verified by tests/test_simd_kernels.cpp and
// tests/test_strassen.cpp):
//  - the semiring micro-kernel is BIT-EXACT vs the scalar templates:
//    the vector lanes perform the identical elementwise add/min/max in
//    the same k order, and min/max operand order is chosen so ties
//    resolve like std::min / std::max (second operand = the old x
//    value).
//  - the GEMM micro-kernels use FMA, so they are tolerance-equivalent
//    to scalar (documented in docs/KERNELS.md) and deterministic
//    run-to-run at fixed dispatch.
#include "simd/kernels_avx2.hpp"

#if GEP_SIMD_X86

#include <immintrin.h>

// Helpers that take or return vectors are always inlined: an out-of-line
// copy would pass ymm values under an ABI the portable build lacks.
#define GEP_AVX2_INLINE \
  __attribute__((target("avx2,fma"), always_inline)) inline

namespace gep::simd {
namespace {

// One 256-bit vector of T and the lane operations the kernels use.
template <class T>
struct Vec;

#define GEP_VEC(T, V, S, B)                                                   \
  template <>                                                                 \
  struct Vec<T> {                                                             \
    using type = V;                                                           \
    static constexpr index_t kLanes = 32 / sizeof(T);                         \
    GEP_AVX2_INLINE static V load(const T* p) { return _mm256_loadu_##S(p); } \
    GEP_AVX2_INLINE static void store(T* p, V a) { _mm256_storeu_##S(p, a); } \
    GEP_AVX2_INLINE static V bcast(const T* p) {                              \
      return _mm256_broadcast_##B(p);                                         \
    }                                                                         \
    GEP_AVX2_INLINE static V set1(T a) { return _mm256_set1_##S(a); }         \
    GEP_AVX2_INLINE static V zero() { return _mm256_setzero_##S(); }          \
    GEP_AVX2_INLINE static V plus(V a, V b) { return _mm256_add_##S(a, b); }  \
    GEP_AVX2_INLINE static V min(V a, V b) { return _mm256_min_##S(a, b); }   \
    GEP_AVX2_INLINE static V max(V a, V b) { return _mm256_max_##S(a, b); }   \
    GEP_AVX2_INLINE static V fmadd(V a, V b, V c) {                           \
      return _mm256_fmadd_##S(a, b, c);                                       \
    }                                                                         \
  };
GEP_VEC(double, __m256d, pd, sd)
GEP_VEC(float, __m256, ps, ss)
#undef GEP_VEC

// The k-loop of every 6 x NR micro-kernel: folds the packed panels into
// the two accumulator columns, acc = Fold::step(a_i, b, acc), over
// ascending k. Two 1-D accumulator arrays over fully unrolled row loops
// let GCC keep all twelve in registers — an acc[MR][2] array is spilled
// to the stack on every k step — so callers unroll their init and
// write-back loops the same way (without it the spills stay).
template <class T, class Fold>
GEP_AVX2_INLINE void ukr_loop(index_t kc, const T* pa, const T* pb,
                              typename Vec<T>::type (&acc0)[kMicroRows],
                              typename Vec<T>::type (&acc1)[kMicroRows]) {
  using V = Vec<T>;
  constexpr index_t L = V::kLanes;
  constexpr index_t NR = 2 * L;
  for (index_t p = 0; p < kc; ++p) {
    const auto b0 = V::load(pb + p * NR);
    const auto b1 = V::load(pb + p * NR + L);
    const T* a = pa + p * kMicroRows;
#pragma GCC unroll 6
    for (int i = 0; i < kMicroRows; ++i) {
      const auto ai = V::bcast(a + i);
      acc0[i] = Fold::step(ai, b0, acc0[i]);
      acc1[i] = Fold::step(ai, b1, acc1[i]);
    }
  }
}

// acc += a * b, one FMA per lane.
template <class V>
struct FmaFold {
  using vec = typename V::type;
  GEP_AVX2_INLINE static vec step(vec a, vec b, vec acc) {
    return V::fmadd(a, b, acc);
  }
};

}  // namespace

// --- GEMM micro-kernels ----------------------------------------------------

// 6 x 8 doubles (6 x 16 floats): 12 ymm accumulators + 2 B vectors + 1
// broadcast.
template <class T>
GEP_AVX2_FN void ukr_avx2(index_t kc, T alpha, const T* pa, const T* pb, T* c,
                          index_t ldc) {
  using V = Vec<T>;
  constexpr index_t L = V::kLanes;
  typename V::type acc0[kMicroRows], acc1[kMicroRows];
#pragma GCC unroll 6
  for (int i = 0; i < kMicroRows; ++i) {
    acc0[i] = V::zero();
    acc1[i] = V::zero();
  }
  ukr_loop<T, FmaFold<V>>(kc, pa, pb, acc0, acc1);
  const auto va = V::set1(alpha);
#pragma GCC unroll 6
  for (int i = 0; i < kMicroRows; ++i) {
    T* ci = c + i * ldc;
    V::store(ci, V::fmadd(va, acc0[i], V::load(ci)));
    V::store(ci + L, V::fmadd(va, acc1[i], V::load(ci + L)));
  }
}

template <class T>
GEP_AVX2_FN void ukr_avx2_edge(index_t kc, T alpha, const T* pa, const T* pb,
                               T* c, index_t ldc, index_t mr, index_t nr) {
  // The panels are zero-padded, so computing the full micro-tile into a
  // scratch buffer is safe; only the valid corner is written back.
  constexpr index_t NR = 2 * Vec<T>::kLanes;
  alignas(64) T tmp[6 * NR] = {};
  ukr_avx2(kc, alpha, pa, pb, tmp, NR);
  for (index_t i = 0; i < mr; ++i) {
    for (index_t j = 0; j < nr; ++j) c[i * ldc + j] += tmp[i * NR + j];
  }
}

// --- multi-destination micro-kernels (Strassen output fusion) --------------
//
// The accumulation loop is ukr_avx2's; the product tile is then
// streamed from registers to every destination quadrant with its own
// ±1 coefficient, so Strassen's output additions cost no separate sweep
// and all destinations share the identically-rounded product.

template <class T>
GEP_AVX2_FN void ukr_avx2_multi(index_t kc, T alpha, const T* pa, const T* pb,
                                const GemmDest<T>* dst, int nd, index_t ldc) {
  using V = Vec<T>;
  constexpr index_t L = V::kLanes;
  typename V::type acc0[kMicroRows], acc1[kMicroRows];
#pragma GCC unroll 6
  for (int i = 0; i < kMicroRows; ++i) {
    acc0[i] = V::zero();
    acc1[i] = V::zero();
  }
  // Early RFO prefetch of every destination tile: the multi writeback
  // streams up to kMaxGemmOperands C quadrants, so hiding the C-line
  // fetch behind the k-loop matters more than in the classic kernel.
  for (int q = 0; q < nd; ++q) {
    for (int i = 0; i < kMicroRows; ++i) {
      __builtin_prefetch(dst[q].c + i * ldc, 1, 3);
    }
  }
  ukr_loop<T, FmaFold<V>>(kc, pa, pb, acc0, acc1);
  for (int q = 0; q < nd; ++q) {
    const auto vs = V::set1(alpha * dst[q].coeff);
#pragma GCC unroll 6
    for (int i = 0; i < kMicroRows; ++i) {
      T* ci = dst[q].c + i * ldc;
      V::store(ci, V::fmadd(vs, acc0[i], V::load(ci)));
      V::store(ci + L, V::fmadd(vs, acc1[i], V::load(ci + L)));
    }
  }
}

template <class T>
GEP_AVX2_FN void ukr_avx2_multi_edge(index_t kc, T alpha, const T* pa,
                                     const T* pb, const GemmDest<T>* dst,
                                     int nd, index_t ldc, index_t mr,
                                     index_t nr) {
  // Full zero-padded tile into scratch (alpha folded in), then each
  // destination receives its ±1-scaled valid corner.
  constexpr index_t NR = 2 * Vec<T>::kLanes;
  alignas(64) T tmp[6 * NR] = {};
  GemmDest<T> t{tmp, T{1}};
  ukr_avx2_multi(kc, alpha, pa, pb, &t, 1, NR);
  for (int q = 0; q < nd; ++q) {
    const T s = dst[q].coeff;
    T* c = dst[q].c;
    for (index_t i = 0; i < mr; ++i) {
      for (index_t j = 0; j < nr; ++j) c[i * ldc + j] += s * tmp[i * NR + j];
    }
  }
}

// --- semiring micro-kernel (D-kind fw / bottleneck leaves) -----------------
//
// The GEMM micro-tile shape over a (⊕, ⊗) semiring: the C micro-tile is
// loaded into the accumulators once, acc = add(multiply(a, b), acc) is
// folded over ascending k, and the tile is stored once. Per element the
// k order is the scalar template's, and `add` takes the candidate first
// and the accumulator second: _mm256_min_pd(s, acc) returns acc unless
// s < acc, which is std::min(acc, s) — ties, ±0, +inf and NaN resolve
// bit-identically to gep::scalar::kernel_fw / kernel_bottleneck.

namespace {

// x = min(x, u + v): scalar `std::min(x, uik + vk[j])`.
template <class V>
struct MinPlusSR {
  using vec = typename V::type;
  GEP_AVX2_INLINE static vec multiply(vec u, vec v) { return V::plus(u, v); }
  GEP_AVX2_INLINE static vec add(vec s, vec acc) { return V::min(s, acc); }
};

// x = max(x, min(u, v)): scalar `std::max(x, std::min(uik, vk[j]))`,
// whose inner min returns uik unless vk[j] < uik.
template <class V>
struct MaxMinSR {
  using vec = typename V::type;
  GEP_AVX2_INLINE static vec multiply(vec u, vec v) { return V::min(v, u); }
  GEP_AVX2_INLINE static vec add(vec s, vec acc) { return V::max(s, acc); }
};

// acc = add(multiply(a, b), acc) under the semiring SR.
template <class SR>
struct SemiringFold {
  using vec = typename SR::vec;
  GEP_AVX2_INLINE static vec step(vec a, vec b, vec acc) {
    return SR::add(SR::multiply(a, b), acc);
  }
};

template <template <class> class Semi, class T>
GEP_AVX2_FN void ukr_semiring(index_t kc, const T* pa, const T* pb, T* c,
                              index_t ldc) {
  using V = Vec<T>;
  constexpr index_t L = V::kLanes;
  typename V::type acc0[kMicroRows], acc1[kMicroRows];
#pragma GCC unroll 6
  for (int i = 0; i < kMicroRows; ++i) {
    acc0[i] = V::load(c + i * ldc);
    acc1[i] = V::load(c + i * ldc + L);
  }
  ukr_loop<T, SemiringFold<Semi<V>>>(kc, pa, pb, acc0, acc1);
#pragma GCC unroll 6
  for (int i = 0; i < kMicroRows; ++i) {
    V::store(c + i * ldc, acc0[i]);
    V::store(c + i * ldc + L, acc1[i]);
  }
}

// Full micro-tiles fold C in place; a fringe copies the valid mr x nr
// corner of C into a full stack tile, folds there and copies it back
// (the padded lanes compute on the panels' zero padding, discarded).
template <template <class> class SR, class T>
GEP_AVX2_FN void ukr_semiring_any(index_t kc, const T* pa, const T* pb, T* c,
                                  index_t ldc, index_t mr, index_t nr) {
  constexpr index_t NR = 2 * Vec<T>::kLanes;
  if (mr == kMicroRows && nr == NR) {
    ukr_semiring<SR>(kc, pa, pb, c, ldc);
    return;
  }
  alignas(64) T tmp[6 * NR] = {};
  for (index_t i = 0; i < mr; ++i) {
    for (index_t j = 0; j < nr; ++j) tmp[i * NR + j] = c[i * ldc + j];
  }
  ukr_semiring<SR>(kc, pa, pb, tmp, NR);
  for (index_t i = 0; i < mr; ++i) {
    for (index_t j = 0; j < nr; ++j) c[i * ldc + j] = tmp[i * NR + j];
  }
}

}  // namespace

template <class T>
GEP_AVX2_FN void ukr_semiring_avx2(Semiring sr, index_t kc, const T* pa,
                                   const T* pb, T* c, index_t ldc, index_t mr,
                                   index_t nr) {
  if (sr == Semiring::MinPlus) {
    ukr_semiring_any<MinPlusSR>(kc, pa, pb, c, ldc, mr, nr);
  } else {
    ukr_semiring_any<MaxMinSR>(kc, pa, pb, c, ldc, mr, nr);
  }
}

// --- instantiations for the two vector element types -----------------------

#define GEP_AVX2_INSTANTIATE(T)                                              \
  template void ukr_avx2(index_t, T, const T*, const T*, T*, index_t);       \
  template void ukr_avx2_edge(index_t, T, const T*, const T*, T*, index_t,   \
                              index_t, index_t);                             \
  template void ukr_avx2_multi(index_t, T, const T*, const T*,               \
                               const GemmDest<T>*, int, index_t);            \
  template void ukr_avx2_multi_edge(index_t, T, const T*, const T*,          \
                                    const GemmDest<T>*, int, index_t,        \
                                    index_t, index_t);                       \
  template void ukr_semiring_avx2(Semiring, index_t, const T*, const T*, T*, \
                                  index_t, index_t, index_t);
GEP_AVX2_INSTANTIATE(double)
GEP_AVX2_INSTANTIATE(float)
#undef GEP_AVX2_INSTANTIATE

}  // namespace gep::simd

#endif  // GEP_SIMD_X86

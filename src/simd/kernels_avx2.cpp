// Explicit AVX2/FMA base-case kernels.
//
// Compiled with per-function `target("avx2,fma")` attributes so this TU
// builds under any -march (including the portable -DGEP_NATIVE_ARCH=OFF
// CI leg); the gep/kernels.hpp wrappers only call in here after
// simd::active() confirmed the host executes AVX2+FMA. Every kernel is
// written once over Vec<T> and instantiated for double and float at
// the end of the file.
//
// Correctness contracts (verified by tests/test_simd_kernels.cpp):
//  - the semiring micro-kernel and tc are BIT-EXACT vs the scalar
//    templates: the vector lanes perform the identical elementwise
//    add/min/max/or in the same k order, and min/max operand order is
//    chosen so ties resolve like std::min / std::max (second operand =
//    the old x value).
//  - ge / lu / micro-kernels use FMA, so they are tolerance-equivalent
//    to scalar (documented in docs/KERNELS.md) and deterministic
//    run-to-run at fixed dispatch.
//  - No `restrict` across x/u/v/w: A/B/C-kind boxes alias. Per-row
//    sweeps are safe because a row-i sweep never overlaps the k-row /
//    k-column it reads (see the aliasing notes in gep/kernels.hpp).
#include "simd/kernels_avx2.hpp"

#if GEP_SIMD_X86

#include <immintrin.h>

#include "gep/numeric_guard.hpp"

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
    GEP_AVX2_INLINE static V fnmadd(V a, V b, V c) {                          \
      return _mm256_fnmadd_##S(a, b, c);                                      \
    }                                                                         \
  };
GEP_VEC(double, __m256d, pd, sd)
GEP_VEC(float, __m256, ps, ss)
#undef GEP_VEC

GEP_AVX2_INLINE double fma1(double a, double b, double c) {
  return __builtin_fma(a, b, c);
}
GEP_AVX2_INLINE float fma1(float a, float b, float c) {
  return __builtin_fmaf(a, b, c);
}

// x[0..len) += t * v[0..len), or -= when Neg (FMA, one rounding per
// element).
template <bool Neg, class T>
GEP_AVX2_INLINE void fma_row(T* x, const T* v, T t, index_t len) {
  using V = Vec<T>;
  const auto vt = V::set1(t);
  index_t j = 0;
  for (; j + V::kLanes <= len; j += V::kLanes) {
    V::store(x + j, Neg ? V::fnmadd(vt, V::load(v + j), V::load(x + j))
                        : V::fmadd(vt, V::load(v + j), V::load(x + j)));
  }
  for (; j < len; ++j) x[j] = fma1(Neg ? -t : t, v[j], x[j]);
}

}  // namespace

// --- row kernels (aliased A/B/C boxes, small tiles) ------------------------

template <class T>
GEP_AVX2_FN void ge_avx2(T* x, const T* u, const T* v, const T* w, index_t m,
                         index_t sx, index_t su, index_t sv, index_t sw,
                         bool diag_i, bool diag_j) {
  for (index_t k = 0; k < m; ++k) {
    const T wkk = w[k * sw + k];
    const T* vk = v + k * sv;
    const index_t ilo = diag_i ? k + 1 : 0;
    const index_t jlo = diag_j ? k + 1 : 0;
    for (index_t i = ilo; i < m; ++i) {
      const T t = u[i * su + k] / wkk;
      fma_row<true>(x + i * sx + jlo, vk + jlo, t, m - jlo);
    }
  }
}

template <class T>
GEP_AVX2_FN void lu_avx2(T* x, const T* u, const T* v, T* w, index_t m,
                         index_t sx, index_t su, index_t sv, index_t sw,
                         bool diag_i, bool diag_j, const PivotGuard* guard,
                         index_t k_base) {
  for (index_t k = 0; k < m; ++k) {
    T wkk = w[k * sw + k];
    if (guard != nullptr && diag_j) {
      wkk = guard->admit(&w[k * sw + k], k_base + k,
                         /*boostable=*/diag_i && diag_j);
    }
    const T* vk = v + k * sv;
    const index_t ilo = diag_i ? k + 1 : 0;
    const index_t jlo = diag_j ? k + 1 : 0;
    for (index_t i = ilo; i < m; ++i) {
      T* xi = x + i * sx;
      T uik;
      if (diag_j) {
        xi[k] /= wkk;  // <i,k,k>: store multiplier (x aliases u here)
        uik = xi[k];
      } else {
        uik = u[i * su + k];
      }
      fma_row<true>(xi + jlo, vk + jlo, uik, m - jlo);
    }
  }
}

template <class T>
GEP_AVX2_FN void mm_avx2(T* x, const T* u, const T* v, index_t m, index_t sx,
                         index_t su, index_t sv) {
  for (index_t k = 0; k < m; ++k) {
    const T* vk = v + k * sv;
    for (index_t i = 0; i < m; ++i) {
      fma_row<false>(x + i * sx, vk, u[i * su + k], m);
    }
  }
}

// --- GEMM micro-kernels ----------------------------------------------------

// 6 x 8 doubles (6 x 16 floats): 12 ymm accumulators + 2 B vectors + 1
// broadcast.
template <class T>
GEP_AVX2_FN void ukr_avx2(index_t kc, T alpha, const T* pa, const T* pb, T* c,
                          index_t ldc) {
  using V = Vec<T>;
  constexpr int MR = 6;
  constexpr index_t L = V::kLanes;
  constexpr index_t NR = 2 * L;
  typename V::type acc[MR][2];
  for (int i = 0; i < MR; ++i) {
    acc[i][0] = V::zero();
    acc[i][1] = V::zero();
  }
  for (index_t p = 0; p < kc; ++p) {
    const auto b0 = V::load(pb + p * NR);
    const auto b1 = V::load(pb + p * NR + L);
    const T* a = pa + p * MR;
    for (int i = 0; i < MR; ++i) {
      const auto ai = V::bcast(a + i);
      acc[i][0] = V::fmadd(ai, b0, acc[i][0]);
      acc[i][1] = V::fmadd(ai, b1, acc[i][1]);
    }
  }
  const auto va = V::set1(alpha);
  for (int i = 0; i < MR; ++i) {
    T* ci = c + i * ldc;
    V::store(ci, V::fmadd(va, acc[i][0], V::load(ci)));
    V::store(ci + L, V::fmadd(va, acc[i][1], V::load(ci + L)));
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
// The accumulation loop is identical to ukr_avx2; the product tile is
// then streamed from registers to every destination quadrant with its
// own ±1 coefficient, so Strassen's output additions cost no separate
// sweep and all destinations share the identically-rounded product.

template <class T>
GEP_AVX2_FN void ukr_avx2_multi(index_t kc, T alpha, const T* pa, const T* pb,
                                const GemmDest<T>* dst, int nd, index_t ldc) {
  using V = Vec<T>;
  constexpr int MR = 6;
  constexpr index_t L = V::kLanes;
  constexpr index_t NR = 2 * L;
  typename V::type acc[MR][2];
  for (int i = 0; i < MR; ++i) {
    acc[i][0] = V::zero();
    acc[i][1] = V::zero();
  }
  // Early RFO prefetch of every destination tile: the multi writeback
  // streams up to kMaxGemmOperands C quadrants, so hiding the C-line
  // fetch behind the k-loop matters more than in the classic kernel.
  for (int q = 0; q < nd; ++q) {
    for (int i = 0; i < MR; ++i) {
      __builtin_prefetch(dst[q].c + i * ldc, 1, 3);
    }
  }
  for (index_t p = 0; p < kc; ++p) {
    const auto b0 = V::load(pb + p * NR);
    const auto b1 = V::load(pb + p * NR + L);
    const T* a = pa + p * MR;
    for (int i = 0; i < MR; ++i) {
      const auto ai = V::bcast(a + i);
      acc[i][0] = V::fmadd(ai, b0, acc[i][0]);
      acc[i][1] = V::fmadd(ai, b1, acc[i][1]);
    }
  }
  for (int q = 0; q < nd; ++q) {
    const auto vs = V::set1(alpha * dst[q].coeff);
    for (int i = 0; i < MR; ++i) {
      T* ci = dst[q].c + i * ldc;
      V::store(ci, V::fmadd(vs, acc[i][0], V::load(ci)));
      V::store(ci + L, V::fmadd(vs, acc[i][1], V::load(ci + L)));
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

template <template <class> class Semi, class T>
GEP_AVX2_FN void ukr_semiring(index_t kc, const T* pa, const T* pb, T* c,
                              index_t ldc) {
  using V = Vec<T>;
  using SR = Semi<V>;
  constexpr int MR = 6;
  constexpr index_t L = V::kLanes;
  constexpr index_t NR = 2 * L;
  // Two 1-D accumulator arrays over fully unrolled row loops: GCC then
  // keeps all twelve in registers, where an acc[MR][2] array is spilled
  // to the stack on every k step.
  typename V::type acc0[MR], acc1[MR];
#pragma GCC unroll 6
  for (int i = 0; i < MR; ++i) {
    acc0[i] = V::load(c + i * ldc);
    acc1[i] = V::load(c + i * ldc + L);
  }
  for (index_t p = 0; p < kc; ++p) {
    const auto b0 = V::load(pb + p * NR);
    const auto b1 = V::load(pb + p * NR + L);
    const T* a = pa + p * MR;
#pragma GCC unroll 6
    for (int i = 0; i < MR; ++i) {
      const auto ai = V::bcast(a + i);
      acc0[i] = SR::add(SR::multiply(ai, b0), acc0[i]);
      acc1[i] = SR::add(SR::multiply(ai, b1), acc1[i]);
    }
  }
#pragma GCC unroll 6
  for (int i = 0; i < MR; ++i) {
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

// --- TC byte kernel --------------------------------------------------------

GEP_AVX2_FN void tc_avx2(std::uint8_t* x, const std::uint8_t* u,
                         const std::uint8_t* v, index_t m, index_t sx,
                         index_t su, index_t sv) {
  for (index_t k = 0; k < m; ++k) {
    const std::uint8_t* vk = v + k * sv;
    for (index_t i = 0; i < m; ++i) {
      if (!u[i * su + k]) continue;
      std::uint8_t* xi = x + i * sx;
      index_t j = 0;
      for (; j + 32 <= m; j += 32) {
        const __m256i a = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(xi + j));
        const __m256i b = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(vk + j));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(xi + j),
                            _mm256_or_si256(a, b));
      }
      for (; j < m; ++j) xi[j] = static_cast<std::uint8_t>(xi[j] | vk[j]);
    }
  }
}

// --- instantiations for the two vector element types -----------------------

#define GEP_AVX2_INSTANTIATE(T)                                              \
  template void ge_avx2(T*, const T*, const T*, const T*, index_t, index_t,  \
                        index_t, index_t, index_t, bool, bool);              \
  template void lu_avx2(T*, const T*, const T*, T*, index_t, index_t,        \
                        index_t, index_t, index_t, bool, bool,               \
                        const PivotGuard*, index_t);                         \
  template void mm_avx2(T*, const T*, const T*, index_t, index_t, index_t,   \
                        index_t);                                            \
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

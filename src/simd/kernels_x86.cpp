// The packed x86 micro-kernels: the FMA GEMM micro-kernel and the
// semiring micro-kernel, written once over Vec<T> and compiled twice.
//
// This file includes itself: the first pass (GEP_X86_WIDTH undefined)
// includes the kernel section below once with 256-bit vectors and
// GEP_X86_TARGET "avx2,fma" (namespace avx2) and once with 512-bit
// vectors and "avx512f,avx2,fma" (namespace avx512), then builds the
// two MicroKernels tables. Every kernel-section function carries its
// instance's `target` attribute, which keeps the TU buildable under any
// -march (including the portable -DGEP_NATIVE_ARCH=OFF CI leg) without
// leaking either ISA into the rest of the library; callers reach a
// table only after simd::active() confirmed the host runs it.
//
// Correctness contracts (verified by tests/test_simd_kernels.cpp and
// tests/test_strassen.cpp):
//  - the semiring micro-kernel is BIT-EXACT vs the scalar templates:
//    the vector lanes perform the identical elementwise add/min/max in
//    the same k order, and min/max operand order is chosen so ties
//    resolve like std::min / std::max (second operand = the old x
//    value).
//  - the GEMM micro-kernel uses FMA, so it is tolerance-equivalent to
//    scalar (documented in docs/KERNELS.md). Both widths run the same
//    per-element FMA chain over ascending k on the same packed panels,
//    so Avx2 and Avx512 results are bit-identical, and deterministic
//    run-to-run.

#ifndef GEP_X86_WIDTH  // ---- first pass: the two instances and the tables

#include "simd/kernels_x86.hpp"

#if GEP_SIMD_X86

#include <immintrin.h>

#define GEP_X86_WIDTH 256
#define GEP_X86_NS avx2
#define GEP_X86_TARGET "avx2,fma"
#include "simd/kernels_x86.cpp"
#undef GEP_X86_TARGET
#undef GEP_X86_NS
#undef GEP_X86_WIDTH

// GCC 12's 512-bit min/max intrinsics pass an _mm512_undefined_pd()
// source that -Wmaybe-uninitialized reports after inlining.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#define GEP_X86_WIDTH 512
#define GEP_X86_NS avx512
#define GEP_X86_TARGET "avx512f,avx2,fma"
#include "simd/kernels_x86.cpp"
#undef GEP_X86_TARGET
#undef GEP_X86_NS
#undef GEP_X86_WIDTH
#pragma GCC diagnostic pop

namespace gep::simd {

template <class T>
const MicroKernels<T>& x86_micro_kernels(Level l) {
  static constexpr MicroKernels<T> k256{&avx2::ukr<T>, &avx2::ukr_semiring<T>};
  static constexpr MicroKernels<T> k512{&avx512::ukr<T>,
                                        &avx512::ukr_semiring<T>};
  return l == Level::Avx512 ? k512 : k256;
}

template const MicroKernels<double>& x86_micro_kernels(Level);
template const MicroKernels<float>& x86_micro_kernels(Level);

}  // namespace gep::simd

#endif  // GEP_SIMD_X86

#else  // ---- kernel section: one instance per GEP_X86_WIDTH

// GEP_X86_FN marks the instance's entry points. Helpers that take or
// return vectors are always inlined (GEP_X86_INLINE, and GEP_X86_LAMBDA
// on the sub-tile lambdas): an out-of-line copy would pass vector
// values under an ABI the portable build lacks.
#define GEP_X86_FN __attribute__((target(GEP_X86_TARGET)))
#define GEP_X86_LAMBDA __attribute__((target(GEP_X86_TARGET), always_inline))
#define GEP_X86_INLINE GEP_X86_LAMBDA inline

namespace gep::simd::GEP_X86_NS {

// One GEP_X86_WIDTH-bit vector of T and the lane operations the kernels
// use (P = intrinsic prefix, S = element suffix).
template <class T>
struct Vec;

#define GEP_VEC(T, V, P, S)                                                 \
  template <>                                                               \
  struct Vec<T> {                                                           \
    using type = V;                                                         \
    static constexpr index_t kLanes = GEP_X86_WIDTH / 8 / sizeof(T);        \
    GEP_X86_INLINE static V load(const T* p) { return P##_loadu_##S(p); }  \
    GEP_X86_INLINE static void store(T* p, V a) { P##_storeu_##S(p, a); }  \
    GEP_X86_INLINE static V set1(T a) { return P##_set1_##S(a); }          \
    GEP_X86_INLINE static V zero() { return P##_setzero_##S(); }           \
    GEP_X86_INLINE static V plus(V a, V b) { return P##_add_##S(a, b); }   \
    GEP_X86_INLINE static V min(V a, V b) { return P##_min_##S(a, b); }    \
    GEP_X86_INLINE static V max(V a, V b) { return P##_max_##S(a, b); }    \
    GEP_X86_INLINE static V fmadd(V a, V b, V c) {                          \
      return P##_fmadd_##S(a, b, c);                                        \
    }                                                                       \
  };
#if GEP_X86_WIDTH == 512
GEP_VEC(double, __m512d, _mm512, pd)
GEP_VEC(float, __m512, _mm512, ps)
#else
GEP_VEC(double, __m256d, _mm256, pd)
GEP_VEC(float, __m256, _mm256, ps)
#endif
#undef GEP_VEC

// The MR x NR micro-tile runs as register sub-tiles of R rows x C
// vectors, each streaming its part of the packed panels over the full k
// extent with R * C accumulators. At 512 bits one 8 x 2 sub-tile is the
// whole tile (16 of 32 zmm). At 256 bits (16 ymm) the tile runs as two
// 6 x 2 sub-tiles and one 2 x 4 sub-tile for the last two rows: the
// 12-accumulator sub-tiles leave 50% slack over the 8 independent
// chains two 4-cycle FMA ports need, which four 4 x 2 quarters would
// not (measured: dgemm_blocked n = 1024 at forced Avx2 ran 35.4 GF/s
// against 31.4 with quarters on a 4-CPU AVX-512 Xeon, docs/KERNELS.md).
//
// for_each_subtile calls body.template operator()<R, C>(r0, c0) for the
// sub-tiles covering the tile (r0 = first row, c0 = first column).
static_assert(kMicroRows == 8, "the sub-tile plans below cover 8 rows");
template <class T, class Body>
GEP_X86_INLINE void for_each_subtile(Body&& body) {
  constexpr index_t L = Vec<T>::kLanes;
#if GEP_X86_WIDTH == 512
  static_assert(micro_cols<T>() == 2 * L);
  body.template operator()<8, 2>(0, 0);
#else
  static_assert(micro_cols<T>() == 4 * L);
  body.template operator()<6, 2>(0, 0);
  body.template operator()<6, 2>(0, 2 * L);
  body.template operator()<2, 4>(6, 0);
#endif
}

// The k-loop of every micro-kernel over one R x C sub-tile: pa and pb
// point at the sub-tile's first row / column inside the packed panels,
// and acc[i * C + c] = Fold::step(a_i, b_c, acc[i * C + c]) is folded
// over ascending k. A 1-D accumulator array over fully unrolled loops
// lets GCC keep every accumulator in a register — an acc[R][C] array is
// spilled to the stack on every k step — so callers unroll their init
// and write-back loops the same way (without it the spills stay).
template <class T, int R, int C, class Fold>
GEP_X86_INLINE void ukr_loop(index_t kc, const T* pa, const T* pb,
                             typename Vec<T>::type (&acc)[R * C]) {
  using V = Vec<T>;
  constexpr index_t L = V::kLanes;
  constexpr index_t NR = micro_cols<T>();
  for (index_t p = 0; p < kc; ++p) {
    typename V::type b[C];
#pragma GCC unroll 4
    for (int c = 0; c < C; ++c) b[c] = V::load(pb + p * NR + c * L);
    const T* a = pa + p * kMicroRows;
#pragma GCC unroll 8
    for (int i = 0; i < R; ++i) {
      const auto ai = V::set1(a[i]);
#pragma GCC unroll 4
      for (int c = 0; c < C; ++c) {
        acc[i * C + c] = Fold::step(ai, b[c], acc[i * C + c]);
      }
    }
  }
}

// --- GEMM micro-kernel -------------------------------------------------------

// acc += a * b, one FMA per lane.
template <class V>
struct FmaFold {
  using vec = typename V::type;
  GEP_X86_INLINE static vec step(vec a, vec b, vec acc) {
    return V::fmadd(a, b, acc);
  }
};

// Full tile: every sub-tile's product is streamed from registers to
// each destination as c_q = fma(alpha * coeff_q, acc, c_q), so
// Strassen's output additions cost no separate sweep and all
// destinations share the identically-rounded product.
template <class T>
GEP_X86_INLINE void ukr_full(index_t kc, T alpha, const T* pa, const T* pb,
                             const GemmDest<T>* dst, int nd, index_t ldc) {
  using V = Vec<T>;
  constexpr index_t L = V::kLanes;
  constexpr index_t NR = micro_cols<T>();
  // Early RFO prefetch of every destination tile (two cache lines per
  // row), hidden behind the k-loop.
  for (int q = 0; q < nd; ++q) {
    for (int i = 0; i < kMicroRows; ++i) {
      __builtin_prefetch(dst[q].c + i * ldc, 1, 3);
      __builtin_prefetch(dst[q].c + i * ldc + NR / 2, 1, 3);
    }
  }
  for_each_subtile<T>([&]<int R, int C>(index_t r0, index_t c0)
                          GEP_X86_LAMBDA {
    typename V::type acc[R * C];
#pragma GCC unroll 16
    for (int e = 0; e < R * C; ++e) acc[e] = V::zero();
    ukr_loop<T, R, C, FmaFold<V>>(kc, pa + r0, pb + c0, acc);
    for (int q = 0; q < nd; ++q) {
      const auto vs = V::set1(alpha * dst[q].coeff);
#pragma GCC unroll 8
      for (int i = 0; i < R; ++i) {
        T* ci = dst[q].c + (r0 + i) * ldc + c0;
#pragma GCC unroll 4
        for (int c = 0; c < C; ++c) {
          V::store(ci + c * L,
                   V::fmadd(vs, acc[i * C + c], V::load(ci + c * L)));
        }
      }
    }
  });
}

// MicroKernels::gemm. A fringe computes the full zero-padded tile into
// scratch (alpha folded in), then each destination receives its
// ±1-scaled valid mr x nr corner.
template <class T>
GEP_X86_FN void ukr(index_t kc, T alpha, const T* pa, const T* pb,
                    const GemmDest<T>* dst, int nd, index_t ldc, index_t mr,
                    index_t nr) {
  constexpr index_t NR = micro_cols<T>();
  if (mr == kMicroRows && nr == NR) {
    ukr_full(kc, alpha, pa, pb, dst, nd, ldc);
    return;
  }
  alignas(64) T tmp[kMicroRows * NR] = {};
  const GemmDest<T> t{tmp, T{1}};
  ukr_full(kc, alpha, pa, pb, &t, 1, NR);
  for (int q = 0; q < nd; ++q) {
    const T s = dst[q].coeff;
    T* c = dst[q].c;
    for (index_t i = 0; i < mr; ++i) {
      for (index_t j = 0; j < nr; ++j) c[i * ldc + j] += s * tmp[i * NR + j];
    }
  }
}

// --- semiring micro-kernel (D-kind fw / bottleneck leaves) -------------------
//
// The GEMM micro-tile shape over a (⊕, ⊗) semiring: each sub-tile of C
// is loaded into the accumulators once, acc = add(multiply(a, b), acc)
// is folded over ascending k, and the sub-tile is stored once. Per
// element the k order is the scalar template's, and `add` takes the
// candidate first and the accumulator second: min(s, acc) returns acc
// unless s < acc, which is std::min(acc, s) — ties, ±0, +inf and NaN
// resolve bit-identically to gep::scalar::kernel_fw / kernel_bottleneck.

// x = min(x, u + v): scalar `std::min(x, uik + vk[j])`.
template <class V>
struct MinPlusSR {
  using vec = typename V::type;
  GEP_X86_INLINE static vec multiply(vec u, vec v) { return V::plus(u, v); }
  GEP_X86_INLINE static vec add(vec s, vec acc) { return V::min(s, acc); }
};

// x = max(x, min(u, v)): scalar `std::max(x, std::min(uik, vk[j]))`,
// whose inner min returns uik unless vk[j] < uik.
template <class V>
struct MaxMinSR {
  using vec = typename V::type;
  GEP_X86_INLINE static vec multiply(vec u, vec v) { return V::min(v, u); }
  GEP_X86_INLINE static vec add(vec s, vec acc) { return V::max(s, acc); }
};

// acc = add(multiply(a, b), acc) under the semiring SR.
template <class SR>
struct SemiringFold {
  using vec = typename SR::vec;
  GEP_X86_INLINE static vec step(vec a, vec b, vec acc) {
    return SR::add(SR::multiply(a, b), acc);
  }
};

template <template <class> class SR, class T>
GEP_X86_INLINE void semiring_full(index_t kc, const T* pa, const T* pb, T* c,
                                  index_t ldc) {
  using V = Vec<T>;
  constexpr index_t L = V::kLanes;
  for_each_subtile<T>([&]<int R, int C>(index_t r0, index_t c0)
                          GEP_X86_LAMBDA {
    T* cs = c + r0 * ldc + c0;
    typename V::type acc[R * C];
#pragma GCC unroll 8
    for (int i = 0; i < R; ++i) {
#pragma GCC unroll 4
      for (int j = 0; j < C; ++j) {
        acc[i * C + j] = V::load(cs + i * ldc + j * L);
      }
    }
    ukr_loop<T, R, C, SemiringFold<SR<V>>>(kc, pa + r0, pb + c0, acc);
#pragma GCC unroll 8
    for (int i = 0; i < R; ++i) {
#pragma GCC unroll 4
      for (int j = 0; j < C; ++j) {
        V::store(cs + i * ldc + j * L, acc[i * C + j]);
      }
    }
  });
}

// Full micro-tiles fold C in place; a fringe copies the valid mr x nr
// corner of C into a full stack tile, folds there and copies it back
// (the padded lanes compute on the panels' zero padding, discarded).
template <template <class> class SR, class T>
GEP_X86_INLINE void semiring_any(index_t kc, const T* pa, const T* pb, T* c,
                                 index_t ldc, index_t mr, index_t nr) {
  constexpr index_t NR = micro_cols<T>();
  if (mr == kMicroRows && nr == NR) {
    semiring_full<SR>(kc, pa, pb, c, ldc);
    return;
  }
  alignas(64) T tmp[kMicroRows * NR] = {};
  for (index_t i = 0; i < mr; ++i) {
    for (index_t j = 0; j < nr; ++j) tmp[i * NR + j] = c[i * ldc + j];
  }
  semiring_full<SR>(kc, pa, pb, tmp, NR);
  for (index_t i = 0; i < mr; ++i) {
    for (index_t j = 0; j < nr; ++j) c[i * ldc + j] = tmp[i * NR + j];
  }
}

// MicroKernels::semiring.
template <class T>
GEP_X86_FN void ukr_semiring(Semiring sr, index_t kc, const T* pa,
                             const T* pb, T* c, index_t ldc, index_t mr,
                             index_t nr) {
  if (sr == Semiring::MinPlus) {
    semiring_any<MinPlusSR>(kc, pa, pb, c, ldc, mr, nr);
  } else {
    semiring_any<MaxMinSR>(kc, pa, pb, c, ldc, mr, nr);
  }
}

}  // namespace gep::simd::GEP_X86_NS

#undef GEP_X86_INLINE
#undef GEP_X86_LAMBDA
#undef GEP_X86_FN

#endif  // GEP_X86_WIDTH

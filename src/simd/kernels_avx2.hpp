// The packed AVX2/FMA micro-kernels (declarations) — the only
// hand-written SIMD in the engine. Every other leaf runs its scalar
// template in gep/kernels.hpp, which the native build vectorizes.
//
// Definitions live in kernels_avx2.cpp, compiled with
// `__attribute__((target("avx2,fma")))` so the library builds — and the
// scalar path stays runnable — without any -march flags; callers must
// check simd::active() == Level::Avx2 before invoking. The templates are
// instantiated for T = double and float only, and follow the
// packed-panel contract of microkernel.hpp: the semiring micro-kernel
// is bit-identical to the scalar templates, the FMA micro-kernels are
// tolerance-equivalent and deterministic run-to-run.
#pragma once

#include "matrix/matrix.hpp"
#include "simd/dispatch.hpp"
#include "simd/microkernel.hpp"

#if GEP_SIMD_X86

// On the declarations too: a function template takes its attributes
// from its first declaration, so without it here the definitions in
// kernels_avx2.cpp would compile for the portable build's base ISA.
#define GEP_AVX2_FN __attribute__((target("avx2,fma")))

namespace gep::simd {

// c(6 x NR, row-major ldc) += alpha * packed_a(kc x 6)^T * packed_b(kc x NR),
// NR = 8 for double, 16 for float.
template <class T>
GEP_AVX2_FN void ukr_avx2(index_t kc, T alpha, const T* pa, const T* pb, T* c,
                          index_t ldc);

// Fringe variant: computes the full zero-padded micro-tile into a local
// buffer, writes back only the valid mr x nr corner.
template <class T>
GEP_AVX2_FN void ukr_avx2_edge(index_t kc, T alpha, const T* pa, const T* pb,
                               T* c, index_t ldc, index_t mr, index_t nr);

// Multi-destination variants for the Strassen layer: one micro-tile
// product streamed to up to kMaxGemmOperands C quadrants as
// c_q += alpha * coeff_q * acc (see ukr_scalar_multi).
template <class T>
GEP_AVX2_FN void ukr_avx2_multi(index_t kc, T alpha, const T* pa, const T* pb,
                                const GemmDest<T>* dst, int nd, index_t ldc);
template <class T>
GEP_AVX2_FN void ukr_avx2_multi_edge(index_t kc, T alpha, const T* pa,
                                     const T* pb, const GemmDest<T>* dst,
                                     int nd, index_t ldc, index_t mr,
                                     index_t nr);

// Semiring micro-kernel for D-kind fw / bottleneck leaves: folds the
// packed panels into the mr x nr corner of c under `sr` (the full 6 x NR
// tile when mr, nr are full), bit-identical per element to the scalar
// templates. c must not alias the panels.
template <class T>
GEP_AVX2_FN void ukr_semiring_avx2(Semiring sr, index_t kc, const T* pa,
                                   const T* pb, T* c, index_t ldc, index_t mr,
                                   index_t nr);

}  // namespace gep::simd

#endif  // GEP_SIMD_X86

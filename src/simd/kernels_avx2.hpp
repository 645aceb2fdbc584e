// Explicit AVX2/FMA base-case kernels (declarations).
//
// Definitions live in kernels_avx2.cpp, compiled with
// `__attribute__((target("avx2,fma")))` so the library builds — and the
// scalar path stays runnable — without any -march flags; callers must
// check simd::active() == Level::Avx2 (gep/kernels.hpp wrappers do)
// before invoking. The templates are instantiated for T = double and
// float only. Argument conventions (x/u/v/w, strides, diag flags) match
// the scalar templates in gep/kernels.hpp exactly; the semiring kernels
// (ukr_semiring, tc) are bit-identical to scalar, the FMA kernels (ge,
// lu, mm, micro-kernels) are tolerance-equivalent and deterministic
// run-to-run. None of these use `restrict` across x/u/v/w — A/B/C-kind
// boxes alias.
#pragma once

#include <cstdint>

#include "matrix/matrix.hpp"
#include "simd/dispatch.hpp"
#include "simd/microkernel.hpp"

#if GEP_SIMD_X86

// On the declarations too: a function template takes its attributes
// from its first declaration, so without it here the definitions in
// kernels_avx2.cpp would compile for the portable build's base ISA.
#define GEP_AVX2_FN __attribute__((target("avx2,fma")))

namespace gep {

class PivotGuard;  // gep/numeric_guard.hpp

namespace simd {

// --- micro-kernels (packed-panel contract of microkernel.hpp) --------------

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

// --- Leaf kernels ----------------------------------------------------------

// or-and over bytes: x[i][j] |= u[i][k] & v[k][j]   (bit-exact)
void tc_avx2(std::uint8_t* x, const std::uint8_t* u, const std::uint8_t* v,
             index_t m, index_t sx, index_t su, index_t sv);

// Gaussian elimination box (A/B/C kinds; D-kind routes through
// gemm_leaf): x[i][j] -= (u[i][k] / w[k][k]) * v[k][j].
template <class T>
GEP_AVX2_FN void ge_avx2(T* x, const T* u, const T* v, const T* w, index_t m,
                         index_t sx, index_t su, index_t sv, index_t sw,
                         bool diag_i, bool diag_j);

// LU box with in-place multipliers. guard == nullptr is the unguarded
// kernel; otherwise every diag_j pivot runs through guard->admit
// (k_base = box's global elimination offset) exactly as
// scalar::kernel_lu_guarded does — one code path keeps guarded and
// unguarded runs bit-identical on healthy input. w is written only by
// an admitting guard with policy Boost.
template <class T>
GEP_AVX2_FN void lu_avx2(T* x, const T* u, const T* v, T* w, index_t m,
                         index_t sx, index_t su, index_t sv, index_t sw,
                         bool diag_i, bool diag_j, const PivotGuard* guard,
                         index_t k_base);

// Small-tile matmul accumulate x += u * v (axpy form, for tiles below
// the packing threshold; larger D-kind tiles use gemm_leaf).
template <class T>
GEP_AVX2_FN void mm_avx2(T* x, const T* u, const T* v, index_t m, index_t sx,
                         index_t su, index_t sv);

}  // namespace simd
}  // namespace gep

#endif  // GEP_SIMD_X86

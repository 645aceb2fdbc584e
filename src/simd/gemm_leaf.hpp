// Packed-panel GEMM routing for D-kind leaves.
//
// A D-kind box updates a tile disjoint from its u/v/w inputs, so the
// k-i-j leaf loop is a pure rank-m update and can run through the
// BLIS-style packed micro-kernel (simd/microkernel.hpp) instead of the
// strided axpy form. The B panel (v) is packed once per k-chunk and
// reused across every A row panel — the "B-panel reuse across the
// k-sweep" that makes the leaf compute-bound.
//
// gep/kernels.hpp routes GEMM leaves here only for tiles with
// m >= kGemmMinM; below that the packing overhead loses to the
// vectorized scalar template. gemm_tile[_scaled] run one Strassen
// level (simd/strassen.hpp) from kStrassenMinM up. Both thresholds
// depend only on m, so a run's numeric path is deterministic. Semiring
// leaves route at every m: keeping the X tile in registers wins even at
// m = 32.
#pragma once

#include "matrix/matrix.hpp"
#include "simd/microkernel.hpp"

namespace gep::simd {

// Minimum tile edge for packed-GEMM routing (see docs/KERNELS.md).
inline constexpr index_t kGemmMinM = 16;

// x(m x m, row stride sx) += alpha * u(m x m, su) * v(m x m, sv).
// x must not alias u or v (D-kind contract). alpha = +1 serves
// kernel_mm leaves, alpha = -1 the D-kind LU schur update.
void gemm_tile(double* x, const double* u, const double* v, index_t m,
               index_t sx, index_t su, index_t sv, double alpha);
void gemm_tile(float* x, const float* u, const float* v, index_t m,
               index_t sx, index_t su, index_t sv, float alpha);

// D-kind GE leaf: x(m x m) -= (u[i][k] / w[k][k]) * v(m x m). The
// division folds into A-panel packing (pack_a_scaled) with exactly the
// scalar kernel's operands and rounding. w is strided by sw; x must not
// alias u, v, or w.
void gemm_tile_scaled(double* x, const double* u, const double* v,
                      const double* w, index_t m, index_t sx, index_t su,
                      index_t sv, index_t sw);
void gemm_tile_scaled(float* x, const float* u, const float* v,
                      const float* w, index_t m, index_t sx, index_t su,
                      index_t sv, index_t sw);

// D-kind semiring leaf: x(m x m) = x ⊕ (u ⊗ v) under `sr`, through the
// same packing and macro loop as gemm_tile with the AVX2 semiring
// micro-kernel (defined on x86 only; call it at Level::Avx2). Per
// element the k order is the scalar template's, so results are
// bit-identical to it. x must not alias u or v (they may alias each
// other).
void semiring_tile(Semiring sr, double* x, const double* u, const double* v,
                   index_t m, index_t sx, index_t su, index_t sv);
void semiring_tile(Semiring sr, float* x, const float* u, const float* v,
                   index_t m, index_t sx, index_t su, index_t sv);

}  // namespace gep::simd

// The packed macro loop: every packed GEMM and semiring product runs
// through gemm_packed / semiring_tile below, and every one of them gets
// its micro-kernels from one selection point (micro_kernels() in
// gemm_leaf.cpp: the table of simd::active()'s level).
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

// Cache blocking of the packed macro loop: mc x kc A blocks, kc x nc B
// panels. The defaults are the classic BLAS baseline's
// (blas::GemmBlocking).
struct PackedBlocking {
  index_t mc = 128;   // rows of packed A block   (fits L2 with kc)
  index_t kc = 256;   // depth of packed panels   (fits L1-ish per stripe)
  index_t nc = 1024;  // columns of packed B panel
};

// c_q(m x n) += alpha * coeff_q * (Σ_s a_s)(Σ_t b_t) over row-major
// blocks sharing lda / ldb / ldc: the packing passes form the operand
// sums (pack_a / pack_b), the micro-kernel writeback scatters the
// product to the nd destinations. The destinations must not alias the
// sources. T = double or float.
template <class T>
void gemm_packed(index_t m, index_t n, index_t k, T alpha,
                 const PackSrc<T>* as, int na, index_t lda,
                 const PackSrc<T>* bs, int nb, index_t ldb,
                 const GemmDest<T>* cs, int nd, index_t ldc,
                 const PackedBlocking& bl);

// x(m x m, row stride sx) += alpha * u(m x m, su) * v(m x m, sv).
// x must not alias u or v (D-kind contract). alpha = +1 serves
// kernel_mm leaves, alpha = -1 the D-kind LU schur update.
void gemm_tile(double* x, const double* u, const double* v, index_t m,
               index_t sx, index_t su, index_t sv, double alpha);
void gemm_tile(float* x, const float* u, const float* v, index_t m,
               index_t sx, index_t su, index_t sv, float alpha);

// D-kind GE leaf: x(m x m) -= (u[i][k] / w[k][k]) * v(m x m). The
// division is hoisted — one reciprocal per k, folded into A-panel
// packing (PackSrc::inv) — which changes each multiplier by at most one
// ulp relative to the scalar division; the GE kernels are
// tolerance-equivalent (not bit-exact) across dispatch levels precisely
// to license this (see docs/KERNELS.md). w is strided by sw; x must not
// alias u, v, or w.
void gemm_tile_scaled(double* x, const double* u, const double* v,
                      const double* w, index_t m, index_t sx, index_t su,
                      index_t sv, index_t sw);
void gemm_tile_scaled(float* x, const float* u, const float* v,
                      const float* w, index_t m, index_t sx, index_t su,
                      index_t sv, index_t sw);

// D-kind semiring leaf: x(m x m) = x ⊕ (u ⊗ v) under `sr`, through the
// same packing and macro loop as gemm_tile with the semiring
// micro-kernel (call it at a packed level; Level::Scalar has none). Per
// element the k order is the scalar template's, so results are
// bit-identical to it. x must not alias u or v (they may alias each
// other).
void semiring_tile(Semiring sr, double* x, const double* u, const double* v,
                   index_t m, index_t sx, index_t su, index_t sv);
void semiring_tile(Semiring sr, float* x, const float* u, const float* v,
                   index_t m, index_t sx, index_t su, index_t sv);

// The per-column reciprocals 1 / w[p][p] for p < k in a thread-local
// buffer (the GE multiplier fold of gemm_tile_scaled and
// strassen_gemm_scaled): one division per k.
template <class T>
const T* reciprocals(const T* w, index_t sw, index_t k);

}  // namespace gep::simd

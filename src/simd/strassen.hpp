// Strassen-accelerated packed GEMM for large D-kind leaves and the
// cache-aware BLAS baseline.
//
// One level of Strassen's 7-multiply recursion runs directly on the
// BLIS-style packed engine (simd/microkernel.hpp): every one of the 7
// sub-multiplies is a packed GEMM whose operand sums (A11+A22, B21-B11,
// ...) are formed on the fly inside pack_a/pack_b (pack_a_multi /
// pack_b_multi) and whose product is scattered to its C quadrants with
// ±1 coefficients inside the micro-kernel writeback (ukr_*_multi).
// There are no standalone add/copy sweeps and no quadrant temporaries:
// workspace is exactly the thread-local packed panels the classic path
// already owns. A second level never beat one on the measured host (its
// 4-operand packs double the quadrant read traffic), so there is none.
//
// Routing: gemm_tile / gemm_tile_scaled (typed-engine D-kind leaves)
// and blas::dgemm run strassen_gemm when strassen_engages(m, n, k),
// i.e. from min(m, n, k) >= kStrassenMinM up, and their classic packed
// path otherwise. Odd extents are handled by dynamic peeling (even core
// via Strassen, one-row/column fix-up GEMMs via the packed path).
//
// Numerics: Strassen trades the classic O(k·eps) forward error for a
// larger-constant bound (×~3 in practice); results remain deterministic
// run-to-run at a fixed dispatch level. See docs/KERNELS.md ("Fast
// matrix multiplication") for the measured crossover and error data.
#pragma once

#include "matrix/matrix.hpp"

namespace gep::simd {

// The crossover, measured with bench_kernels --tune-strassen: the
// smallest swept edge from which one Strassen level keeps beating the
// classic packed path (dgemm_blocked) — 768, 896 and 896 in three
// tuner runs on the 8 x 16 AVX-512 micro-kernel (docs/KERNELS.md).
inline constexpr index_t kStrassenMinM = 896;

// True when min(m, n, k) >= kStrassenMinM: the routing rule of
// gemm_tile[_scaled] and blas::dgemm. A false answer counts
// kernels.strassen.fallbacks.
bool strassen_engages(index_t m, index_t n, index_t k);

// c(m x n, row-major ldc) += alpha * a(m x k, lda) * b(k x n, ldb)
// through one Strassen level, at any extents. Counts
// kernels.strassen.calls. c must not alias a or b.
void strassen_gemm(index_t m, index_t n, index_t k, double alpha,
                   const double* a, index_t lda, const double* b, index_t ldb,
                   double* c, index_t ldc);
void strassen_gemm(index_t m, index_t n, index_t k, float alpha,
                   const float* a, index_t lda, const float* b, index_t ldb,
                   float* c, index_t ldc);

// Strassen form of gemm_tile_scaled: x(m x m) -= (u * diag(w)^-1) * v.
// The per-column reciprocals are hoisted once (exactly pack_a_scaled's
// rounding) and every packed A quadrant indexes them at its own column
// offset.
void strassen_gemm_scaled(double* x, const double* u, const double* v,
                          const double* w, index_t m, index_t sx, index_t su,
                          index_t sv, index_t sw);
void strassen_gemm_scaled(float* x, const float* u, const float* v,
                          const float* w, index_t m, index_t sx, index_t su,
                          index_t sv, index_t sw);

}  // namespace gep::simd

// Cache-aware tuned baselines (the reproduction's stand-in for ATLAS /
// GotoBLAS, which are closed or assembly-tuned and unavailable offline).
//
// These follow the GotoBLAS algorithm sketch — explicit cache blocking
// with panel packing and a register-blocked micro-kernel — written in
// portable C++ so the comparison against cache-oblivious I-GEP
// (Figs. 10, 11) pits the same *design points* against each other:
// cache-aware + layout-packing vs cache-oblivious + recursion.
//
// All matrices are row-major with explicit leading dimensions.
#pragma once

#include "matrix/matrix.hpp"
#include "simd/gemm_leaf.hpp"

namespace gep::blas {

// C(m x n) += alpha * A(m x k) * B(k x n); alpha is +1 or -1 in practice.
void dgemm(index_t m, index_t n, index_t k, double alpha, const double* a,
           index_t lda, const double* b, index_t ldb, double* c, index_t ldc);

// In-place LU decomposition without pivoting of the n x n matrix A
// (unit lower triangular L below the diagonal, U on and above), using
// blocked right-looking elimination with dgemm trailing updates.
void lu_nopivot(index_t n, double* a, index_t lda);

// Cache-aware tiled Floyd-Warshall (the blocked FW of Venkataraman et
// al. / Park-Penner-Prasanna): in-place on the n x n distance matrix.
void fw_tiled(index_t n, double* d, index_t ld, index_t tile = 64);

// Blocking parameters (exposed for the ablation bench): the packed
// macro loop's, defaulting to the classic baseline's blocking.
using GemmBlocking = simd::PackedBlocking;
void dgemm_blocked(index_t m, index_t n, index_t k, double alpha,
                   const double* a, index_t lda, const double* b, index_t ldb,
                   double* c, index_t ldc, const GemmBlocking& blocking);

}  // namespace gep::blas

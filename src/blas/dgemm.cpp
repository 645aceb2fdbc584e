#include "blas/blas.hpp"

#include "simd/gemm_leaf.hpp"
#include "simd/microkernel.hpp"
#include "simd/strassen.hpp"

namespace gep::blas {

// The explicit cache blocking over the shared packed macro loop
// (simd::gemm_packed): A packed into MR-row column panels, B into
// NR-column row panels, 8 x 16 register-blocked micro-tiles, the
// micro-kernel of the active dispatch level.
void dgemm_blocked(index_t m, index_t n, index_t k, double alpha,
                   const double* a, index_t lda, const double* b, index_t ldb,
                   double* c, index_t ldc, const GemmBlocking& bl) {
  const simd::PackSrc<double> as{a, 1.0, nullptr};
  const simd::PackSrc<double> bs{b, 1.0, nullptr};
  const simd::GemmDest<double> cs{c, 1.0};
  simd::gemm_packed(m, n, k, alpha, &as, 1, lda, &bs, 1, ldb, &cs, 1, ldc,
                    bl);
}

void dgemm(index_t m, index_t n, index_t k, double alpha, const double* a,
           index_t lda, const double* b, index_t ldb, double* c, index_t ldc) {
  // One Strassen level from the measured crossover up
  // (simd/strassen.hpp); below it — and in dgemm_blocked, which benches
  // the explicit blocking — the classic packed path.
  if (simd::strassen_engages(m, n, k)) {
    simd::strassen_gemm(m, n, k, alpha, a, lda, b, ldb, c, ldc);
  } else {
    dgemm_blocked(m, n, k, alpha, a, lda, b, ldb, c, ldc, GemmBlocking{});
  }
}

}  // namespace gep::blas

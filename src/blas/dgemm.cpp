#include "blas/blas.hpp"

#include <algorithm>
#include <cstring>

#include "simd/dispatch.hpp"
#include "simd/kernels_avx2.hpp"
#include "simd/microkernel.hpp"
#include "simd/strassen.hpp"
#include "util/aligned.hpp"

namespace gep::blas {
namespace {

// Shared BLIS-style micro-kernel layer (simd/microkernel.hpp): 6 x 8
// register-blocked micro-tiles, A packed into MR-row column panels, B
// into NR-column row panels. The AVX2/FMA micro-kernel is selected once
// per dgemm_blocked call via runtime dispatch; the scalar reference
// micro-kernel keeps the identical packed contract on other hosts and
// under $GEP_FORCE_SCALAR=1.
constexpr index_t MR = simd::kMicroRows;
constexpr index_t NR = simd::micro_cols<double>();

}  // namespace

void dgemm_blocked(index_t m, index_t n, index_t k, double alpha,
                   const double* a, index_t lda, const double* b, index_t ldb,
                   double* c, index_t ldc, const GemmBlocking& bl) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  const index_t mc = bl.mc, kc = bl.kc, nc = bl.nc;
  auto packed_a = make_aligned<double>(
      static_cast<std::size_t>(simd::packed_a_size<double>(mc, kc)));
  auto packed_b = make_aligned<double>(
      static_cast<std::size_t>(simd::packed_b_size<double>(kc, nc)));
#if GEP_SIMD_X86
  const bool use_avx2 = simd::active() == simd::Level::Avx2;
#else
  const bool use_avx2 = false;
#endif

  for (index_t jc = 0; jc < n; jc += nc) {
    const index_t ncb = std::min(nc, n - jc);
    for (index_t pc = 0; pc < k; pc += kc) {
      const index_t kcb = std::min(kc, k - pc);
      simd::pack_b(b + pc * ldb + jc, ldb, kcb, ncb, packed_b.get());
      for (index_t ic = 0; ic < m; ic += mc) {
        const index_t mcb = std::min(mc, m - ic);
        simd::pack_a(a + ic * lda + pc, lda, mcb, kcb, packed_a.get());
        // Macro kernel over the packed panels.
        for (index_t jr = 0; jr < ncb; jr += NR) {
          const index_t nr = std::min(NR, ncb - jr);
          const double* pb = packed_b.get() + (jr / NR) * kcb * NR;
          for (index_t ir = 0; ir < mcb; ir += MR) {
            const index_t mr = std::min(MR, mcb - ir);
            const double* pa = packed_a.get() + (ir / MR) * kcb * MR;
            double* cij = c + (ic + ir) * ldc + jc + jr;
#if GEP_SIMD_X86
            if (use_avx2) {
              if (mr == MR && nr == NR) {
                simd::ukr_avx2(kcb, alpha, pa, pb, cij, ldc);
              } else {
                simd::ukr_avx2_edge(kcb, alpha, pa, pb, cij, ldc, mr, nr);
              }
              continue;
            }
#endif
            if (mr == MR && nr == NR) {
              simd::ukr_scalar(kcb, alpha, pa, pb, cij, ldc);
            } else {
              simd::ukr_scalar_edge(kcb, alpha, pa, pb, cij, ldc, mr, nr);
            }
          }
        }
      }
    }
  }
  (void)use_avx2;
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

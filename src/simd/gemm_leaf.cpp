#include "simd/gemm_leaf.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>

#include "simd/dispatch.hpp"
#include "simd/kernels_avx2.hpp"
#include "simd/microkernel.hpp"
#include "simd/strassen.hpp"
#include "util/aligned.hpp"

namespace gep::simd {
namespace {

// k-chunk for panel packing. Leaf tiles are almost always <= this, so B
// packs exactly once per leaf call and is reused across all A panels.
// (The thread-local packing panels live in microkernel.hpp's
// packing_buffer, shared with the Strassen layer.)
constexpr index_t kGemmKc = kMaxPanelK;
static_assert(kGemmKc <= kMaxPanelK,
              "pack_a_scaled's reciprocal buffer is sized for kMaxPanelK");

// Shared macro-loop over one m x m leaf: per k-chunk, packs B once and
// A through pack_a_chunk(pc, kcb, dst), then sweeps every micro-tile of
// x with ukr(kcb, pa, pb, c, mr, nr) (mr x nr < MR x NR on the fringes).
template <class T, class PackA, class Ukr>
void macro_loop(T* x, const T* v, index_t m, index_t sx, index_t sv,
                PackA&& pack_a_chunk, Ukr&& ukr) {
  constexpr index_t MR = kMicroRows;
  constexpr index_t NR = micro_cols<T>();
  const index_t kc = std::min(m, kGemmKc);
  T* pa = packing_buffer<T>(0, static_cast<std::size_t>(packed_a_size<T>(m, kc)));
  T* pb = packing_buffer<T>(1, static_cast<std::size_t>(packed_b_size<T>(kc, m)));
  for (index_t pc = 0; pc < m; pc += kc) {
    const index_t kcb = std::min(kc, m - pc);
    pack_b(v + pc * sv, sv, kcb, m, pb);
    pack_a_chunk(pc, kcb, pa);
    for (index_t jr = 0; jr < m; jr += NR) {
      const index_t nr = std::min(NR, m - jr);
      const T* pbj = pb + (jr / NR) * kcb * NR;
      for (index_t ir = 0; ir < m; ir += MR) {
        ukr(kcb, pa + (ir / MR) * kcb * MR, pbj, x + ir * sx + jr,
            std::min(MR, m - ir), nr);
      }
    }
  }
}

// x += alpha * packed(u') * v, where u' is either u or u scaled by
// 1/diag(w) (Scaled = GE multiplier fold): one Strassen level from the
// crossover (strassen_engages) up, the classic packed path below it.
template <class T, bool Scaled>
void gemm_impl(T* x, const T* u, const T* v, const T* w, index_t m,
               index_t sx, index_t su, index_t sv, index_t sw, T alpha) {
  if (strassen_engages(m, m, m)) {
    if constexpr (Scaled) {
      strassen_gemm_scaled(x, u, v, w, m, sx, su, sv, sw);
    } else {
      strassen_gemm(m, m, m, alpha, u, su, v, sv, x, sx);
    }
    return;
  }
  constexpr index_t MR = kMicroRows;
  constexpr index_t NR = micro_cols<T>();
#if GEP_SIMD_X86
  const bool use_avx2 = active() == Level::Avx2;
#endif
  auto pack = [&](index_t pc, index_t kcb, T* pa) {
    if constexpr (Scaled) {
      pack_a_scaled(u + pc, su, m, kcb, w + pc * sw + pc, sw, pa);
    } else {
      pack_a(u + pc, su, m, kcb, pa);
    }
  };
  macro_loop(x, v, m, sx, sv, pack,
             [&](index_t kcb, const T* pai, const T* pbj, T* cij, index_t mr,
                 index_t nr) {
               const bool full = mr == MR && nr == NR;
#if GEP_SIMD_X86
               if (use_avx2) {
                 full ? ukr_avx2(kcb, alpha, pai, pbj, cij, sx)
                      : ukr_avx2_edge(kcb, alpha, pai, pbj, cij, sx, mr, nr);
                 return;
               }
#endif
               full ? ukr_scalar(kcb, alpha, pai, pbj, cij, sx)
                    : ukr_scalar_edge(kcb, alpha, pai, pbj, cij, sx, mr, nr);
             });
}

#if GEP_SIMD_X86
template <class T>
void semiring_impl(Semiring sr, T* x, const T* u, const T* v, index_t m,
                   index_t sx, index_t su, index_t sv) {
  macro_loop(x, v, m, sx, sv,
             [&](index_t pc, index_t kcb, T* pa) {
               pack_a(u + pc, su, m, kcb, pa);
             },
             [&](index_t kcb, const T* pai, const T* pbj, T* cij, index_t mr,
                 index_t nr) {
               ukr_semiring_avx2(sr, kcb, pai, pbj, cij, sx, mr, nr);
             });
}
#endif

}  // namespace

void gemm_tile(double* x, const double* u, const double* v, index_t m,
               index_t sx, index_t su, index_t sv, double alpha) {
  gemm_impl<double, false>(x, u, v, nullptr, m, sx, su, sv, 0, alpha);
}
void gemm_tile(float* x, const float* u, const float* v, index_t m,
               index_t sx, index_t su, index_t sv, float alpha) {
  gemm_impl<float, false>(x, u, v, nullptr, m, sx, su, sv, 0, alpha);
}

void gemm_tile_scaled(double* x, const double* u, const double* v,
                      const double* w, index_t m, index_t sx, index_t su,
                      index_t sv, index_t sw) {
  gemm_impl<double, true>(x, u, v, w, m, sx, su, sv, sw, -1.0);
}
void gemm_tile_scaled(float* x, const float* u, const float* v,
                      const float* w, index_t m, index_t sx, index_t su,
                      index_t sv, index_t sw) {
  gemm_impl<float, true>(x, u, v, w, m, sx, su, sv, sw, -1.0f);
}

#if GEP_SIMD_X86
void semiring_tile(Semiring sr, double* x, const double* u, const double* v,
                   index_t m, index_t sx, index_t su, index_t sv) {
  semiring_impl(sr, x, u, v, m, sx, su, sv);
}
void semiring_tile(Semiring sr, float* x, const float* u, const float* v,
                   index_t m, index_t sx, index_t su, index_t sv) {
  semiring_impl(sr, x, u, v, m, sx, su, sv);
}
#endif

}  // namespace gep::simd

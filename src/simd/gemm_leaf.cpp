#include "simd/gemm_leaf.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>

#include "simd/dispatch.hpp"
#include "simd/kernels_x86.hpp"
#include "simd/microkernel.hpp"
#include "simd/strassen.hpp"
#include "util/aligned.hpp"

namespace gep::simd {
namespace {

// k-chunk of the leaf macro loop. Leaf tiles are almost always <= this,
// so B packs exactly once per leaf call and is reused across all A
// panels (mc = nc = m: one A block, one B panel per chunk).
constexpr index_t kLeafKc = 256;

PackedBlocking leaf_blocking(index_t m) { return {m, kLeafKc, m}; }

// The one micro-kernel selection point: the table of the active level.
template <class T>
const MicroKernels<T>& micro_kernels() {
#if GEP_SIMD_X86
  const Level l = active();
  if (l != Level::Scalar) return x86_micro_kernels<T>(l);
#endif
  static constexpr MicroKernels<T> scalar{&ukr_scalar<T>, nullptr};
  return scalar;
}

// The macro loop over packed panels: per nc-wide column block and
// kc-deep chunk, packs B once; per mc-tall row block, packs A; then
// calls tile(kcb, pa, pb, i, j, mr, nr) for every micro-tile, whose
// top-left element is (i, j) (mr x nr < MR x NR on the fringes).
template <class T, class Tile>
void macro_loop(index_t m, index_t n, index_t k, const PackSrc<T>* as, int na,
                index_t lda, const PackSrc<T>* bs, int nb, index_t ldb,
                const PackedBlocking& bl, Tile&& tile) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  constexpr index_t MR = kMicroRows;
  constexpr index_t NR = micro_cols<T>();
  const index_t mc = std::min(m, bl.mc);
  const index_t kc = std::min(k, bl.kc);
  const index_t nc = std::min(n, bl.nc);
  T* pa = packing_buffer<T>(
      0, static_cast<std::size_t>(packed_a_size<T>(mc, kc)));
  T* pb = packing_buffer<T>(
      1, static_cast<std::size_t>(packed_b_size<T>(kc, nc)));

  PackSrc<T> ab[kMaxGemmOperands];
  PackSrc<T> bb[kMaxGemmOperands];
  for (index_t jc = 0; jc < n; jc += nc) {
    const index_t ncb = std::min(nc, n - jc);
    for (index_t pc = 0; pc < k; pc += kc) {
      const index_t kcb = std::min(kc, k - pc);
      for (int q = 0; q < nb; ++q) {
        bb[q] = {bs[q].p + pc * ldb + jc, bs[q].coeff, nullptr};
      }
      pack_b(bb, nb, ldb, kcb, ncb, pb);
      for (index_t ic = 0; ic < m; ic += mc) {
        const index_t mcb = std::min(mc, m - ic);
        for (int q = 0; q < na; ++q) {
          ab[q] = {as[q].p + ic * lda + pc, as[q].coeff,
                   as[q].inv == nullptr ? nullptr : as[q].inv + pc};
        }
        pack_a(ab, na, lda, mcb, kcb, pa);
        for (index_t jr = 0; jr < ncb; jr += NR) {
          const index_t nr = std::min(NR, ncb - jr);
          const T* pbj = pb + (jr / NR) * kcb * NR;
          for (index_t ir = 0; ir < mcb; ir += MR) {
            tile(kcb, pa + (ir / MR) * kcb * MR, pbj, ic + ir, jc + jr,
                 std::min(MR, mcb - ir), nr);
          }
        }
      }
    }
  }
}

// x += alpha * u' * v, where u' is either u or u scaled by 1/diag(w)
// (Scaled = GE multiplier fold): one Strassen level from the crossover
// (strassen_engages) up, the classic packed path below it.
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
  const PackSrc<T> a{u, T{1}, Scaled ? reciprocals(w, sw, m) : nullptr};
  const PackSrc<T> b{v, T{1}, nullptr};
  const GemmDest<T> c{x, T{1}};
  gemm_packed(m, m, m, alpha, &a, 1, su, &b, 1, sv, &c, 1, sx,
              leaf_blocking(m));
}

template <class T>
void semiring_impl(Semiring sr, T* x, const T* u, const T* v, index_t m,
                   index_t sx, index_t su, index_t sv) {
  const auto semiring = micro_kernels<T>().semiring;
  assert(semiring != nullptr);
  const PackSrc<T> a{u, T{1}, nullptr};
  const PackSrc<T> b{v, T{1}, nullptr};
  macro_loop(m, m, m, &a, 1, su, &b, 1, sv, leaf_blocking(m),
             [&](index_t kcb, const T* pa, const T* pb, index_t i, index_t j,
                 index_t mr, index_t nr) {
               semiring(sr, kcb, pa, pb, x + i * sx + j, sx, mr, nr);
             });
}

}  // namespace

template <class T>
void gemm_packed(index_t m, index_t n, index_t k, T alpha,
                 const PackSrc<T>* as, int na, index_t lda,
                 const PackSrc<T>* bs, int nb, index_t ldb,
                 const GemmDest<T>* cs, int nd, index_t ldc,
                 const PackedBlocking& bl) {
  const auto gemm = micro_kernels<T>().gemm;
  GemmDest<T> db[kMaxGemmOperands];
  macro_loop(m, n, k, as, na, lda, bs, nb, ldb, bl,
             [&](index_t kcb, const T* pa, const T* pb, index_t i, index_t j,
                 index_t mr, index_t nr) {
               for (int q = 0; q < nd; ++q) {
                 db[q] = {cs[q].c + i * ldc + j, cs[q].coeff};
               }
               gemm(kcb, alpha, pa, pb, db, nd, ldc, mr, nr);
             });
}

template <class T>
const T* reciprocals(const T* w, index_t sw, index_t k) {
  thread_local AlignedPtr<T> buf;
  thread_local std::size_t cap = 0;
  const auto count = static_cast<std::size_t>(k);
  if (cap < count) {
    buf = make_aligned<T>(count);
    cap = count;
  }
  for (index_t p = 0; p < k; ++p) buf[p] = T{1} / w[p * sw + p];
  return buf.get();
}

#define GEP_GEMM_PACKED_INSTANTIATE(T)                                    \
  template void gemm_packed(index_t, index_t, index_t, T,                 \
                            const PackSrc<T>*, int, index_t,              \
                            const PackSrc<T>*, int, index_t,              \
                            const GemmDest<T>*, int, index_t,             \
                            const PackedBlocking&);                       \
  template const T* reciprocals(const T*, index_t, index_t);
GEP_GEMM_PACKED_INSTANTIATE(double)
GEP_GEMM_PACKED_INSTANTIATE(float)
#undef GEP_GEMM_PACKED_INSTANTIATE

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

void semiring_tile(Semiring sr, double* x, const double* u, const double* v,
                   index_t m, index_t sx, index_t su, index_t sv) {
  semiring_impl(sr, x, u, v, m, sx, su, sv);
}
void semiring_tile(Semiring sr, float* x, const float* u, const float* v,
                   index_t m, index_t sx, index_t su, index_t sv) {
  semiring_impl(sr, x, u, v, m, sx, su, sv);
}

}  // namespace gep::simd

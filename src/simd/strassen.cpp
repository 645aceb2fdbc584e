#include "simd/strassen.hpp"

#include <algorithm>

#include "obs/registry.hpp"
#include "simd/dispatch.hpp"
#include "simd/gemm_leaf.hpp"
#include "simd/kernels_avx2.hpp"
#include "simd/microkernel.hpp"
#include "util/aligned.hpp"

namespace gep::simd {
namespace {

// --- generalized packed GEMM ----------------------------------------------
//
// C_q += alpha * coeff_q * (Σ_s a_s) (Σ_t b_t) over row-major blocks
// sharing lda / ldb / ldc. Macro blocking mirrors blas::GemmBlocking
// (mc x kc A blocks in L2, kc x nc B panels in L3); the packing passes
// form the operand sums, the micro-kernel writeback scatters the
// product — Strassen's 15 additions ride inside passes the classic
// path already makes.

// mc and kc are twice the classic path's 128 x 256: multi-source packs
// and multi-destination writebacks make operand passes the scarce
// resource (a sub-multiply streams up to 2 quadrants per pack and per
// k-chunk), so the Strassen macro loop trades micro-panel L1 residency
// for fewer passes — kc = 512 halves the C writebacks, mc = 256 halves
// the B-panel sweeps, and the packed A block (256 x 512 doubles = 1 MB)
// still fits a 2 MB L2. Values picked by a paired sweep on the dev/CI
// host (see docs/KERNELS.md).
constexpr index_t kStrassenMc = 256;
constexpr index_t kStrassenKc = 512;
constexpr index_t kStrassenNc = 1024;

template <class T>
void gemm_packed_multi(index_t m, index_t n, index_t k, T alpha,
                       const PackSrc<T>* as, int na, index_t lda,
                       const PackSrc<T>* bs, int nb, index_t ldb,
                       const GemmDest<T>* cs, int nd, index_t ldc) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  constexpr index_t MR = kMicroRows;
  constexpr index_t NR = micro_cols<T>();
  const index_t mc = std::min(m, kStrassenMc);
  const index_t kc = std::min(k, kStrassenKc);
  const index_t nc = std::min(n, kStrassenNc);
  T* pa = packing_buffer<T>(
      0, static_cast<std::size_t>(packed_a_size<T>(mc, kc)));
  T* pb = packing_buffer<T>(
      1, static_cast<std::size_t>(packed_b_size<T>(kc, nc)));
#if GEP_SIMD_X86
  const bool use_avx2 = active() == Level::Avx2;
#else
  const bool use_avx2 = false;
#endif

  PackSrc<T> ab[kMaxGemmOperands];
  PackSrc<T> bb[kMaxGemmOperands];
  GemmDest<T> db[kMaxGemmOperands];
  for (index_t jc = 0; jc < n; jc += nc) {
    const index_t ncb = std::min(nc, n - jc);
    for (index_t pc = 0; pc < k; pc += kc) {
      const index_t kcb = std::min(kc, k - pc);
      for (int q = 0; q < nb; ++q) {
        bb[q] = {bs[q].p + pc * ldb + jc, bs[q].coeff, nullptr};
      }
      pack_b_multi(bb, nb, ldb, kcb, ncb, pb);
      for (index_t ic = 0; ic < m; ic += mc) {
        const index_t mcb = std::min(mc, m - ic);
        for (int q = 0; q < na; ++q) {
          ab[q] = {as[q].p + ic * lda + pc, as[q].coeff,
                   as[q].inv == nullptr ? nullptr : as[q].inv + pc};
        }
        pack_a_multi(ab, na, lda, mcb, kcb, pa);
        for (index_t jr = 0; jr < ncb; jr += NR) {
          const index_t nr = std::min(NR, ncb - jr);
          const T* pbj = pb + (jr / NR) * kcb * NR;
          for (index_t ir = 0; ir < mcb; ir += MR) {
            const index_t mr = std::min(MR, mcb - ir);
            const T* pai = pa + (ir / MR) * kcb * MR;
            const index_t coff = (ic + ir) * ldc + jc + jr;
            for (int q = 0; q < nd; ++q) {
              db[q] = {cs[q].c + coff, cs[q].coeff};
            }
#if GEP_SIMD_X86
            if (use_avx2) {
              if (mr == MR && nr == NR) {
                ukr_avx2_multi(kcb, alpha, pai, pbj, db, nd, ldc);
              } else {
                ukr_avx2_multi_edge(kcb, alpha, pai, pbj, db, nd, ldc, mr,
                                    nr);
              }
              continue;
            }
#endif
            if (mr == MR && nr == NR) {
              ukr_scalar_multi(kcb, alpha, pai, pbj, db, nd, ldc);
            } else {
              ukr_scalar_multi_edge(kcb, alpha, pai, pbj, db, nd, ldc, mr,
                                    nr);
            }
          }
        }
      }
    }
  }
  (void)use_avx2;
}

// --- one Strassen level ---------------------------------------------------
//
// Classic Strassen (not the Winograd variant): its 7-multiply schedule
// is the one whose fused form needs no intermediate at all — every
// multiply reads at most 2 A quadrants and 2 B quadrants and writes at
// most 2 C quadrants, so one packed-GEMM pass per multiply covers the
// whole update. Winograd's fewer additions only pay off when sums are
// materialized; fused, its U/W intermediates would force extra sweeps.
//
//   M1 = (A11+A22)(B11+B22) -> C11+, C22+
//   M2 = (A21+A22) B11      -> C21+, C22-
//   M3 = A11 (B12-B22)      -> C12+, C22+
//   M4 = A22 (B21-B11)      -> C11+, C21+
//   M5 = (A11+A12) B22      -> C11-, C12+
//   M6 = (A21-A11)(B11+B12) -> C22+
//   M7 = (A12-A22)(B21+B22) -> C11+

struct QuadTerm {
  int q;  // quadrant index: (row half) * 2 + (col half)
  int sign;
};

struct Multiply {
  QuadTerm a[2];
  int na;
  QuadTerm b[2];
  int nb;
  QuadTerm c[2];
  int nc;
};

constexpr Multiply kStrassenTable[7] = {
    {{{0, +1}, {3, +1}}, 2, {{0, +1}, {3, +1}}, 2, {{0, +1}, {3, +1}}, 2},
    {{{2, +1}, {3, +1}}, 2, {{0, +1}, {0, 0}}, 1, {{2, +1}, {3, -1}}, 2},
    {{{0, +1}, {0, 0}}, 1, {{1, +1}, {3, -1}}, 2, {{1, +1}, {3, +1}}, 2},
    {{{3, +1}, {0, 0}}, 1, {{2, +1}, {0, -1}}, 2, {{0, +1}, {2, +1}}, 2},
    {{{0, +1}, {1, +1}}, 2, {{3, +1}, {0, 0}}, 1, {{0, -1}, {1, +1}}, 2},
    {{{2, +1}, {0, -1}}, 2, {{0, +1}, {1, +1}}, 2, {{3, +1}, {0, 0}}, 1},
    {{{1, +1}, {3, -1}}, 2, {{2, +1}, {3, +1}}, 2, {{0, +1}, {0, 0}}, 1},
};

struct StrassenCounters {
  obs::Counter calls = obs::counter("kernels.strassen.calls");
  obs::Counter fallbacks = obs::counter("kernels.strassen.fallbacks");
};

StrassenCounters& counters() {
  static StrassenCounters c;
  return c;
}

// One Strassen level over c += alpha * a' * b, a' = a scaled by the
// per-column reciprocals inv when non-null (the GE multiplier fold).
template <class T>
void strassen_level(index_t m, index_t n, index_t k, T alpha, const T* a,
                    index_t lda, const T* inv, const T* b, index_t ldb, T* c,
                    index_t ldc) {
  counters().calls.inc();
  const index_t mh = m / 2, nh = n / 2, kh = k / 2;
  const index_t mE = 2 * mh, nE = 2 * nh, kE = 2 * kh;
  auto a_src = [&](index_t row, index_t col, T coeff) {
    return PackSrc<T>{a + row * lda + col, coeff,
                      inv == nullptr ? nullptr : inv + col};
  };
  auto b_src = [&](index_t row, index_t col, T coeff) {
    return PackSrc<T>{b + row * ldb + col, coeff, nullptr};
  };

  for (const Multiply& mul : kStrassenTable) {
    PackSrc<T> a2[kMaxGemmOperands];
    PackSrc<T> b2[kMaxGemmOperands];
    GemmDest<T> c2[kMaxGemmOperands];
    for (int t = 0; t < mul.na; ++t) {
      const QuadTerm& q = mul.a[t];
      a2[t] = a_src((q.q >> 1) * mh, (q.q & 1) * kh, static_cast<T>(q.sign));
    }
    for (int t = 0; t < mul.nb; ++t) {
      const QuadTerm& q = mul.b[t];
      b2[t] = b_src((q.q >> 1) * kh, (q.q & 1) * nh, static_cast<T>(q.sign));
    }
    for (int t = 0; t < mul.nc; ++t) {
      const QuadTerm& q = mul.c[t];
      c2[t] = {c + (q.q >> 1) * mh * ldc + (q.q & 1) * nh,
               static_cast<T>(q.sign)};
    }
    gemm_packed_multi(mh, nh, kh, alpha, a2, mul.na, lda, b2, mul.nb, ldb, c2,
                      mul.nc, ldc);
  }

  // Dynamic peeling for odd extents: the even core above covers
  // C[0:mE, 0:nE] += A[0:mE, 0:kE] B[0:kE, 0:nE]; three thin packed
  // GEMMs on the original operands finish the product.
  const PackSrc<T> as = a_src(0, 0, T{1}), bs = b_src(0, 0, T{1});
  if (kE < k) {  // last k column/row: rank-1 update of the even core
    const PackSrc<T> at = a_src(0, kE, T{1}), bt = b_src(kE, 0, T{1});
    const GemmDest<T> ct{c, T{1}};
    gemm_packed_multi(mE, nE, k - kE, alpha, &at, 1, lda, &bt, 1, ldb, &ct, 1,
                      ldc);
  }
  if (nE < n) {  // last column of C, full k
    const PackSrc<T> bt = b_src(0, nE, T{1});
    const GemmDest<T> ct{c + nE, T{1}};
    gemm_packed_multi(mE, n - nE, k, alpha, &as, 1, lda, &bt, 1, ldb, &ct, 1,
                      ldc);
  }
  if (mE < m) {  // last row of C, full n and k
    const PackSrc<T> at = a_src(mE, 0, T{1});
    const GemmDest<T> ct{c + mE * ldc, T{1}};
    gemm_packed_multi(m - mE, n, k, alpha, &at, 1, lda, &bs, 1, ldb, &ct, 1,
                      ldc);
  }
}

// Reciprocal vector for the scaled (GE multiplier fold) path: one
// division per k, identical rounding to pack_a_scaled's hoist.
template <class T>
T* reciprocal_buffer(const T* w, index_t sw, index_t k) {
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

}  // namespace

bool strassen_engages(index_t m, index_t n, index_t k) {
  if (std::min({m, n, k}) >= kStrassenMinM) return true;
  counters().fallbacks.inc();
  return false;
}

void strassen_gemm(index_t m, index_t n, index_t k, double alpha,
                   const double* a, index_t lda, const double* b, index_t ldb,
                   double* c, index_t ldc) {
  strassen_level<double>(m, n, k, alpha, a, lda, nullptr, b, ldb, c, ldc);
}
void strassen_gemm(index_t m, index_t n, index_t k, float alpha,
                   const float* a, index_t lda, const float* b, index_t ldb,
                   float* c, index_t ldc) {
  strassen_level<float>(m, n, k, alpha, a, lda, nullptr, b, ldb, c, ldc);
}

void strassen_gemm_scaled(double* x, const double* u, const double* v,
                          const double* w, index_t m, index_t sx, index_t su,
                          index_t sv, index_t sw) {
  strassen_level(m, m, m, -1.0, u, su, reciprocal_buffer(w, sw, m), v, sv, x,
                 sx);
}
void strassen_gemm_scaled(float* x, const float* u, const float* v,
                          const float* w, index_t m, index_t sx, index_t su,
                          index_t sv, index_t sw) {
  strassen_level(m, m, m, -1.0f, u, su, reciprocal_buffer(w, sw, m), v, sv,
                 x, sx);
}

}  // namespace gep::simd

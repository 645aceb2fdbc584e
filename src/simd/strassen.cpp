#include "simd/strassen.hpp"

#include <algorithm>

#include "obs/registry.hpp"
#include "simd/gemm_leaf.hpp"
#include "simd/microkernel.hpp"

namespace gep::simd {
namespace {

// --- blocking of the Strassen sub-multiplies -------------------------------
//
// Each sub-multiply is one gemm_packed call (simd/gemm_leaf.hpp): its
// packing passes form the operand sums, its micro-kernel writeback
// scatters the product — Strassen's 15 additions ride inside passes
// the classic path already makes.
//
// kc is twice the classic path's 256: multi-source packs and
// multi-destination writebacks make operand passes the scarce resource
// (a sub-multiply streams up to 2 quadrants per pack and per k-chunk),
// so the Strassen macro loop trades micro-panel L1 residency for fewer
// passes — kc = 512 halves the C writebacks. mc stays at the classic
// 128: with 8 x 16 micro-tiles, mc = 256 ran 8–15% slower at n = 1024
// on both packed levels. Values picked by paired sweeps on a 4-CPU
// AVX-512 Xeon (see docs/KERNELS.md).
constexpr PackedBlocking kStrassenBlocking{128, 512, 1024};

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
    gemm_packed(mh, nh, kh, alpha, a2, mul.na, lda, b2, mul.nb, ldb, c2,
                mul.nc, ldc, kStrassenBlocking);
  }

  // Dynamic peeling for odd extents: the even core above covers
  // C[0:mE, 0:nE] += A[0:mE, 0:kE] B[0:kE, 0:nE]; three thin packed
  // GEMMs on the original operands finish the product.
  const PackSrc<T> as = a_src(0, 0, T{1}), bs = b_src(0, 0, T{1});
  if (kE < k) {  // last k column/row: rank-1 update of the even core
    const PackSrc<T> at = a_src(0, kE, T{1}), bt = b_src(kE, 0, T{1});
    const GemmDest<T> ct{c, T{1}};
    gemm_packed(mE, nE, k - kE, alpha, &at, 1, lda, &bt, 1, ldb, &ct, 1, ldc,
                kStrassenBlocking);
  }
  if (nE < n) {  // last column of C, full k
    const PackSrc<T> bt = b_src(0, nE, T{1});
    const GemmDest<T> ct{c + nE, T{1}};
    gemm_packed(mE, n - nE, k, alpha, &as, 1, lda, &bt, 1, ldb, &ct, 1, ldc,
                kStrassenBlocking);
  }
  if (mE < m) {  // last row of C, full n and k
    const PackSrc<T> at = a_src(mE, 0, T{1});
    const GemmDest<T> ct{c + mE * ldc, T{1}};
    gemm_packed(m - mE, n, k, alpha, &at, 1, lda, &bs, 1, ldb, &ct, 1, ldc,
                kStrassenBlocking);
  }
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
  strassen_level(m, m, m, -1.0, u, su, reciprocals(w, sw, m), v, sv, x,
                 sx);
}
void strassen_gemm_scaled(float* x, const float* u, const float* v,
                          const float* w, index_t m, index_t sx, index_t su,
                          index_t sv, index_t sw) {
  strassen_level(m, m, m, -1.0f, u, su, reciprocals(w, sw, m), v, sv,
                 x, sx);
}

}  // namespace gep::simd

// Shared register-blocked GEMM micro-kernel layer (BLIS-style).
//
// One packing format and one micro-tile shape serve every packed path —
// the cache-aware BLAS baseline (blas::dgemm_blocked), the Strassen
// layer (simd/strassen.*) and the typed engine's D-kind leaves
// (simd/gemm_leaf.*) — at every dispatch level: A blocks are packed
// into MR-row column panels, B blocks into NR-column row panels, both
// zero-padded to full micro-tile width so the interior micro-kernel
// never sees a fringe.
//
// Micro-tile shape: MR x NR = 8 x 16 for double and 8 x 32 for float,
// i.e. 8 rows of two 512-bit vectors. At Level::Avx512 the tile is 16
// zmm accumulators; at Level::Avx2 it runs as 6 x 2-ymm, 6 x 2-ymm and
// 2 x 4-ymm register sub-tiles. 8 rows divide the engine's 64-row
// leaves, so those leaves have no row fringe. The x86 micro-kernels
// live in kernels_x86.cpp; the scalar reference micro-kernel below
// keeps the identical contract for other hosts and the
// $GEP_FORCE_SCALAR leg. gemm_leaf.cpp's micro_kernels() picks one of
// them per call.
#pragma once

#include <algorithm>
#include <cstddef>

#include "matrix/matrix.hpp"
#include "util/aligned.hpp"

namespace gep::simd {

// Micro-tile rows (shared) and columns (per element type: two 64-byte
// vectors).
inline constexpr index_t kMicroRows = 8;

template <class T>
constexpr index_t micro_cols() {
  return 128 / static_cast<index_t>(sizeof(T));
}

// The (⊕, ⊗) semirings the packed micro-kernel folds besides (+, ×):
// MinPlus is Floyd-Warshall's x = min(x, u + v), MaxMin the bottleneck
// x = max(x, min(u, v)).
enum class Semiring { MinPlus, MaxMin };

// Row-chunk size for B-panel packing: strip-outer order alone reads NR
// elements then jumps a whole row stride (TLB-miss per touch on large
// ldb), row-outer order alone scatters writes across every panel.
// Chunking kPackBRows rows and sweeping panels inside the chunk keeps
// the source slab cache-resident across panels and each panel's write
// run sequential — ~25% faster than either pure order at ldb = 1024,
// and within ~25% of this-host memcpy bandwidth (the practical floor).
inline constexpr index_t kPackBRows = 32;

// Number of packed elements pack_a / pack_b emit for an mc x kc (resp.
// kc x nc) block — buffer sizing for callers.
template <class T>
constexpr index_t packed_a_size(index_t mc, index_t kc) {
  return ((mc + kMicroRows - 1) / kMicroRows) * kMicroRows * kc;
}
template <class T>
constexpr index_t packed_b_size(index_t kc, index_t nc) {
  constexpr index_t NR = micro_cols<T>();
  return ((nc + NR - 1) / NR) * NR * kc;
}

// --- packing ----------------------------------------------------------------
//
// A packed operand is a ±1 linear combination of up to kMaxGemmOperands
// source blocks sharing one leading dimension, formed on the fly while
// packing: the classic paths pack one source with coefficient 1, the
// Strassen layer (simd/strassen.*) packs operand sums like A00+A11
// without materializing them. One Strassen level reads at most two
// quadrants per operand, hence the cap.

inline constexpr int kMaxGemmOperands = 2;

// One source block of a packed operand. `inv`, when non-null, points at
// per-column reciprocals (the Gaussian-elimination multiplier fold: the
// packed value is src[i][p] * inv[p], so a D-kind GE leaf becomes the
// pure GEMM x -= t * v); only A sources use it, and all sources of one
// operand carry it or none does.
template <class T>
struct PackSrc {
  const T* p;
  T coeff;
  const T* inv;
};

// One destination block of a micro-tile writeback.
template <class T>
struct GemmDest {
  T* c;
  T coeff;
};

namespace detail_pack {

// Compile-time-NS bodies: source pointers and coefficients live in
// locals (the aliasing-opaque PackSrc fields would otherwise reload
// every element), and the inv indirection is a template branch, not a
// per-element one. The sum starts from the first term, so a single
// source with coefficient 1 packs every value exactly (±0, inf and NaN
// included) — the semiring kernels rely on it. NS <= kMaxGemmOperands.
template <class T, int NS, bool Inv>
void pack_a_fixed(const PackSrc<T>* s, index_t lda, index_t mc, index_t kc,
                  T* dst) {
  constexpr index_t MR = kMicroRows;
  const T* src[NS];
  const T* inv[NS];
  T co[NS];
  for (int q = 0; q < NS; ++q) {
    src[q] = s[q].p;
    inv[q] = s[q].inv;
    co[q] = s[q].coeff;
  }
  auto term = [&](int q, index_t i, index_t p) {
    T v = src[q][i * lda + p];
    if constexpr (Inv) v *= inv[q][p];
    return co[q] * v;
  };
  auto sum = [&](index_t i, index_t p) {
    T acc = term(0, i, p);
    for (int q = 1; q < NS; ++q) acc += term(q, i, p);
    return acc;
  };
  for (index_t i0 = 0; i0 < mc; i0 += MR) {
    const index_t mr = std::min(MR, mc - i0);
    if (mr == MR) {
      for (index_t p = 0; p < kc; ++p) {
        for (index_t i = 0; i < MR; ++i) *dst++ = sum(i0 + i, p);
      }
    } else {
      for (index_t p = 0; p < kc; ++p) {
        for (index_t i = 0; i < MR; ++i) {
          *dst++ = i < mr ? sum(i0 + i, p) : T{};
        }
      }
    }
  }
}

// B panels in kPackBRows row chunks (see kPackBRows).
template <class T, int NS>
void pack_b_fixed(const PackSrc<T>* s, index_t ldb, index_t kc, index_t nc,
                  T* dst) {
  constexpr index_t NR = micro_cols<T>();
  const T* src[NS];
  T co[NS];
  for (int q = 0; q < NS; ++q) {
    src[q] = s[q].p;
    co[q] = s[q].coeff;
  }
  for (index_t p0 = 0; p0 < kc; p0 += kPackBRows) {
    const index_t pe = std::min(p0 + kPackBRows, kc);
    for (index_t j0 = 0; j0 < nc; j0 += NR) {
      const index_t nr = std::min(NR, nc - j0);
      T* dp = dst + (j0 / NR) * kc * NR + p0 * NR;
      for (index_t p = p0; p < pe; ++p, dp += NR) {
        for (index_t j = 0; j < nr; ++j) {
          T acc = co[0] * src[0][p * ldb + j0 + j];
          for (int q = 1; q < NS; ++q) {
            acc += co[q] * src[q][p * ldb + j0 + j];
          }
          dp[j] = acc;
        }
        for (index_t j = nr; j < NR; ++j) dp[j] = T{};
      }
    }
  }
}

}  // namespace detail_pack

// Packs the mc x kc block Σ_q coeff_q * s_q (row-major, shared lda)
// into MR-row column panels: panel p0 holds rows [p0*MR, p0*MR+MR) laid
// out column-by-column, short panels zero-padded.
template <class T>
void pack_a(const PackSrc<T>* s, int ns, index_t lda, index_t mc, index_t kc,
            T* dst) {
  const bool inv = s[0].inv != nullptr;
  if (ns == 1) {
    inv ? detail_pack::pack_a_fixed<T, 1, true>(s, lda, mc, kc, dst)
        : detail_pack::pack_a_fixed<T, 1, false>(s, lda, mc, kc, dst);
  } else {
    inv ? detail_pack::pack_a_fixed<T, 2, true>(s, lda, mc, kc, dst)
        : detail_pack::pack_a_fixed<T, 2, false>(s, lda, mc, kc, dst);
  }
}

// Packs the kc x nc block Σ_q coeff_q * s_q (row-major, shared ldb)
// into NR-column row panels, zero-padded.
template <class T>
void pack_b(const PackSrc<T>* s, int ns, index_t ldb, index_t kc, index_t nc,
            T* dst) {
  if (ns == 1) {
    detail_pack::pack_b_fixed<T, 1>(s, ldb, kc, nc, dst);
  } else {
    detail_pack::pack_b_fixed<T, 2>(s, ldb, kc, nc, dst);
  }
}

// --- micro-kernels ----------------------------------------------------------
//
// The micro-kernels of one dispatch level. Every packed macro loop calls
// them through this table (simd/gemm_leaf.cpp's micro_kernels()), so a
// level is added by adding its table.
template <class T>
struct MicroKernels {
  // One micro-tile product acc = packed_a(kc x MR)^T * packed_b(kc x NR)
  // streamed to every destination as c_q += alpha * coeff_q * acc over
  // the valid mr x nr corner (row-major, shared ldc). Each element's
  // product is one FMA chain over ascending k, and full tiles write
  // back c_q = fma(alpha * coeff_q, acc, c_q): the x86 levels are
  // bit-identical to each other.
  void (*gemm)(index_t kc, T alpha, const T* pa, const T* pb,
               const GemmDest<T>* dst, int nd, index_t ldc, index_t mr,
               index_t nr);
  // Folds the packed panels into the mr x nr corner of c under `sr`,
  // bit-identical per element to the scalar templates (same elementwise
  // operations in the same k order). Null at Level::Scalar, where the
  // semiring leaves run their scalar templates.
  void (*semiring)(Semiring sr, index_t kc, const T* pa, const T* pb, T* c,
                   index_t ldc, index_t mr, index_t nr);
};

// Scalar reference for MicroKernels::gemm. The accumulators live in a
// local array the compiler keeps in registers; `restrict` holds because
// packed panels never alias C. The panels are zero-padded, so the
// full-width accumulation is safe on fringes.
template <class T>
void ukr_scalar(index_t kc, T alpha, const T* __restrict pa,
                const T* __restrict pb, const GemmDest<T>* dst, int nd,
                index_t ldc, index_t mr, index_t nr) {
  constexpr index_t MR = kMicroRows;
  constexpr index_t NR = micro_cols<T>();
  T acc[MR][NR] = {};
  for (index_t p = 0; p < kc; ++p) {
    const T* a = pa + p * MR;
    const T* b = pb + p * NR;
    for (index_t i = 0; i < MR; ++i) {
      for (index_t j = 0; j < NR; ++j) acc[i][j] += a[i] * b[j];
    }
  }
  for (int q = 0; q < nd; ++q) {
    const T s = alpha * dst[q].coeff;
    T* c = dst[q].c;
    for (index_t i = 0; i < mr; ++i) {
      for (index_t j = 0; j < nr; ++j) c[i * ldc + j] += s * acc[i][j];
    }
  }
}

// Grow-on-demand thread-local packing panels (index 0 = A, 1 = B),
// shared by every packed macro loop — they never run nested, and
// thread-local storage keeps the parallel typed engine's workers from
// sharing.
template <class T>
T* packing_buffer(int which, std::size_t count) {
  thread_local AlignedPtr<T> buf[2];
  thread_local std::size_t cap[2] = {0, 0};
  if (cap[which] < count) {
    buf[which] = make_aligned<T>(count);
    cap[which] = count;
  }
  return buf[which].get();
}

}  // namespace gep::simd

// Shared register-blocked GEMM micro-kernel layer (BLIS-style).
//
// One packing format and one micro-tile shape serve both the cache-aware
// BLAS baseline (blas/dgemm.cpp macro loops) and the typed engine's
// D-kind leaf routing (simd/gemm_leaf.*): A blocks are packed into
// MR-row column panels, B blocks into NR-column row panels, both
// zero-padded to full micro-tile width so the interior micro-kernel
// never sees a fringe.
//
// Micro-tile shape: MR x NR = 6 x 8 for double (12 ymm accumulators +
// 2 B vectors + 1 broadcast = 15 of 16 registers, the AVX2 analogue of
// BLIS's haswell dgemm kernel) and 6 x 16 for float. The AVX2/FMA
// micro-kernels live in kernels_avx2.cpp behind runtime dispatch; the
// scalar reference micro-kernels below keep the identical contract for
// non-AVX2 hosts and the $GEP_FORCE_SCALAR leg.
#pragma once

#include <algorithm>
#include <cstddef>

#include "matrix/matrix.hpp"
#include "util/aligned.hpp"

namespace gep::simd {

// Micro-tile rows (shared) and columns (per element type).
inline constexpr index_t kMicroRows = 6;

template <class T>
constexpr index_t micro_cols() {
  return sizeof(T) == 4 ? 16 : 8;
}

// The (⊕, ⊗) semirings the packed micro-kernel folds besides (+, ×):
// MinPlus is Floyd-Warshall's x = min(x, u + v), MaxMin the bottleneck
// x = max(x, min(u, v)).
enum class Semiring { MinPlus, MaxMin };

// Packs an mc x kc block of row-major A (leading dimension lda) into
// kMicroRows-wide column panels: panel p0 holds rows [p0*MR, p0*MR+MR)
// laid out column-by-column, short panels zero-padded.
template <class T>
void pack_a(const T* a, index_t lda, index_t mc, index_t kc, T* dst) {
  constexpr index_t MR = kMicroRows;
  for (index_t i0 = 0; i0 < mc; i0 += MR) {
    const index_t mr = std::min(MR, mc - i0);
    for (index_t p = 0; p < kc; ++p) {
      for (index_t i = 0; i < MR; ++i) {
        *dst++ = (i < mr) ? a[(i0 + i) * lda + p] : T{};
      }
    }
  }
}

// Largest k-extent a single pack_a_scaled call accepts (= the k-chunk
// the leaf GEMM blocks by; gemm_leaf.cpp asserts it never exceeds this).
inline constexpr index_t kMaxPanelK = 256;

// pack_a with the Gaussian-elimination multiplier fold: packs
// a[i][p] * (1 / w[p][p]) (w strided by sw), so a D-kind GE leaf
// becomes the pure GEMM x -= t * v. The reciprocal is hoisted — kc
// divisions instead of the scalar kernel's mc * kc — which changes each
// multiplier by at most one ulp relative to the scalar division; the
// GE kernels are tolerance-equivalent (not bit-exact) across dispatch
// levels precisely to license this (see docs/KERNELS.md).
template <class T>
void pack_a_scaled(const T* a, index_t lda, index_t mc, index_t kc,
                   const T* w, index_t sw, T* dst) {
  constexpr index_t MR = kMicroRows;
  T inv[kMaxPanelK];
  for (index_t p = 0; p < kc; ++p) inv[p] = T{1} / w[p * sw + p];
  for (index_t i0 = 0; i0 < mc; i0 += MR) {
    const index_t mr = std::min(MR, mc - i0);
    for (index_t p = 0; p < kc; ++p) {
      const T t = inv[p];
      for (index_t i = 0; i < MR; ++i) {
        *dst++ = (i < mr) ? a[(i0 + i) * lda + p] * t : T{};
      }
    }
  }
}

// Row-chunk size for pack_b traversal: strip-outer order alone reads NR
// elements then jumps a whole row stride (TLB-miss per touch on large
// ldb), row-outer order alone scatters writes across every panel.
// Chunking kPackBRows rows and sweeping panels inside the chunk keeps
// the source slab cache-resident across panels and each panel's write
// run sequential — ~25% faster than either pure order at ldb = 1024,
// and within ~25% of this-host memcpy bandwidth (the practical floor).
inline constexpr index_t kPackBRows = 32;

// Packs a kc x nc block of row-major B (leading dimension ldb) into
// NR-column row panels, zero-padded.
template <class T>
void pack_b(const T* b, index_t ldb, index_t kc, index_t nc, T* dst) {
  constexpr index_t NR = micro_cols<T>();
  for (index_t p0 = 0; p0 < kc; p0 += kPackBRows) {
    const index_t pe = std::min(p0 + kPackBRows, kc);
    for (index_t j0 = 0; j0 < nc; j0 += NR) {
      const index_t nr = std::min(NR, nc - j0);
      T* dp = dst + (j0 / NR) * kc * NR + p0 * NR;
      if (nr == NR) {
        for (index_t p = p0; p < pe; ++p, dp += NR) {
          const T* bp = b + p * ldb + j0;
          for (index_t j = 0; j < NR; ++j) dp[j] = bp[j];
        }
      } else {
        for (index_t p = p0; p < pe; ++p, dp += NR) {
          const T* bp = b + p * ldb + j0;
          for (index_t j = 0; j < nr; ++j) dp[j] = bp[j];
          for (index_t j = nr; j < NR; ++j) dp[j] = T{};
        }
      }
    }
  }
}

// Scalar reference micro-kernel:
// c(MR x NR, row-major ldc) += alpha * packed_a(kc x MR)^T * packed_b.
// The accumulators live in a local array the compiler keeps in
// registers; `restrict` holds because packed panels never alias C.
template <class T>
void ukr_scalar(index_t kc, T alpha, const T* __restrict pa,
                const T* __restrict pb, T* __restrict c, index_t ldc) {
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
  for (index_t i = 0; i < MR; ++i) {
    for (index_t j = 0; j < NR; ++j) c[i * ldc + j] += alpha * acc[i][j];
  }
}

// Fringe micro-kernel for tiles smaller than MR x NR. The panels are
// zero-padded so the full-width accumulation is safe; only the valid
// mr x nr corner is written back. Same `restrict` contract as above —
// the packed panels are private buffers, never aliases of C.
template <class T>
void ukr_scalar_edge(index_t kc, T alpha, const T* __restrict pa,
                     const T* __restrict pb, T* __restrict c, index_t ldc,
                     index_t mr, index_t nr) {
  constexpr index_t MR = kMicroRows;
  constexpr index_t NR = micro_cols<T>();
  T acc[MR][NR] = {};
  for (index_t p = 0; p < kc; ++p) {
    const T* a = pa + p * MR;
    const T* b = pb + p * NR;
    for (index_t i = 0; i < mr; ++i) {
      for (index_t j = 0; j < nr; ++j) acc[i][j] += a[i] * b[j];
    }
  }
  for (index_t i = 0; i < mr; ++i) {
    for (index_t j = 0; j < nr; ++j) c[i * ldc + j] += alpha * acc[i][j];
  }
}

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

// --- Strassen fusion hooks -------------------------------------------------
//
// The Strassen layer (simd/strassen.*) never materializes operand sums
// like A00+A11: each of its multiplies is a packed GEMM whose A/B
// operand is a ±1 linear combination of up to kMaxGemmOperands source
// quadrants (formed on the fly while packing) and whose product is
// scattered to up to kMaxGemmOperands C quadrants with ±1 coefficients
// (applied in the micro-kernel writeback). One Strassen level reads and
// writes at most two quadrants per multiply, hence the cap.

inline constexpr int kMaxGemmOperands = 2;

// One source quadrant of a packed operand. `inv`, when non-null, points
// at per-column reciprocals (the Gaussian-elimination multiplier fold of
// pack_a_scaled, hoisted so each quadrant indexes the shared reciprocal
// vector at its own column offset); only A sources use it.
template <class T>
struct PackSrc {
  const T* p;
  T coeff;
  const T* inv;
};

// One destination quadrant of a micro-tile writeback.
template <class T>
struct GemmDest {
  T* c;
  T coeff;
};

namespace detail_pack {

// Compile-time-NS bodies: source pointers and coefficients live in
// locals (the aliasing-opaque PackSrc fields would otherwise reload
// every element), and the inv indirection is a template branch, not a
// per-element one. NS <= kMaxGemmOperands.
template <class T, int NS, bool Inv>
void pack_a_multi_fixed(const PackSrc<T>* s, index_t lda, index_t mc,
                        index_t kc, T* dst) {
  constexpr index_t MR = kMicroRows;
  const T* src[NS];
  const T* inv[NS];
  T co[NS];
  for (int q = 0; q < NS; ++q) {
    src[q] = s[q].p;
    inv[q] = s[q].inv;
    co[q] = s[q].coeff;
  }
  for (index_t i0 = 0; i0 < mc; i0 += MR) {
    const index_t mr = std::min(MR, mc - i0);
    if (mr == MR) {
      for (index_t p = 0; p < kc; ++p) {
        for (index_t i = 0; i < MR; ++i) {
          T acc{};
          for (int q = 0; q < NS; ++q) {
            T v = src[q][(i0 + i) * lda + p];
            if constexpr (Inv) v *= inv[q][p];
            acc += co[q] * v;
          }
          *dst++ = acc;
        }
      }
    } else {
      for (index_t p = 0; p < kc; ++p) {
        for (index_t i = 0; i < MR; ++i) {
          T acc{};
          if (i < mr) {
            for (int q = 0; q < NS; ++q) {
              T v = src[q][(i0 + i) * lda + p];
              if constexpr (Inv) v *= inv[q][p];
              acc += co[q] * v;
            }
          }
          *dst++ = acc;
        }
      }
    }
  }
}

// Same chunked traversal as pack_b (see kPackBRows).
template <class T, int NS>
void pack_b_multi_fixed(const PackSrc<T>* s, index_t ldb, index_t kc,
                        index_t nc, T* dst) {
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

// pack_a over a ±1 linear combination of source quadrants (all sharing
// lda). Layout is identical to pack_a, so the micro-kernels are reused
// unchanged. Sources must carry `inv` uniformly (all null or all
// non-null), which the Strassen layer guarantees.
template <class T>
void pack_a_multi(const PackSrc<T>* s, int ns, index_t lda, index_t mc,
                  index_t kc, T* dst) {
  const bool inv = s[0].inv != nullptr;
  if (ns == 1) {
    inv ? detail_pack::pack_a_multi_fixed<T, 1, true>(s, lda, mc, kc, dst)
        : detail_pack::pack_a_multi_fixed<T, 1, false>(s, lda, mc, kc, dst);
  } else {
    inv ? detail_pack::pack_a_multi_fixed<T, 2, true>(s, lda, mc, kc, dst)
        : detail_pack::pack_a_multi_fixed<T, 2, false>(s, lda, mc, kc, dst);
  }
}

// pack_b over a ±1 linear combination of source quadrants (shared ldb).
template <class T>
void pack_b_multi(const PackSrc<T>* s, int ns, index_t ldb, index_t kc,
                  index_t nc, T* dst) {
  if (ns == 1) {
    detail_pack::pack_b_multi_fixed<T, 1>(s, ldb, kc, nc, dst);
  } else {
    detail_pack::pack_b_multi_fixed<T, 2>(s, ldb, kc, nc, dst);
  }
}

// Multi-destination scalar micro-kernel: accumulates one micro-tile
// product, then streams it to every destination quadrant as
// c_q += alpha * coeff_q * acc. The single product is rounded once and
// shared, so all destinations see the identical tile.
template <class T>
void ukr_scalar_multi(index_t kc, T alpha, const T* __restrict pa,
                      const T* __restrict pb, const GemmDest<T>* dst, int nd,
                      index_t ldc) {
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
    for (index_t i = 0; i < MR; ++i) {
      for (index_t j = 0; j < NR; ++j) c[i * ldc + j] += s * acc[i][j];
    }
  }
}

template <class T>
void ukr_scalar_multi_edge(index_t kc, T alpha, const T* __restrict pa,
                           const T* __restrict pb, const GemmDest<T>* dst,
                           int nd, index_t ldc, index_t mr, index_t nr) {
  constexpr index_t MR = kMicroRows;
  constexpr index_t NR = micro_cols<T>();
  T acc[MR][NR] = {};
  for (index_t p = 0; p < kc; ++p) {
    const T* a = pa + p * MR;
    const T* b = pb + p * NR;
    for (index_t i = 0; i < mr; ++i) {
      for (index_t j = 0; j < nr; ++j) acc[i][j] += a[i] * b[j];
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
// shared by the classic leaf GEMM (gemm_leaf.cpp) and the Strassen
// macro loops (strassen.cpp) — they never run nested, and thread-local
// storage keeps the parallel typed engine's workers from sharing.
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

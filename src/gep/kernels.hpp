// Base-case kernels for the typed I-GEP engine: runtime-dispatched.
//
// The portable reference kernels live in gep::scalar (below, the
// original iterative base cases). The gep::kernel_* entry points every
// engine calls are thin wrappers around one rule (detail::packed_leaf):
// a D-kind double/float leaf — x disjoint from its inputs — at a packed
// level (Avx2 or Avx512) runs a packed BLIS-style micro-kernel of
// simd/gemm_leaf.hpp: FW/bottleneck leaves of every size the semiring
// micro-kernel, GE/LU/MM leaves of at least simd::kGemmMinM rows the
// FMA GEMM (one Strassen level from simd::kStrassenMinM up). Every other
// leaf — A/B/C boxes, small GEMM leaves, TC, FW-paths, other element
// types, non-x86 hosts, $GEP_FORCE_SCALAR=1 — runs its scalar template,
// which the native build vectorizes. See docs/KERNELS.md.
//
// Numeric contract of the dispatch (tests/test_simd_kernels.cpp):
//   - fw / bottleneck / tc: results are BIT-IDENTICAL across levels
//     (same elementwise min/max/or/add in the same k order per element,
//     same tie resolution).
//   - ge / lu / mm: the packed D-kind path uses FMA and a different
//     summation order, so those leaves are tolerance-equivalent to
//     scalar and deterministic run-to-run at a fixed dispatch level;
//     A/B/C boxes and small leaves are the scalar template at every
//     level.
//   - a guarded kernel_lu routes like the unguarded one, so guarded and
//     unguarded runs stay bit-identical on healthy input.
//
// Each scalar kernel processes one m x m tile box of updates in G's
// k/i/j order with operand hoisting: the c[i,k]-derived coefficient is
// loop-invariant in j, so the inner loop is a unit-stride vectorizable
// sweep. This is the paper's Section 4.2 recipe (iterative base case,
// divisions hoisted out of the innermost loop); `restrict` is applied
// only where the tile arguments are guaranteed disjoint (D-kind boxes).
//
// Kernel arguments follow the paper's X/U/V/W naming:
//   x — the updated tile           (c[I x J])
//   u — the coefficient tile       (c[I x K])
//   v — the row tile               (c[K x J])
//   w — the diagonal tile          (c[K x K])
// `diag_i` means I == K (updates restricted to i > k), `diag_j` means
// J == K (updates restricted to j >= k resp. j > k). Tiles are either
// identical (when ranges coincide) or disjoint; kernels are written to
// be alias-correct.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <type_traits>

#include "gep/numeric_guard.hpp"
#include "matrix/matrix.hpp"
#include "simd/dispatch.hpp"
#include "simd/gemm_leaf.hpp"

namespace gep {
namespace scalar {

// Floyd-Warshall relaxation over one box; Σ is the full cube, so the
// flags are irrelevant. Aliasing (A/B/C boxes) is benign: with a
// zero-diagonal metric, the k-row and k-column are fixed points of
// iteration k, so the hoisted u_ik stays valid across the j sweep.
template <class T>
void kernel_fw(T* x, const T* u, const T* v, index_t m, index_t sx,
               index_t su, index_t sv) {
  for (index_t k = 0; k < m; ++k) {
    const T* vk = v + k * sv;
    for (index_t i = 0; i < m; ++i) {
      const T uik = u[i * su + k];
      T* xi = x + i * sx;
      for (index_t j = 0; j < m; ++j) {
        xi[j] = std::min(xi[j], static_cast<T>(uik + vk[j]));
      }
    }
  }
}

// Gaussian elimination without pivoting (no multipliers stored):
// x[i][j] -= (u[i][k] / w[k][k]) * v[k][j] over the box, with the
// division hoisted out of the inner loop.
template <class T>
void kernel_ge(T* x, const T* u, const T* v, const T* w, index_t m,
               index_t sx, index_t su, index_t sv, index_t sw, bool diag_i,
               bool diag_j) {
  for (index_t k = 0; k < m; ++k) {
    const T wkk = w[k * sw + k];
    const T* vk = v + k * sv;
    const index_t ilo = diag_i ? k + 1 : 0;
    const index_t jlo = diag_j ? k + 1 : 0;
    for (index_t i = ilo; i < m; ++i) {
      const T t = u[i * su + k] / wkk;
      T* xi = x + i * sx;
      for (index_t j = jlo; j < m; ++j) xi[j] -= t * vk[j];
    }
  }
}

// LU decomposition without pivoting (multipliers stored in place).
// When J == K the j == k update computes the multiplier x[i][k] /= w[k][k]
// before the row sweep; when J != K the multipliers already live in u.
//
// With a pivot guard, every pivot consulted while J == K runs through
// PivotGuard::admit before the division. Boosting is only legal where
// the pivot is being CREATED — the A-kind diagonal boxes (diag_i &&
// diag_j), where w aliases the write-pinned x tile, so the boost writes
// through x and every later reader (B/C/D boxes) sees the floored
// value. k_base is the box's global elimination offset (error messages
// and reports index pivots in matrix coordinates).
template <class T>
void kernel_lu(T* x, const T* u, const T* v, const T* w, index_t m,
               index_t sx, index_t su, index_t sv, index_t sw, bool diag_i,
               bool diag_j, const PivotGuard* guard = nullptr,
               index_t k_base = 0) {
  for (index_t k = 0; k < m; ++k) {
    T wkk = w[k * sw + k];
    if (guard != nullptr && diag_j) {
      const bool boostable = diag_i;
      assert(!boostable || w == x);
      wkk = guard->admit(boostable ? &x[k * sx + k] : &wkk, k_base + k,
                         boostable);
    }
    const T* vk = v + k * sv;
    const index_t ilo = diag_i ? k + 1 : 0;
    const index_t jlo = diag_j ? k + 1 : 0;
    for (index_t i = ilo; i < m; ++i) {
      T* xi = x + i * sx;
      T uik;
      if (diag_j) {
        xi[k] /= wkk;  // <i,k,k>: store multiplier (x aliases u here)
        uik = xi[k];
      } else {
        uik = u[i * su + k];
      }
      for (index_t j = jlo; j < m; ++j) xi[j] -= uik * vk[j];
    }
  }
}

// Floyd-Warshall relaxation with successor tracking: whenever a strict
// improvement x[i][j] > u[i][k] + v[k][j] is applied, the successor of
// (i,j) becomes the successor of (i,k) — the first hop of the improving
// path. The successor tiles alias exactly as the distance tiles do, so
// the state a successor is read in always matches the state of its
// distance (both matrices advance in lockstep).
template <class T, class I>
void kernel_fw_paths(T* x, const T* u, const T* v, I* sx_succ,
                     const I* su_succ, index_t m, index_t sx, index_t su,
                     index_t sv, index_t ssx, index_t ssu) {
  for (index_t k = 0; k < m; ++k) {
    const T* vk = v + k * sv;
    for (index_t i = 0; i < m; ++i) {
      const T uik = u[i * su + k];
      const I sik = su_succ[i * ssu + k];
      T* xi = x + i * sx;
      I* si = sx_succ + i * ssx;
      for (index_t j = 0; j < m; ++j) {
        const T cand = uik + vk[j];
        if (cand < xi[j]) {
          xi[j] = cand;
          si[j] = sik;
        }
      }
    }
  }
}

// Maximum-capacity (bottleneck) paths over the (max, min) semiring:
// x[i][j] = max(x[i][j], min(u[i][k], v[k][j])). Idempotent like min-plus,
// so it is an I-GEP-legal instance; the aliasing argument mirrors
// kernel_fw (the diagonal is +infinity capacity, a fixed point).
template <class T>
void kernel_bottleneck(T* x, const T* u, const T* v, index_t m, index_t sx,
                       index_t su, index_t sv) {
  for (index_t k = 0; k < m; ++k) {
    const T* vk = v + k * sv;
    for (index_t i = 0; i < m; ++i) {
      const T uik = u[i * su + k];
      T* xi = x + i * sx;
      for (index_t j = 0; j < m; ++j) {
        xi[j] = std::max(xi[j], std::min(uik, vk[j]));
      }
    }
  }
}

// Transitive closure over the boolean or-and semiring:
// x[i][j] |= u[i][k] & v[k][j]. The u[i][k] test hoists to a row skip —
// and stays valid under aliasing, because the j == k update
// x[i][k] |= x[i][k] & w never changes x[i][k].
template <class T>
void kernel_tc(T* x, const T* u, const T* v, index_t m, index_t sx,
               index_t su, index_t sv) {
  for (index_t k = 0; k < m; ++k) {
    const T* vk = v + k * sv;
    for (index_t i = 0; i < m; ++i) {
      if (!u[i * su + k]) continue;
      T* xi = x + i * sx;
      for (index_t j = 0; j < m; ++j) {
        xi[j] = static_cast<T>(xi[j] | vk[j]);
      }
    }
  }
}

// Matrix multiplication accumulate: x += u * v. Only ever called on
// disjoint tiles, so restrict is sound and the compiler can vectorize
// and unroll freely.
template <class T>
void kernel_mm(T* __restrict x, const T* __restrict u, const T* __restrict v,
               index_t m, index_t sx, index_t su, index_t sv) {
  for (index_t k = 0; k < m; ++k) {
    const T* vk = v + k * sv;
    for (index_t i = 0; i < m; ++i) {
      const T uik = u[i * su + k];
      T* xi = x + i * sx;
      for (index_t j = 0; j < m; ++j) xi[j] += uik * vk[j];
    }
  }
}

}  // namespace scalar

namespace detail {

// True for element types with a packed micro-kernel.
template <class T>
inline constexpr bool simd_vec_type =
    std::is_same_v<T, double> || std::is_same_v<T, float>;

// True when the m x m tiles at a (row stride sa) and b (row stride sb)
// share an element; O(m), for debug assertions. Row i of b can only
// meet the two rows of a nearest at or below its start, r0 and r0 + 1.
template <class T>
bool tiles_overlap(const T* a, index_t sa, const T* b, index_t sb,
                   index_t m) {
  for (index_t i = 0; i < m; ++i) {
    const T* row = b + i * sb;
    const std::ptrdiff_t d = row - a;
    const index_t r0 = d >= 0 ? d / sa : -((sa - 1 - d) / sa);  // floor
    for (index_t r = std::max<index_t>(r0, 0); r <= std::min(r0 + 1, m - 1);
         ++r) {
      if (row < a + r * sa + m && a + r * sa < row + m) return true;
    }
  }
  return false;
}

// The one SIMD rule for leaves: a double/float leaf whose x tile is
// disjoint from u and v (`d_kind`, decided by the caller) at a packed
// level (Avx2 or Avx512) runs packed(x) — a packed micro-kernel — ticks
// that level's kernels.dispatch counter and returns true. Every other
// leaf ticks kernels.dispatch.scalar and returns false, and the caller
// runs its scalar template. `packed` is a generic lambda, so its body
// is only instantiated for the element types that reach it. Tiles are
// either identical or disjoint, which the assertion checks.
template <class T, class Packed>
bool packed_leaf([[maybe_unused]] bool d_kind, [[maybe_unused]] T* x,
                 [[maybe_unused]] const T* u, [[maybe_unused]] const T* v,
                 [[maybe_unused]] index_t m, [[maybe_unused]] index_t sx,
                 [[maybe_unused]] index_t su, [[maybe_unused]] index_t sv,
                 [[maybe_unused]] Packed&& packed) {
  if constexpr (GEP_SIMD_X86 && simd_vec_type<T>) {
    const simd::Level level = simd::active();
    if (d_kind && level != simd::Level::Scalar) {
      assert(!tiles_overlap(x, sx, u, su, m) &&
             !tiles_overlap(x, sx, v, sv, m));
      simd::note_leaf(level);
      packed(x);
      return true;
    }
  }
  simd::note_leaf(simd::Level::Scalar);
  return false;
}

}  // namespace detail

// --- dispatch wrappers (the names every engine calls) ----------------------
//
// FW/bottleneck leaves have no diag flags: a leaf is D-kind when x is
// neither u nor v. GE/LU leaves are D-kind when neither flag is set, and
// MM leaves always are; both take the packed GEMM from kGemmMinM rows.

template <class T>
void kernel_fw(T* x, const T* u, const T* v, index_t m, index_t sx,
               index_t su, index_t sv) {
  if (!detail::packed_leaf(x != u && x != v, x, u, v, m, sx, su, sv,
                           [&](auto* px) {
                             simd::semiring_tile(simd::Semiring::MinPlus, px,
                                                 u, v, m, sx, su, sv);
                           })) {
    scalar::kernel_fw(x, u, v, m, sx, su, sv);
  }
}

template <class T>
void kernel_bottleneck(T* x, const T* u, const T* v, index_t m, index_t sx,
                       index_t su, index_t sv) {
  if (!detail::packed_leaf(x != u && x != v, x, u, v, m, sx, su, sv,
                           [&](auto* px) {
                             simd::semiring_tile(simd::Semiring::MaxMin, px,
                                                 u, v, m, sx, su, sv);
                           })) {
    scalar::kernel_bottleneck(x, u, v, m, sx, su, sv);
  }
}

template <class T>
void kernel_ge(T* x, const T* u, const T* v, const T* w, index_t m,
               index_t sx, index_t su, index_t sv, index_t sw, bool diag_i,
               bool diag_j) {
  // D-kind: the division folds into A-packing, the leaf runs as a GEMM.
  if (!detail::packed_leaf(
          !diag_i && !diag_j && m >= simd::kGemmMinM, x, u, v, m, sx, su, sv,
          [&](auto* px) {
            simd::gemm_tile_scaled(px, u, v, w, m, sx, su, sv, sw);
          })) {
    scalar::kernel_ge(x, u, v, w, m, sx, su, sv, sw, diag_i, diag_j);
  }
}

// D-kind LU leaves never consult the guard (diag_j is false), so guarded
// and unguarded runs route identically.
template <class T>
void kernel_lu(T* x, const T* u, const T* v, const T* w, index_t m,
               index_t sx, index_t su, index_t sv, index_t sw, bool diag_i,
               bool diag_j, const PivotGuard* guard = nullptr,
               index_t k_base = 0) {
  // D-kind: the multipliers already live in u — a pure Schur GEMM.
  if (!detail::packed_leaf(
          !diag_i && !diag_j && m >= simd::kGemmMinM, x, u, v, m, sx, su, sv,
          [&](auto* px) {
            simd::gemm_tile(px, u, v, m, sx, su, sv, T{-1});
          })) {
    scalar::kernel_lu(x, u, v, w, m, sx, su, sv, sw, diag_i, diag_j, guard,
                      k_base);
  }
}

template <class T>
void kernel_mm(T* x, const T* u, const T* v, index_t m, index_t sx,
               index_t su, index_t sv) {
  if (!detail::packed_leaf(m >= simd::kGemmMinM, x, u, v, m, sx, su, sv,
                           [&](auto* px) {
                             simd::gemm_tile(px, u, v, m, sx, su, sv, T{1});
                           })) {
    scalar::kernel_mm(x, u, v, m, sx, su, sv);
  }
}

// TC's byte sweep and FW-paths' branchy successor stores have no packed
// kernel: the scalar template runs at every dispatch level.
template <class T>
void kernel_tc(T* x, const T* u, const T* v, index_t m, index_t sx,
               index_t su, index_t sv) {
  simd::note_leaf(simd::Level::Scalar);
  scalar::kernel_tc(x, u, v, m, sx, su, sv);
}

template <class T, class I>
void kernel_fw_paths(T* x, const T* u, const T* v, I* sx_succ,
                     const I* su_succ, index_t m, index_t sx, index_t su,
                     index_t sv, index_t ssx, index_t ssu) {
  simd::note_leaf(simd::Level::Scalar);
  scalar::kernel_fw_paths(x, u, v, sx_succ, su_succ, m, sx, su, sv, ssx,
                          ssu);
}

}  // namespace gep

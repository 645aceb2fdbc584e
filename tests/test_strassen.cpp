// Strassen-fused packed GEMM (simd/strassen.*): numerics of direct
// strassen_gemm calls against the classic path (blas::dgemm_blocked)
// and a naive reference, the constant crossover and fallback contract,
// determinism, the scaled GE form, and the typed engine's
// Strassen-eligible D-kind leaves gated by Freivalds / residual
// certificates.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "apps/apps.hpp"
#include "blas/blas.hpp"
#include "gep/numeric_guard.hpp"
#include "obs/registry.hpp"
#include "simd/dispatch.hpp"
#include "simd/gemm_leaf.hpp"
#include "simd/strassen.hpp"
#include "util/prng.hpp"

namespace gep {
namespace {

std::vector<double> random_buf(index_t count, std::uint64_t seed) {
  SplitMix64 g(seed);
  std::vector<double> v(static_cast<std::size_t>(count));
  for (auto& x : v) x = g.uniform(-1.0, 1.0);
  return v;
}

// Reference c += alpha * a * b, plain triple loop.
void naive_gemm(index_t m, index_t n, index_t k, double alpha,
                const double* a, index_t lda, const double* b, index_t ldb,
                double* c, index_t ldc) {
  for (index_t i = 0; i < m; ++i) {
    for (index_t p = 0; p < k; ++p) {
      const double aip = alpha * a[i * lda + p];
      for (index_t j = 0; j < n; ++j) {
        c[i * ldc + j] += aip * b[p * ldb + j];
      }
    }
  }
}

double max_abs_diff(const std::vector<double>& x,
                    const std::vector<double>& y) {
  double e = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    e = std::max(e, std::abs(x[i] - y[i]));
  }
  return e;
}

bool bitwise_equal(const std::vector<double>& x,
                   const std::vector<double>& y) {
  return std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

Matrix<double> dd_matrix(index_t n, std::uint64_t seed) {
  SplitMix64 g(seed);
  Matrix<double> m(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) m(i, j) = g.uniform(0.5, 1.5);
    m(i, i) += static_cast<double>(n);
  }
  return m;
}

// The classic packed path with its default blocking.
void classic_gemm(index_t m, index_t n, index_t k, double alpha,
                  const double* a, index_t lda, const double* b, index_t ldb,
                  double* c, index_t ldc) {
  blas::dgemm_blocked(m, n, k, alpha, a, lda, b, ldb, c, ldc,
                      blas::GemmBlocking{});
}

// The crossover is measured on the dev/CI host (bench_kernels
// --tune-strassen); pin it and the operand cap of one level so a silent
// change shows up as a test edit.
TEST(Strassen, PinnedDefaults) {
  EXPECT_EQ(simd::kStrassenMinM, 896);
  EXPECT_EQ(simd::kMaxGemmOperands, 2);
}

// Routing engages from min(m, n, k) >= kStrassenMinM up, on every axis.
TEST(Strassen, EngagesFromCrossover) {
  const index_t t = simd::kStrassenMinM;
  EXPECT_TRUE(simd::strassen_engages(t, t, t));
  EXPECT_TRUE(simd::strassen_engages(4096, t, 2 * t));
  EXPECT_FALSE(simd::strassen_engages(t - 1, t, t));
  EXPECT_FALSE(simd::strassen_engages(t, t - 1, t));
  EXPECT_FALSE(simd::strassen_engages(t, t, t - 1));
  EXPECT_FALSE(simd::strassen_engages(0, 4096, 4096));
}

// Forward error vs the naive reference and the classic path across
// square, non-square, odd (dynamic peeling), and micro-tile-fringe
// shapes.
TEST(Strassen, ForwardErrorVsClassic) {
  struct Shape {
    index_t m, n, k;
  };
  const Shape shapes[] = {{64, 64, 64},  {96, 96, 96},   {97, 97, 97},
                          {64, 80, 48},  {33, 65, 129},  {128, 37, 90},
                          {130, 130, 62}, {385, 390, 401}};
  for (const Shape& s : shapes) {
    auto a = random_buf(s.m * s.k, 101), b = random_buf(s.k * s.n, 102);
    auto ref = random_buf(s.m * s.n, 103);
    auto classic = ref;
    auto got = ref;
    naive_gemm(s.m, s.n, s.k, 0.5, a.data(), s.k, b.data(), s.n, ref.data(),
               s.n);
    classic_gemm(s.m, s.n, s.k, 0.5, a.data(), s.k, b.data(), s.n,
                 classic.data(), s.n);
    simd::strassen_gemm(s.m, s.n, s.k, 0.5, a.data(), s.k, b.data(), s.n,
                        got.data(), s.n);
    // Strassen inflates the classic O(k eps) bound by a constant; these
    // shapes with |a|,|b| <= 1 stay comfortably inside.
    EXPECT_LT(max_abs_diff(ref, got), 1e-11)
        << "m=" << s.m << " n=" << s.n << " k=" << s.k;
    EXPECT_LT(max_abs_diff(classic, got), 1e-11)
        << "m=" << s.m << " n=" << s.n << " k=" << s.k;
  }
}

// Operands and destination as submatrix views of larger parents (the
// shape every D-kind leaf call has): entries outside the C view must
// stay untouched.
TEST(Strassen, SubmatrixViewsLeaveSurroundingsAlone) {
  const index_t ld = 300, m = 128, n = 96, k = 112;
  auto parent_a = random_buf(ld * ld, 201);
  auto parent_b = random_buf(ld * ld, 202);
  auto parent_c = random_buf(ld * ld, 203);
  auto ref_c = parent_c;
  const index_t ao = 3 * ld + 17, bo = 41 * ld + 5, co = 11 * ld + 99;
  naive_gemm(m, n, k, 1.0, parent_a.data() + ao, ld, parent_b.data() + bo, ld,
             ref_c.data() + co, ld);
  simd::strassen_gemm(m, n, k, 1.0, parent_a.data() + ao, ld,
                      parent_b.data() + bo, ld, parent_c.data() + co, ld);
  double err = 0;
  index_t outside_diffs = 0;
  for (index_t i = 0; i < ld; ++i) {
    for (index_t j = 0; j < ld; ++j) {
      const std::size_t at = static_cast<std::size_t>(i * ld + j);
      const index_t ci = i - co / ld, cj = j - co % ld;
      const bool inside = ci >= 0 && ci < m && cj >= 0 && cj < n;
      if (inside) {
        err = std::max(err, std::abs(parent_c[at] - ref_c[at]));
      } else if (parent_c[at] != ref_c[at]) {
        ++outside_diffs;
      }
    }
  }
  EXPECT_LT(err, 1e-11);
  EXPECT_EQ(outside_diffs, 0);
}

TEST(Strassen, DeterministicRunToRun) {
  const index_t m = 97, n = 120, k = 64;
  auto a = random_buf(m * k, 301), b = random_buf(k * n, 302);
  auto c1 = random_buf(m * n, 303);
  auto c2 = c1;
  simd::strassen_gemm(m, n, k, 1.0, a.data(), k, b.data(), n, c1.data(), n);
  simd::strassen_gemm(m, n, k, 1.0, a.data(), k, b.data(), n, c2.data(), n);
  EXPECT_TRUE(bitwise_equal(c1, c2));
}

// Below the crossover blas::dgemm is the classic path bit for bit; from
// it up, it is strassen_gemm bit for bit.
TEST(Strassen, SubThresholdFallsBackBitIdentically) {
  for (index_t n : {index_t{96}, simd::kStrassenMinM - 1,
                    simd::kStrassenMinM}) {
    auto a = random_buf(n * n, 401), b = random_buf(n * n, 402);
    auto c0 = random_buf(n * n, 403);
    auto expect = c0;
    if (n < simd::kStrassenMinM) {
      classic_gemm(n, n, n, 1.0, a.data(), n, b.data(), n, expect.data(), n);
    } else {
      simd::strassen_gemm(n, n, n, 1.0, a.data(), n, b.data(), n,
                          expect.data(), n);
    }
    auto got = c0;
    blas::dgemm(n, n, n, 1.0, a.data(), n, b.data(), n, got.data(), n);
    EXPECT_TRUE(bitwise_equal(got, expect)) << "n=" << n;
  }
}

// The scalar micro-kernel leg (the $GEP_FORCE_SCALAR CI lane) must run
// the same fused level within tolerance of the dispatched one.
TEST(Strassen, ScalarFallbackEquivalence) {
  const index_t m = 96, n = 104, k = 80;
  auto a = random_buf(m * k, 501), b = random_buf(k * n, 502);
  auto ref = random_buf(m * n, 503);
  auto scalar_c = ref;
  naive_gemm(m, n, k, 1.0, a.data(), k, b.data(), n, ref.data(), n);
  simd::force_level(simd::Level::Scalar);
  simd::strassen_gemm(m, n, k, 1.0, a.data(), k, b.data(), n, scalar_c.data(),
                      n);
  simd::clear_forced_level();
  EXPECT_LT(max_abs_diff(ref, scalar_c), 1e-11);
  auto active_c = random_buf(m * n, 503);
  simd::strassen_gemm(m, n, k, 1.0, a.data(), k, b.data(), n,
                      active_c.data(), n);
  EXPECT_LT(max_abs_diff(scalar_c, active_c), 1e-11);
}

// Scaled GE form: x -= (u * diag(w)^-1) * v with the hoisted
// reciprocals, against a scalar reference using the identical rounding
// (multiply by 1/w, not divide).
TEST(Strassen, ScaledGePathMatchesReference) {
  const index_t m = 96;
  auto u = random_buf(m * m, 601), v = random_buf(m * m, 602);
  Matrix<double> w = dd_matrix(m, 603);
  auto ref = random_buf(m * m, 604);
  auto got = ref;
  std::vector<double> inv(static_cast<std::size_t>(m));
  for (index_t p = 0; p < m; ++p) inv[p] = 1.0 / w(p, p);
  for (index_t i = 0; i < m; ++i) {
    for (index_t p = 0; p < m; ++p) {
      const double t = u[i * m + p] * inv[p];
      for (index_t j = 0; j < m; ++j) ref[i * m + j] -= t * v[p * m + j];
    }
  }
  simd::strassen_gemm_scaled(got.data(), u.data(), v.data(), w.data(), m, m,
                             m, m, m);
  EXPECT_LT(max_abs_diff(ref, got), 1e-11);
}

// gemm_tile (the typed engine's MM/D-kind route) runs the Strassen
// level from the crossover up.
TEST(Strassen, GemmTileRoutesThroughStrassen) {
  const index_t m = simd::kStrassenMinM;
  auto u = random_buf(m * m, 701), v = random_buf(m * m, 702);
  auto ref = random_buf(m * m, 703);
  auto direct = ref;
  auto got = ref;
  naive_gemm(m, m, m, -1.0, u.data(), m, v.data(), m, ref.data(), m);
  simd::strassen_gemm(m, m, m, -1.0, u.data(), m, v.data(), m, direct.data(),
                      m);
  const std::uint64_t calls_before =
      obs::counter("kernels.strassen.calls").value();
  simd::gemm_tile(got.data(), u.data(), v.data(), m, m, m, m, -1.0);
  if (obs::kEnabled) {
    EXPECT_EQ(obs::counter("kernels.strassen.calls").value(),
              calls_before + 1);
  }
  EXPECT_TRUE(bitwise_equal(direct, got));
  EXPECT_LT(max_abs_diff(ref, got), 1e-11);
}

// Both packed levels pack one format and run one per-element FMA chain,
// so every Strassen entry point is bit-identical between forced Avx2
// and Avx512: odd extents (dynamic peeling), the scaled GE form, and
// gemm_tile routed through the level.
TEST(Strassen, BitIdenticalAcrossPackedLevels) {
  if (!simd::level_available(simd::Level::Avx512)) {
    GTEST_SKIP() << "host has no AVX-512F (+ OS zmm state)";
  }
  if (simd::forced_scalar_env()) {
    GTEST_SKIP() << "GEP_FORCE_SCALAR pins dispatch";
  }
  auto both = [](const std::vector<double>& init, auto&& run) {
    std::vector<double> v2 = init, v5 = init;
    simd::force_level(simd::Level::Avx2);
    run(v2.data());
    simd::force_level(simd::Level::Avx512);
    run(v5.data());
    simd::clear_forced_level();
    return bitwise_equal(v2, v5);
  };
  const index_t m = 97, n = 130, k = 75;
  auto a = random_buf(m * k, 1001), b = random_buf(k * n, 1002);
  EXPECT_TRUE(both(random_buf(m * n, 1003), [&](double* c) {
    simd::strassen_gemm(m, n, k, -0.5, a.data(), k, b.data(), n, c, n);
  }));
  const index_t e = 96;
  auto u = random_buf(e * e, 1004), v = random_buf(e * e, 1005);
  Matrix<double> w = dd_matrix(e, 1006);
  EXPECT_TRUE(both(random_buf(e * e, 1007), [&](double* x) {
    simd::strassen_gemm_scaled(x, u.data(), v.data(), w.data(), e, e, e, e,
                               e);
  }));
  const index_t t = simd::kStrassenMinM;
  auto ut = random_buf(t * t, 1008), vt = random_buf(t * t, 1009);
  EXPECT_TRUE(both(random_buf(t * t, 1010), [&](double* x) {
    simd::gemm_tile(x, ut.data(), vt.data(), t, t, t, t, 1.0);
  }));
}

TEST(Strassen, FallbackCounterTracksDeclines) {
  if (!obs::kEnabled) GTEST_SKIP() << "GEP_OBS disabled";
  const index_t n = 32;
  auto a = random_buf(n * n, 801), b = random_buf(n * n, 802),
       c = random_buf(n * n, 803);
  const std::uint64_t calls =
      obs::counter("kernels.strassen.calls").value();
  const std::uint64_t before =
      obs::counter("kernels.strassen.fallbacks").value();
  blas::dgemm(n, n, n, 1.0, a.data(), n, b.data(), n, c.data(), n);
  EXPECT_EQ(obs::counter("kernels.strassen.fallbacks").value(), before + 1);
  EXPECT_EQ(obs::counter("kernels.strassen.calls").value(), calls);
}

// End-to-end gates: typed I-GEP with Strassen D-kind leaves must still
// pass the randomized product / residual certificates. A base size of
// 1024 clears kStrassenMinM, and the engagement counter proves the fast
// path actually ran.
TEST(Strassen, TypedMatmulWithStrassenLeavesPassesFreivalds) {
  const index_t n = 2048, base = 1024;
  static_assert(1024 >= simd::kStrassenMinM);
  Matrix<double> a(n, n), b(n, n);
  SplitMix64 g(901);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      a(i, j) = g.uniform(-1.0, 1.0);
      b(i, j) = g.uniform(-1.0, 1.0);
    }
  }
  Matrix<double> before(n, n, 0.25), c = before;
  const std::uint64_t calls_before =
      obs::counter("kernels.strassen.calls").value();
  apps::multiply_add(c, a, b, apps::Engine::IGep, {base, 1});
  if (obs::kEnabled && simd::active() != simd::Level::Scalar) {
    EXPECT_GT(obs::counter("kernels.strassen.calls").value(), calls_before);
  }
  EXPECT_TRUE(apps::freivalds_check(c, before, a, b));
}

TEST(Strassen, TypedLuWithStrassenLeavesPassesResidual) {
  const index_t n = 2048, base = 1024;
  const Matrix<double> a = dd_matrix(n, 902);
  Matrix<double> lu = a;
  const std::uint64_t calls_before =
      obs::counter("kernels.strassen.calls").value();
  apps::lu_decompose(lu, apps::Engine::IGep, {base, 1});
  if (obs::kEnabled && simd::active() != simd::Level::Scalar) {
    EXPECT_GT(obs::counter("kernels.strassen.calls").value(), calls_before);
  }
  EXPECT_LT(lu_residual_sample(a, lu, 16), 1e-9);
  // And against the classic-leaf factorization (base 64), elementwise.
  Matrix<double> lu_classic = a;
  apps::lu_decompose(lu_classic, apps::Engine::IGep, {64, 1});
  double err = 0;
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      err = std::max(err, std::abs(lu(i, j) - lu_classic(i, j)));
    }
  }
  EXPECT_LT(err, 1e-8);
}

}  // namespace
}  // namespace gep

// SIMD-vs-scalar contract of the dispatched base-case kernels.
//
// One rule routes leaves (detail::packed_leaf in gep/kernels.hpp): at
// a packed level (Avx2 or Avx512) a D-kind double/float leaf runs a
// packed micro-kernel, every other leaf its scalar template. So
// semiring kernels (fw, bottleneck, tc) are BIT-EXACT against the
// scalar templates at every level; aliased A/B/C-kind GE/LU boxes and
// leaves below kGemmMinM are bit-exact too (they ARE the scalar
// template), while D-kind GE/LU/MM leaves on the packed FMA GEMM agree
// within tolerance and are deterministic run-to-run. The two packed levels share one packed
// format and one per-element FMA chain, so every packed result is
// bit-identical between Avx2 and Avx512. A guarded LU must be
// bit-identical to the unguarded one on healthy input, per level.
//
// Every kernel is compared through the gep::kernel_* wrappers at a
// forced dispatch level, so the tests exercise the real routing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "apps/apps.hpp"
#include "blas/blas.hpp"
#include "extmem/ooc_matrix.hpp"
#include "extmem/ooc_typed.hpp"
#include "gep/kernels.hpp"
#include "gep/numeric_guard.hpp"
#include "gep/typed.hpp"
#include "obs/registry.hpp"
#include "parallel/task_graph.hpp"
#include "parallel/work_stealing.hpp"
#include "simd/dispatch.hpp"
#include "simd/gemm_leaf.hpp"
#include "simd/strassen.hpp"
#include "util/prng.hpp"

namespace gep {
namespace {

// Sizes chosen to hit every fringe case: below/at/above vector width,
// below/at/above the packed-GEMM threshold, and micro-tile remainders
// of the 8 x 16 tile (and of the 4 x 8 AVX2 quarter tiles: 12, 20, 36).
const index_t kSizes[] = {1,  2,  3,  5,  7,  8,  12, 15, 16, 17,
                          20, 24, 31, 33, 36, 40, 64, 65, 96, 100};

std::vector<double> random_tile(index_t m, index_t stride, std::uint64_t seed,
                                double lo, double hi) {
  SplitMix64 g(seed);
  std::vector<double> t(static_cast<std::size_t>(m * stride), 0.0);
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j < m; ++j) t[static_cast<std::size_t>(i * stride + j)] = g.uniform(lo, hi);
  return t;
}

// Diagonally-dominant tile: well away from pivot breakdown so guarded
// and unguarded LU agree and no division amplifies the comparison.
std::vector<double> dominant_tile(index_t m, index_t stride,
                                  std::uint64_t seed) {
  auto t = random_tile(m, stride, seed, -1.0, 1.0);
  for (index_t i = 0; i < m; ++i)
    t[static_cast<std::size_t>(i * stride + i)] =
        2.0 + 0.25 * static_cast<double>(i % 7);
  return t;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  double d = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    d = std::max(d, std::abs(a[i] - b[i]));
  return d;
}

// Forces a dispatch level for the test body, restores CPUID selection
// after. Skips packed-comparison tests when the host can't run the
// level or the process is pinned scalar via $GEP_FORCE_SCALAR (the CI
// fallback leg still runs the dispatch-semantics tests below).
class SimdKernels : public ::testing::Test {
 protected:
  void TearDown() override { simd::clear_forced_level(); }
};

// Must be a macro: GTEST_SKIP() returns only from the enclosing
// function, so a helper would skip itself and let the test run on.
#define REQUIRE_LEVEL(level, why)                               \
  do {                                                          \
    if (!simd::level_available(level)) GTEST_SKIP() << why;     \
    if (simd::forced_scalar_env())                              \
      GTEST_SKIP() << "GEP_FORCE_SCALAR pins dispatch";         \
  } while (0)
#define REQUIRE_AVX2() REQUIRE_LEVEL(simd::Level::Avx2, "host has no AVX2+FMA")
#define REQUIRE_AVX512() \
  REQUIRE_LEVEL(simd::Level::Avx512, "host has no AVX-512F (+ OS zmm state)")

// The packed levels this host runs, lowest first.
std::vector<simd::Level> packed_levels() {
  std::vector<simd::Level> out;
  for (simd::Level l : {simd::Level::Avx2, simd::Level::Avx512}) {
    if (simd::level_available(l)) out.push_back(l);
  }
  return out;
}

obs::Counter dispatch_counter(simd::Level l) {
  return obs::counter(std::string("kernels.dispatch.") + simd::level_name(l));
}

// --- dispatch semantics ----------------------------------------------------

TEST_F(SimdKernels, EnvForcedScalarAlwaysWins) {
  if (simd::forced_scalar_env()) {
    simd::force_level(simd::Level::Avx2);
    EXPECT_EQ(simd::active(), simd::Level::Scalar);
    EXPECT_STREQ(simd::active_name(), "scalar");
  } else {
    // Without the env pin, active() follows the override / detection.
    simd::force_level(simd::Level::Scalar);
    EXPECT_EQ(simd::active(), simd::Level::Scalar);
    // Without a pin, detection selects the highest level the host runs.
    simd::clear_forced_level();
    const simd::Level a = simd::active();
    EXPECT_TRUE(simd::level_available(a));
    if (a != simd::Level::Avx512) {
      EXPECT_FALSE(simd::level_available(
          static_cast<simd::Level>(static_cast<int>(a) + 1)));
    }
  }
}

// Forcing a level selects it when the host runs it, else the highest
// level below it that the host runs.
TEST_F(SimdKernels, ForcingAvx2IsClampedToCapability) {
  if (simd::forced_scalar_env()) GTEST_SKIP() << "env pins scalar";
  const bool avx2 = simd::level_available(simd::Level::Avx2);
  const bool avx512 = simd::level_available(simd::Level::Avx512);
  EXPECT_TRUE(!avx512 || avx2) << "Avx512 implies Avx2";
  simd::force_level(simd::Level::Avx2);
  EXPECT_EQ(simd::active(), avx2 ? simd::Level::Avx2 : simd::Level::Scalar);
  simd::force_level(simd::Level::Avx512);
  EXPECT_EQ(simd::active(), avx512 ? simd::Level::Avx512
                            : avx2 ? simd::Level::Avx2
                                   : simd::Level::Scalar);
  EXPECT_STREQ(simd::level_name(simd::Level::Avx512), "avx512");
}

// Each packed leaf ticks the counter of the level that ran, and only
// that one.
TEST_F(SimdKernels, DispatchCountersTick) {
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  REQUIRE_AVX2();
  obs::Counter scalar = dispatch_counter(simd::Level::Scalar);
  const index_t m = simd::kGemmMinM;
  auto x = random_tile(m, m, 1, -1, 1);
  auto u = random_tile(m, m, 2, -1, 1);
  auto v = random_tile(m, m, 3, -1, 1);

  for (simd::Level level : packed_levels()) {
    obs::Counter ran = dispatch_counter(level);
    obs::Counter other = dispatch_counter(level == simd::Level::Avx2
                                              ? simd::Level::Avx512
                                              : simd::Level::Avx2);
    simd::force_level(level);
    const std::uint64_t a0 = ran.value(), o0 = other.value();
    kernel_mm(x.data(), u.data(), v.data(), m, m, m, m);
    kernel_fw(x.data(), u.data(), v.data(), m, m, m, m);
    EXPECT_EQ(ran.value(), a0 + 2) << simd::level_name(level);
    EXPECT_EQ(other.value(), o0) << simd::level_name(level);

    // Below the packed-GEMM threshold the leaf is the scalar template at
    // a packed level too, and ticks the scalar counter.
    const std::uint64_t s0 = scalar.value();
    kernel_mm(x.data(), u.data(), v.data(), m - 1, m, m, m);
    EXPECT_EQ(scalar.value(), s0 + 1);
    EXPECT_EQ(ran.value(), a0 + 2);
  }

  simd::force_level(simd::Level::Scalar);
  const std::uint64_t s0 = scalar.value();
  kernel_mm(x.data(), u.data(), v.data(), m, m, m, m);
  EXPECT_EQ(scalar.value(), s0 + 1);
}

// --- semiring kernels: bit-exact -------------------------------------------
//
// At a forced packed level the dispatched kernel_fw / kernel_bottleneck
// route a disjoint (D-kind) tile through the packed semiring
// micro-kernel. It must reproduce the scalar template bit for bit on
// every fringe shape,
// at contiguous, padded and power-of-two strides, and on the values
// where operand order shows: exact ties, ±0.0, +inf and NaN.

// Small integers (so sums tie exactly) salted with ±0.0, +inf and NaN;
// the stride padding stays 0.
template <class T>
std::vector<T> adversarial_tile(index_t m, index_t stride,
                                std::uint64_t seed) {
  SplitMix64 g(seed);
  std::vector<T> t(static_cast<std::size_t>(m * stride), T{});
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < m; ++j) {
      const std::uint64_t r = g.next() % 16;
      T val = static_cast<T>(r % 5);
      if (r == 0) val = -T{0};
      if (r == 2) val = std::numeric_limits<T>::infinity();
      if (r == 3) val = std::numeric_limits<T>::quiet_NaN();
      t[static_cast<std::size_t>(i * stride + j)] = val;
    }
  }
  return t;
}

template <class T, class Dispatched, class Reference>
void expect_semiring_bit_exact(simd::Level level, const char* name,
                               Dispatched dispatched, Reference reference) {
  obs::Counter packed = dispatch_counter(level);
  for (index_t m : kSizes) {
    for (index_t stride : {m, m + 3, index_t{2048}}) {
      const auto seed = static_cast<std::uint64_t>(100 * m + stride);
      auto u = adversarial_tile<T>(m, stride, seed);
      auto v = adversarial_tile<T>(m, stride, seed + 1);
      auto x_s = adversarial_tile<T>(m, stride, seed + 2);
      auto x_v = x_s;
      reference(x_s.data(), u.data(), v.data(), m, stride, stride, stride);
      simd::force_level(level);
      const std::uint64_t a0 = packed.value();
      dispatched(x_v.data(), u.data(), v.data(), m, stride, stride, stride);
      if (obs::kEnabled) {
        EXPECT_EQ(packed.value(), a0 + 1) << name;
      }
      simd::clear_forced_level();
      EXPECT_EQ(0, std::memcmp(x_s.data(), x_v.data(), x_s.size() * sizeof(T)))
          << name << " level=" << simd::level_name(level)
          << " sizeof(T)=" << sizeof(T) << " m=" << m << " s=" << stride;
    }
  }
}

TEST_F(SimdKernels, FloydWarshallBitExact) {
  REQUIRE_AVX2();
  auto dispatched = [](auto... a) { kernel_fw(a...); };
  auto reference = [](auto... a) { scalar::kernel_fw(a...); };
  const simd::Level l = simd::Level::Avx2;
  expect_semiring_bit_exact<double>(l, "fw", dispatched, reference);
  expect_semiring_bit_exact<float>(l, "fw", dispatched, reference);
}

// Aliased boxes (x is u and/or v) must not take the packed route, which
// reads u and v as they stood before the leaf: A-kind (x = u = v), B-kind
// (x = v) and C-kind (x = u) match the scalar template at every forced
// packed level.
TEST_F(SimdKernels, FloydWarshallBitExactAliasedAKind) {
  REQUIRE_AVX2();
  for (simd::Level level : packed_levels()) {
    for (index_t m : {5, 16, 33, 64}) {
      auto a = random_tile(m, m, 40 + static_cast<std::uint64_t>(m), 0.1, 10.0);
      auto d = random_tile(m, m, 45 + static_cast<std::uint64_t>(m), 0.1, 10.0);
      for (index_t i = 0; i < m; ++i) {
        a[static_cast<std::size_t>(i * m + i)] = 0.0;
        d[static_cast<std::size_t>(i * m + i)] = 0.0;
      }
      for (int kind = 0; kind < 3; ++kind) {
        auto x_s = a;
        auto x_v = a;
        auto run = [&](auto fw, double* x) {
          if (kind == 0) fw(x, x, x, m, m, m, m);
          if (kind == 1) fw(x, d.data(), x, m, m, m, m);
          if (kind == 2) fw(x, x, d.data(), m, m, m, m);
        };
        run([](auto... p) { scalar::kernel_fw(p...); }, x_s.data());
        simd::force_level(level);
        run([](auto... p) { kernel_fw(p...); }, x_v.data());
        simd::clear_forced_level();
        EXPECT_TRUE(bitwise_equal(x_s, x_v))
            << simd::level_name(level) << " m=" << m << " kind=" << kind;
      }
    }
  }
}

TEST_F(SimdKernels, BottleneckBitExact) {
  REQUIRE_AVX2();
  auto dispatched = [](auto... a) { kernel_bottleneck(a...); };
  auto reference = [](auto... a) { scalar::kernel_bottleneck(a...); };
  const simd::Level l = simd::Level::Avx2;
  expect_semiring_bit_exact<double>(l, "bottleneck", dispatched, reference);
  expect_semiring_bit_exact<float>(l, "bottleneck", dispatched, reference);
}

// The 512-bit instance of the same semiring micro-kernel: fw and
// bottleneck, double and float, every fringe shape and stride.
TEST_F(SimdKernels, SemiringBitExactAvx512) {
  REQUIRE_AVX512();
  auto fw = [](auto... a) { kernel_fw(a...); };
  auto fw_ref = [](auto... a) { scalar::kernel_fw(a...); };
  auto bn = [](auto... a) { kernel_bottleneck(a...); };
  auto bn_ref = [](auto... a) { scalar::kernel_bottleneck(a...); };
  const simd::Level l = simd::Level::Avx512;
  expect_semiring_bit_exact<double>(l, "fw", fw, fw_ref);
  expect_semiring_bit_exact<float>(l, "fw", fw, fw_ref);
  expect_semiring_bit_exact<double>(l, "bottleneck", bn, bn_ref);
  expect_semiring_bit_exact<float>(l, "bottleneck", bn, bn_ref);
}

TEST_F(SimdKernels, TransitiveClosureBitExact) {
  REQUIRE_AVX2();
  SplitMix64 g(7);
  for (index_t m : kSizes) {
    for (index_t stride : {m, m + 3}) {
      std::vector<std::uint8_t> u(static_cast<std::size_t>(m * stride), 0);
      std::vector<std::uint8_t> v(static_cast<std::size_t>(m * stride), 0);
      std::vector<std::uint8_t> x_s(static_cast<std::size_t>(m * stride), 0);
      for (index_t i = 0; i < m; ++i)
        for (index_t j = 0; j < m; ++j) {
          const auto at = static_cast<std::size_t>(i * stride + j);
          u[at] = static_cast<std::uint8_t>(g.next() & 1);
          v[at] = static_cast<std::uint8_t>(g.next() & 1);
          x_s[at] = static_cast<std::uint8_t>(g.next() & 1);
        }
      auto x_v = x_s;
      scalar::kernel_tc(x_s.data(), u.data(), v.data(), m, stride, stride,
                        stride);
      simd::force_level(simd::Level::Avx2);
      kernel_tc(x_v.data(), u.data(), v.data(), m, stride, stride, stride);
      simd::clear_forced_level();
      EXPECT_EQ(0, std::memcmp(x_s.data(), x_v.data(), x_s.size()))
          << "m=" << m << " s=" << stride;
    }
  }
}

// --- FMA kernels: tolerance + determinism across every box kind ------------
//
// Only D-kind leaves of at least kGemmMinM rows take the packed GEMM;
// every other box runs the scalar template at the packed levels too,
// bit for bit. The packed levels agree with each other bit for bit.

// Operand aliasing per box kind (how the typed engine calls them):
//   A: x = u = v = w (one tile)    B: x = v, u = w
//   C: u = x, v = w                D: all distinct
struct KindCase {
  bool di, dj;
  const char* name;
};
const KindCase kKinds[] = {{true, true, "A"},
                           {true, false, "B"},
                           {false, true, "C"},
                           {false, false, "D"}};

// Runs `op(x, u, v, w)` with the aliasing pattern of `kind` on fresh
// copies of a dominant tile set, at the given dispatch level; returns x.
template <class Op>
std::vector<double> run_boxed(const KindCase& kind, index_t m, index_t stride,
                              std::uint64_t seed, simd::Level level, Op op) {
  auto x = dominant_tile(m, stride, seed);
  auto other = dominant_tile(m, stride, seed + 1000);
  simd::force_level(level);
  if (kind.di && kind.dj) {  // A: everything is the x tile
    op(x.data(), x.data(), x.data(), x.data());
  } else if (kind.di) {  // B: x = v, u = w
    op(x.data(), other.data(), x.data(), other.data());
  } else if (kind.dj) {  // C: u = x, v = w
    op(x.data(), x.data(), other.data(), other.data());
  } else {  // D: all distinct
    auto v = dominant_tile(m, stride, seed + 2000);
    auto w = dominant_tile(m, stride, seed + 3000);
    op(x.data(), other.data(), v.data(), w.data());
  }
  return x;
}

// True when a GE/LU box of this kind and edge takes the packed GEMM at
// a packed level.
bool packed_gemm_leaf(const KindCase& kind, index_t m) {
  return !kind.di && !kind.dj && m >= simd::kGemmMinM;
}

TEST_F(SimdKernels, GaussianEliminationMatchesScalarAllKinds) {
  REQUIRE_AVX2();
  for (const KindCase& kind : kKinds) {
    for (index_t m : kSizes) {
      for (index_t stride : {m, m + 3}) {
        auto op = [&](double* x, const double* u, const double* v,
                      const double* w) {
          kernel_ge(x, u, v, w, m, stride, stride, stride, stride, kind.di,
                    kind.dj);
        };
        auto ref = run_boxed(kind, m, stride, 100, simd::Level::Scalar, op);
        auto first = run_boxed(kind, m, stride, 100, simd::Level::Avx2, op);
        for (simd::Level level : packed_levels()) {
          auto got = run_boxed(kind, m, stride, 100, level, op);
          auto again = run_boxed(kind, m, stride, 100, level, op);
          // Error grows with the k-sweep; the bound also covers portable
          // builds whose scalar baseline has no FMA contraction.
          EXPECT_LT(max_abs_diff(ref, got), 1e-11 * static_cast<double>(m))
              << "kind=" << kind.name << " m=" << m << " s=" << stride;
          if (!packed_gemm_leaf(kind, m)) {
            EXPECT_TRUE(bitwise_equal(ref, got))
                << "kind=" << kind.name << " m=" << m << " s=" << stride;
          }
          EXPECT_TRUE(bitwise_equal(got, again))
              << "non-deterministic: kind=" << kind.name << " m=" << m;
          EXPECT_TRUE(bitwise_equal(first, got))
              << simd::level_name(level) << " vs avx2: kind=" << kind.name
              << " m=" << m << " s=" << stride;
        }
      }
    }
  }
}

TEST_F(SimdKernels, LuMatchesScalarAllKinds) {
  REQUIRE_AVX2();
  for (const KindCase& kind : kKinds) {
    for (index_t m : kSizes) {
      for (index_t stride : {m, m + 3}) {
        auto op = [&](double* x, const double* u, const double* v,
                      const double* w) {
          kernel_lu(x, u, v, w, m, stride, stride, stride, stride, kind.di,
                    kind.dj);
        };
        auto ref = run_boxed(kind, m, stride, 200, simd::Level::Scalar, op);
        auto first = run_boxed(kind, m, stride, 200, simd::Level::Avx2, op);
        for (simd::Level level : packed_levels()) {
          auto got = run_boxed(kind, m, stride, 200, level, op);
          auto again = run_boxed(kind, m, stride, 200, level, op);
          // Looser than GE: stored multipliers feed later k-steps, so the
          // contraction difference compounds through the elimination.
          EXPECT_LT(max_abs_diff(ref, got), 5e-11 * static_cast<double>(m))
              << "kind=" << kind.name << " m=" << m << " s=" << stride;
          if (!packed_gemm_leaf(kind, m)) {
            EXPECT_TRUE(bitwise_equal(ref, got))
                << "kind=" << kind.name << " m=" << m << " s=" << stride;
          }
          EXPECT_TRUE(bitwise_equal(got, again))
              << "non-deterministic: kind=" << kind.name << " m=" << m;
          EXPECT_TRUE(bitwise_equal(first, got))
              << simd::level_name(level) << " vs avx2: kind=" << kind.name
              << " m=" << m << " s=" << stride;
        }
      }
    }
  }
}

TEST_F(SimdKernels, GuardedLuBitIdenticalToUnguardedPerLevel) {
  REQUIRE_AVX2();
  const PivotGuard guard(BreakdownPolicy::Report, 1e-12, 1.0);
  std::vector<simd::Level> levels = packed_levels();
  levels.push_back(simd::Level::Scalar);
  for (simd::Level level : levels) {
    for (const KindCase& kind : kKinds) {
      for (index_t m : {5, 15, 16, 17, 33, 64}) {
        auto plain_op = [&](double* x, const double* u, const double* v,
                            const double* w) {
          kernel_lu(x, u, v, w, m, m, m, m, m, kind.di, kind.dj);
        };
        auto guarded_op = [&](double* x, const double* u, const double* v,
                              const double* w) {
          kernel_lu(x, u, v, w, m, m, m, m, m, kind.di, kind.dj, &guard, 0);
        };
        auto plain = run_boxed(kind, m, m, 300, level, plain_op);
        auto guarded = run_boxed(kind, m, m, 300, level, guarded_op);
        EXPECT_TRUE(bitwise_equal(plain, guarded))
            << "level=" << simd::level_name(level) << " kind=" << kind.name
            << " m=" << m;
      }
    }
  }
  EXPECT_EQ(guard.breakdowns(), 0u) << "dominant tiles should never trip";
}

TEST_F(SimdKernels, MatmulMatchesScalarAcrossGemmThreshold) {
  REQUIRE_AVX2();
  for (index_t m : kSizes) {
    for (index_t stride : {m, m + 3}) {
      auto u = random_tile(m, stride, 400 + static_cast<std::uint64_t>(m),
                           -1.0, 1.0);
      auto v = random_tile(m, stride, 500 + static_cast<std::uint64_t>(m),
                           -1.0, 1.0);
      const auto x0 = random_tile(
          m, stride, 600 + static_cast<std::uint64_t>(m), -1.0, 1.0);
      auto x_s = x0;
      simd::force_level(simd::Level::Scalar);
      kernel_mm(x_s.data(), u.data(), v.data(), m, stride, stride, stride);
      std::vector<double> first;
      for (simd::Level level : packed_levels()) {
        auto x_v = x0;
        auto x_v2 = x0;
        simd::force_level(level);
        kernel_mm(x_v.data(), u.data(), v.data(), m, stride, stride, stride);
        kernel_mm(x_v2.data(), u.data(), v.data(), m, stride, stride, stride);
        const double scale = static_cast<double>(m);
        EXPECT_LT(max_abs_diff(x_s, x_v), 1e-12 * scale)
            << "m=" << m << " s=" << stride;
        EXPECT_TRUE(bitwise_equal(x_v, x_v2)) << "non-deterministic m=" << m;
        if (first.empty()) first = x_v;
        EXPECT_TRUE(bitwise_equal(first, x_v))
            << simd::level_name(level) << " vs avx2: m=" << m;
      }
    }
  }
}

// The packed-GEMM route must kick in exactly at kGemmMinM — both sides
// of the boundary already run in the loops above; this pins the
// threshold itself so a silent change shows up as a test edit.
TEST_F(SimdKernels, GemmThresholdIsStable) {
  static_assert(simd::kGemmMinM == 16);
  EXPECT_EQ(simd::kGemmMinM, 16);
}

// GE, LU and MM I-GEP at each forced packed level: that level's
// kernels.dispatch counter counts exactly the D-kind leaves of at least
// kGemmMinM rows (all leaves of a power-of-two run have m = bs), and
// the run stays within tolerance of the scalar one. bs = 8 sits below
// the threshold, so nothing packs.
TEST_F(SimdKernels, LinearAlgebraPacksOnlyLargeDKindLeaves) {
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  REQUIRE_AVX2();
  const index_t n = 128;
  WorkStealingPool pool(4);
  obs::Counter d_leaves = obs::counter("typed.leaf_calls.D");
  obs::Counter mm_leaves = obs::counter("typed.mm.leaf_calls");
  Matrix<double> a(n, n), b(n, n);
  SplitMix64 g(11);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      a(i, j) = g.uniform(-1.0, 1.0) + (i == j ? 2.0 * n : 0.0);
      b(i, j) = g.uniform(-1.0, 1.0);
    }
  }
  enum class Problem { Ge, Lu, Mm };
  for (Problem p : {Problem::Ge, Problem::Lu, Problem::Mm}) {
    for (index_t bs : {8, 16, 64}) {
      auto run = [&](simd::Level level, auto&& ex) {
        Matrix<double> x = p == Problem::Mm ? Matrix<double>(n, n, 0.5) : a;
        RowMajorStore<double> st{x.data(), n, bs};
        RowMajorStore<double> sa{a.data(), n, bs}, sb{b.data(), n, bs};
        obs::Counter packed_ctr = dispatch_counter(level);
        simd::force_level(level);
        const std::uint64_t a0 = packed_ctr.value();
        const std::uint64_t l0 =
            p == Problem::Mm ? mm_leaves.value() : d_leaves.value();
        if (p == Problem::Ge) igep_gaussian(ex, st, n, {bs});
        if (p == Problem::Lu) igep_lu(ex, st, n, {bs});
        if (p == Problem::Mm) igep_matmul(ex, st, sa, sb, n, {bs});
        const std::uint64_t packed = packed_ctr.value() - a0;
        const std::uint64_t leaves =
            (p == Problem::Mm ? mm_leaves.value() : d_leaves.value()) - l0;
        simd::clear_forced_level();
        if (level != simd::Level::Scalar) {
          EXPECT_EQ(packed, bs >= simd::kGemmMinM ? leaves : 0u)
              << "problem=" << static_cast<int>(p) << " bs=" << bs;
          EXPECT_GT(leaves, 0u);
        }
        return x;
      };
      const Matrix<double> ref = run(simd::Level::Scalar, SeqInvoker{});
      for (simd::Level level : packed_levels()) {
        for (const Matrix<double>& got :
             {run(level, SeqInvoker{}), run(level, DagExec{&pool})}) {
          double err = 0;
          for (index_t i = 0; i < n; ++i) {
            for (index_t j = 0; j < n; ++j) {
              err = std::max(err, std::abs(got(i, j) - ref(i, j)));
            }
          }
          EXPECT_LT(err, 1e-9) << "problem=" << static_cast<int>(p)
                               << " bs=" << bs;
        }
      }
    }
  }
}

// --- semiring routing end to end ------------------------------------------
//
// FW and bottleneck I-GEP at each forced packed level (D-kind leaves on
// the packed semiring micro-kernel, A/B/C leaves on the scalar
// template) must be bit-identical to the same run at forced Scalar
// under every executor and the OOC driver, and match the iterative
// engine. bs = 8 leaves an 8-column micro-tile fringe (NR = 16).

enum class SemiringProblem { Fw, Bottleneck };

// FW: zero diagonal, some +inf ("no edge"); bottleneck: +inf diagonal,
// some 0 ("no edge"). Integral weights make every engine's sums exact.
Matrix<double> semiring_input(SemiringProblem p, index_t n, bool integral,
                              std::uint64_t seed) {
  SplitMix64 g(seed);
  const double inf = std::numeric_limits<double>::infinity();
  Matrix<double> m(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      const bool no_edge = g.next() % 8 == 0;
      const double w = integral ? static_cast<double>(1 + g.next() % 20)
                                : g.uniform(1.0, 50.0);
      m(i, j) = no_edge ? (p == SemiringProblem::Fw ? inf : 0.0) : w;
    }
    m(i, i) = p == SemiringProblem::Fw ? 0.0 : inf;
  }
  return m;
}

bool bit_identical(const Matrix<double>& a, const Matrix<double>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.rows() * a.cols()) *
                         sizeof(double)) == 0;
}

// Every element of a equals b's, or both are within tol (inf == inf).
bool within(const Matrix<double>& a, const Matrix<double>& b, double tol) {
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j = 0; j < a.cols(); ++j) {
      if (a(i, j) != b(i, j) && !(std::abs(a(i, j) - b(i, j)) <= tol)) {
        return false;
      }
    }
  }
  return true;
}

TEST_F(SimdKernels, SemiringEnginesBitIdenticalAcrossLevels) {
  REQUIRE_AVX2();
  const index_t n = 128;
  WorkStealingPool pool(4);
  obs::Counter d_leaves = obs::counter("typed.leaf_calls.D");
  for (SemiringProblem p : {SemiringProblem::Fw, SemiringProblem::Bottleneck}) {
    const bool fw = p == SemiringProblem::Fw;
    for (bool integral : {true, false}) {
      const Matrix<double> init =
          semiring_input(p, n, integral, integral ? 7 : 8);
      Matrix<double> iter = init;
      fw ? apps::floyd_warshall(iter, apps::Engine::Iterative)
         : apps::bottleneck_paths(iter, apps::Engine::Iterative);
      for (index_t bs : {8, 16, 64}) {
        // One leg: the result of `run` on a copy of init at `level`; at
        // a packed level every D-kind leaf must have taken the packed
        // route.
        auto leg = [&](const char* name, simd::Level level, auto&& run) {
          Matrix<double> m = init;
          obs::Counter packed = dispatch_counter(level);
          simd::force_level(level);
          const std::uint64_t a0 = packed.value(), d0 = d_leaves.value();
          run(m);
          if (obs::kEnabled && level != simd::Level::Scalar) {
            EXPECT_EQ(packed.value() - a0, d_leaves.value() - d0)
                << name << " bs=" << bs;
            EXPECT_GT(packed.value() - a0, 0u) << name << " bs=" << bs;
          }
          simd::clear_forced_level();
          return m;
        };
        auto typed = [&](auto&& ex) {
          return [&, ex](Matrix<double>& m) mutable {
            RowMajorStore<double> st{m.data(), n, bs};
            fw ? igep_floyd_warshall(ex, st, n, {bs})
               : igep_bottleneck(ex, st, n, {bs});
          };
        };
        auto ooc = [&](Matrix<double>& m) {
          const auto page = static_cast<std::uint64_t>(bs * bs) * 8;
          PageCache cache(16 * page, page);
          OocTiledMatrix<double> om(cache, n, n, bs);
          om.load(m);
          ooc_igep_floyd_warshall_dag(om, &pool);
          m = om.to_matrix();
        };
        using Run = std::function<void(Matrix<double>&)>;
        std::vector<std::pair<const char*, Run>> execs{
            {"seq", typed(SeqInvoker{})}, {"dag4", typed(DagExec{&pool})}};
        if (fw) execs.emplace_back("ooc", ooc);
        for (auto& [name, run] : execs) {
          const Matrix<double> s = leg(name, simd::Level::Scalar, run);
          for (simd::Level level : packed_levels()) {
            const Matrix<double> v = leg(name, level, run);
            EXPECT_TRUE(bit_identical(s, v))
                << name << " " << simd::level_name(level) << " fw=" << fw
                << " bs=" << bs;
            EXPECT_TRUE(integral || !fw ? bit_identical(v, iter)
                                        : within(v, iter, 1e-9))
                << name << " vs iterative, fw=" << fw << " bs=" << bs
                << " integral=" << integral;
          }
        }
      }
    }
  }
}

// --- packed GEMM engines: Avx2 and Avx512 bit-identical ---------------------
//
// Both packed levels pack one format and run one per-element FMA chain
// over ascending k, so every GEMM-leaf result — GE, LU and MM I-GEP
// under the sequential and DAG executors, the OOC LU driver and
// blas::dgemm — is bit-identical between them.
TEST_F(SimdKernels, GemmEnginesBitIdenticalAvx2VsAvx512) {
  REQUIRE_AVX512();
  const index_t n = 128;
  WorkStealingPool pool(4);
  Matrix<double> a(n, n), b(n, n);
  SplitMix64 g(12);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      a(i, j) = g.uniform(-1.0, 1.0) + (i == j ? 2.0 * n : 0.0);
      b(i, j) = g.uniform(-1.0, 1.0);
    }
  }
  // The result of `run` on a copy of init at each packed level.
  auto both = [&](const Matrix<double>& init, auto&& run) {
    std::pair<Matrix<double>, Matrix<double>> out{init, init};
    simd::force_level(simd::Level::Avx2);
    run(out.first);
    simd::force_level(simd::Level::Avx512);
    run(out.second);
    simd::clear_forced_level();
    return out;
  };
  for (index_t bs : {16, 32, 64}) {
    auto typed = [&](auto problem, auto&& ex) {
      return [&, problem, ex](Matrix<double>& x) mutable {
        RowMajorStore<double> st{x.data(), n, bs};
        RowMajorStore<double> sa{a.data(), n, bs}, sb{b.data(), n, bs};
        if (problem == 0) igep_gaussian(ex, st, n, {bs});
        if (problem == 1) igep_lu(ex, st, n, {bs});
        if (problem == 2) igep_matmul(ex, st, sa, sb, n, {bs});
      };
    };
    for (int problem : {0, 1, 2}) {
      for (auto [name, run] :
           {std::pair<const char*, std::function<void(Matrix<double>&)>>{
                "seq", typed(problem, SeqInvoker{})},
            {"dag4", typed(problem, DagExec{&pool})}}) {
        const auto [v2, v5] = both(a, run);
        EXPECT_TRUE(bit_identical(v2, v5))
            << name << " problem=" << problem << " bs=" << bs;
      }
    }
    const auto [o2, o5] = both(a, [&](Matrix<double>& x) {
      const auto page = static_cast<std::uint64_t>(bs * bs) * 8;
      PageCache cache(16 * page, page);
      OocTiledMatrix<double> om(cache, n, n, bs);
      om.load(x);
      ooc_igep_lu_dag(om, &pool);
      x = om.to_matrix();
    });
    EXPECT_TRUE(bit_identical(o2, o5)) << "ooc lu bs=" << bs;
  }
  // blas::dgemm at fringe shapes, below and above the Strassen crossover
  // (test_strassen.cpp covers the Strassen entry points directly).
  for (index_t e : {index_t{37}, index_t{100}, simd::kStrassenMinM + 1}) {
    Matrix<double> ea(e, e), eb(e, e), ec(e, e);
    for (index_t i = 0; i < e; ++i) {
      for (index_t j = 0; j < e; ++j) {
        ea(i, j) = g.uniform(-1.0, 1.0);
        eb(i, j) = g.uniform(-1.0, 1.0);
        ec(i, j) = g.uniform(-1.0, 1.0);
      }
    }
    const auto [d2, d5] = both(ec, [&](Matrix<double>& x) {
      blas::dgemm(e, e - 3, e - 5, -1.0, ea.data(), e, eb.data(), e,
                  x.data(), e);
    });
    EXPECT_TRUE(bit_identical(d2, d5)) << "dgemm e=" << e;
  }
}

}  // namespace
}  // namespace gep

// End-to-end application tests: every engine on every problem agrees
// with independent references (Dijkstra for APSP, L*U reconstruction for
// LU, naive products for MM), including non-power-of-two sizes and
// multithreaded runs.
#include <gtest/gtest.h>

#include <cstdio>
#include <queue>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "apps/apps.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/registry.hpp"
#include "util/prng.hpp"

namespace gep {
namespace {

using apps::Engine;
using apps::kInfDist;

Matrix<double> random_graph(index_t n, std::uint64_t seed, double density) {
  SplitMix64 g(seed);
  Matrix<double> d(n, n, kInfDist);
  for (index_t i = 0; i < n; ++i) {
    d(i, i) = 0.0;
    for (index_t j = 0; j < n; ++j) {
      if (i != j && g.chance(density)) d(i, j) = g.uniform(1.0, 10.0);
    }
  }
  return d;
}

// Dijkstra from every source: independent APSP reference.
Matrix<double> dijkstra_apsp(const Matrix<double>& w) {
  const index_t n = w.rows();
  Matrix<double> dist(n, n, kInfDist);
  for (index_t s = 0; s < n; ++s) {
    std::priority_queue<std::pair<double, index_t>,
                        std::vector<std::pair<double, index_t>>,
                        std::greater<>>
        pq;
    dist(s, s) = 0;
    pq.push({0.0, s});
    while (!pq.empty()) {
      auto [d, u] = pq.top();
      pq.pop();
      if (d > dist(s, u)) continue;
      for (index_t v = 0; v < n; ++v) {
        if (w(u, v) >= kInfDist) continue;
        double nd = d + w(u, v);
        if (nd < dist(s, v)) {
          dist(s, v) = nd;
          pq.push({nd, v});
        }
      }
    }
  }
  return dist;
}

const Engine kFwEngines[] = {Engine::Iterative, Engine::IGep, Engine::IGepZ,
                             Engine::CGep, Engine::CGepCompact,
                             Engine::Blocked};

class FwAllEngines : public ::testing::TestWithParam<index_t> {};

TEST_P(FwAllEngines, MatchesDijkstra) {
  const index_t n = GetParam();
  Matrix<double> w = random_graph(n, 100 + static_cast<unsigned>(n), 0.25);
  Matrix<double> ref = dijkstra_apsp(w);
  for (Engine e : kFwEngines) {
    Matrix<double> d = w;
    apps::floyd_warshall(d, e, {16, 1});
    // FW leaves kInfDist-ish values where unreachable; compare reachable
    // cells exactly and unreachable cells as >= kInfDist/2.
    for (index_t i = 0; i < n; ++i) {
      for (index_t j = 0; j < n; ++j) {
        if (ref(i, j) < kInfDist / 2) {
          EXPECT_NEAR(d(i, j), ref(i, j), 1e-9)
              << apps::engine_name(e) << " n=" << n << " @" << i << "," << j;
        } else {
          EXPECT_GE(d(i, j), kInfDist / 2) << apps::engine_name(e);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FwAllEngines,
                         ::testing::Values(1, 2, 5, 16, 23, 32, 50, 64));

Matrix<double> random_dd(index_t n, std::uint64_t seed) {
  SplitMix64 g(seed);
  Matrix<double> m(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) m(i, j) = g.uniform(-1.0, 1.0);
    m(i, i) += static_cast<double>(n) + 2.0;
  }
  return m;
}

class LuAllEngines : public ::testing::TestWithParam<index_t> {};

TEST_P(LuAllEngines, ReconstructsA) {
  const index_t n = GetParam();
  Matrix<double> a = random_dd(n, 200 + static_cast<unsigned>(n));
  for (Engine e : {Engine::Iterative, Engine::IGep, Engine::IGepZ,
                   Engine::CGep, Engine::CGepCompact, Engine::Blocked}) {
    Matrix<double> lu = a;
    apps::lu_decompose(lu, e, {16, 1});
    for (index_t i = 0; i < n; ++i) {
      for (index_t j = 0; j < n; ++j) {
        double sum = 0;
        for (index_t k = 0; k <= std::min(i, j); ++k) {
          sum += ((k == i) ? 1.0 : lu(i, k)) * lu(k, j);
        }
        ASSERT_NEAR(sum, a(i, j), 1e-8)
            << apps::engine_name(e) << " n=" << n << " @" << i << "," << j;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuAllEngines,
                         ::testing::Values(1, 3, 8, 20, 32, 47, 64));

TEST(GaussianEngines, UpperTrianglesAgree) {
  const index_t n = 48;  // deliberately not a power of two
  Matrix<double> a = random_dd(n, 7);
  Matrix<double> ref = a;
  apps::gaussian_eliminate(ref, Engine::Iterative);
  for (Engine e : {Engine::IGep, Engine::IGepZ, Engine::CGep,
                   Engine::CGepCompact, Engine::Blocked}) {
    Matrix<double> g = a;
    apps::gaussian_eliminate(g, e, {8, 1});
    for (index_t i = 0; i < n; ++i) {
      for (index_t j = i; j < n; ++j) {
        ASSERT_NEAR(g(i, j), ref(i, j), 1e-8)
            << apps::engine_name(e) << " @" << i << "," << j;
      }
    }
  }
}

class MmAllEngines : public ::testing::TestWithParam<index_t> {};

TEST_P(MmAllEngines, MatchesNaive) {
  const index_t n = GetParam();
  SplitMix64 g(300 + static_cast<unsigned>(n));
  Matrix<double> a(n, n), b(n, n);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) {
      a(i, j) = g.uniform(-1, 1);
      b(i, j) = g.uniform(-1, 1);
    }
  Matrix<double> ref(n, n, 0.0);
  for (index_t i = 0; i < n; ++i)
    for (index_t k = 0; k < n; ++k) {
      const double aik = a(i, k);
      for (index_t j = 0; j < n; ++j) ref(i, j) += aik * b(k, j);
    }
  for (Engine e : {Engine::Iterative, Engine::IGep, Engine::IGepZ,
                   Engine::Blocked}) {
    Matrix<double> c(n, n, 0.0);
    apps::multiply_add(c, a, b, e, {16, 1});
    EXPECT_LT(max_abs_diff(ref, c), 1e-10)
        << apps::engine_name(e) << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MmAllEngines,
                         ::testing::Values(1, 2, 9, 16, 31, 64, 65));

TEST(MultiThreadedApps, MatchSingleThreaded) {
  const index_t n = 64;
  Matrix<double> w = random_graph(n, 9, 0.3);
  Matrix<double> seq = w, par = w;
  apps::floyd_warshall(seq, Engine::IGep, {8, 1});
  apps::floyd_warshall(par, Engine::IGep, {8, 4});
  EXPECT_TRUE(approx_equal(seq, par, 0.0));

  Matrix<double> a = random_dd(n, 10);
  Matrix<double> lseq = a, lpar = a;
  apps::lu_decompose(lseq, Engine::IGep, {8, 1});
  apps::lu_decompose(lpar, Engine::IGep, {8, 4});
  EXPECT_TRUE(approx_equal(lseq, lpar, 0.0));

  Matrix<double> b = random_dd(n, 11);
  Matrix<double> c1(n, n, 0.0), c2(n, n, 0.0);
  apps::multiply_add(c1, a, b, Engine::IGep, {8, 1});
  apps::multiply_add(c2, a, b, Engine::IGep, {8, 4});
  EXPECT_TRUE(approx_equal(c1, c2, 0.0));
}

// Rings the flight recorder keeps (one per thread live at a time: an
// exited thread's ring is reused), read from a dump's header.
std::uint32_t recorded_rings() {
  const char* path = "apps_pool.gepdump";
  EXPECT_TRUE(obs::flight::dump(path));
  obs::flightfmt::FileHeader h{};
  std::FILE* f = std::fopen(path, "rb");
  EXPECT_NE(f, nullptr);
  if (f != nullptr) {
    EXPECT_EQ(std::fread(&h, sizeof h, 1, f), 1u);
    std::fclose(f);
  }
  std::remove(path);
  return h.thread_count;
}

// Multithreaded app calls borrow one kept pool per worker count, so
// calls after the first start no threads (each started thread would
// leave a flight ring behind for good).
TEST(MultiThreadedApps, RepeatedCallsKeepRingCountBounded) {
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  const index_t n = 64;
  const Matrix<double> w = random_graph(n, 12, 0.3);
  Matrix<double> d = w;
  apps::floyd_warshall(d, Engine::IGep, {8, 4});
  const std::uint32_t before = recorded_rings();
  for (int i = 0; i < 5; ++i) {
    d = w;
    apps::floyd_warshall(d, Engine::IGep, {8, 4});
  }
  // Each call starts a pool whose exiting workers free their rings for
  // the next call's: allow one pool's 3 workers (the first call's may
  // not all have recorded). Rings that were never freed would add 3 per
  // call.
  EXPECT_LE(recorded_rings(), before + 3);
}

// Concurrent callers each start a pool of their own and match the
// single-threaded result.
TEST(MultiThreadedApps, ConcurrentCallsMatchSingleThreaded) {
  const index_t n = 64;
  const Matrix<double> w = random_graph(n, 13, 0.3);
  Matrix<double> ref = w;
  apps::floyd_warshall(ref, Engine::IGep, {8, 1});
  std::vector<Matrix<double>> got(3, w);
  std::vector<std::thread> callers;
  for (Matrix<double>& g : got) {
    callers.emplace_back([&g, &w] {
      for (int i = 0; i < 4; ++i) {
        g = w;
        apps::floyd_warshall(g, Engine::IGep, {8, 4});
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (const Matrix<double>& g : got) EXPECT_TRUE(approx_equal(ref, g, 0.0));
}

TEST(AppGuards, RejectInvalidInputs) {
  Matrix<double> rect(4, 6, 0.0);
  EXPECT_THROW(apps::floyd_warshall(rect, Engine::IGep), std::invalid_argument);
  EXPECT_THROW(apps::lu_decompose(rect, Engine::IGep), std::invalid_argument);
  Matrix<double> c(4, 4, 0.0), a(4, 4, 0.0), b(6, 6, 0.0);
  EXPECT_THROW(apps::multiply_add(c, a, b, Engine::IGep),
               std::invalid_argument);
  EXPECT_THROW(apps::multiply_add(c, a, a, Engine::CGep),
               std::invalid_argument);
}

TEST(EngineNames, AllDistinct) {
  std::set<std::string> names;
  for (Engine e : {Engine::Iterative, Engine::IGep, Engine::IGepZ,
                   Engine::CGep, Engine::CGepCompact, Engine::Blocked}) {
    names.insert(apps::engine_name(e));
  }
  EXPECT_EQ(names.size(), 6u);
}

}  // namespace
}  // namespace gep

// Multithreaded I-GEP matrix multiplication (paper Section 3 / Fig. 6).
//
// Multiplies two n x n matrices with the D-recursion at several thread
// counts (the DAG runtime above one thread), validating every run
// against the sequential result, and prints the schedule-simulated
// speedup the fork-join DAG would achieve on an 8-processor machine like
// the paper's Opteron 850.
#include <cstdio>
#include <thread>

#include "apps/apps.hpp"
#include "parallel/dag_sim.hpp"
#include "util/prng.hpp"
#include "util/timer.hpp"

using namespace gep;

int main() {
  const index_t n = 512;
  SplitMix64 rng(5);
  Matrix<double> a(n, n), b(n, n);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) {
      a(i, j) = rng.uniform(-1, 1);
      b(i, j) = rng.uniform(-1, 1);
    }

  Matrix<double> ref(n, n, 0.0);
  WallTimer t1;
  apps::multiply_add(ref, a, b, apps::Engine::IGep, {64, 1});
  const double seq = t1.seconds();
  std::printf("sequential I-GEP MM, n=%lld: %.3f s (%.2f GFLOP/s)\n",
              static_cast<long long>(n), seq,
              2.0 * n * n * n / seq / 1e9);
  std::printf("host cores: %u\n\n", std::thread::hardware_concurrency());

  for (int threads : {2, 4, 8}) {
    Matrix<double> c(n, n, 0.0);
    WallTimer t;
    apps::multiply_add(c, a, b, apps::Engine::IGep, {64, threads});
    double wall = t.seconds();
    std::printf("threads=%d: %.3f s, speedup %.2fx, matches sequential: %s\n",
                threads, wall, seq / wall,
                max_abs_diff(ref, c) == 0.0 ? "yes" : "NO");
  }

  // What the same DAG would do on the paper's 8-processor machine.
  auto dag = build_igep_dag(DagProblem::MatMul, n, 64);
  const double work = dag_work(dag);
  std::printf("\nschedule-simulated speedup of this DAG (Fig. 12 model):\n");
  for (int p : {2, 4, 8}) {
    std::printf("  p=%d: %.2fx\n", p, work / dag_makespan(dag, p));
  }
  std::printf("paper's measured MM speedup at p=8 (n=5000): 6.0x\n");
  return 0;
}

// Kernel microbenchmarks: the dispatched base-case kernels and the
// BLAS-baseline GEMM, measured on EVERY dispatch path the host runs
// (forced scalar, AVX2, AVX-512) in one process. These building blocks
// set the "% of peak" ceilings in Figs. 10 and 11.
//
// Run with no arguments it emits BENCH_kernels.json: per kernel x size
// x path throughput (GF/s, plus Gupdates/s for the semiring kernels),
// per-path speedups, the selected dispatch level, and an end-to-end
// typed I-GEP LU on both paths. Any argument switches to the
// google-benchmark harness (e.g. --benchmark_filter=...), which
// measures whatever dispatch level the environment selects.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "blas/blas.hpp"
#include "gep/kernels.hpp"
#include "gep/typed.hpp"
#include "simd/dispatch.hpp"
#include "simd/gemm_leaf.hpp"
#include "simd/strassen.hpp"
#include "util/prng.hpp"

namespace {

using gep::index_t;

std::vector<double> random_buf(index_t n, std::uint64_t seed) {
  gep::SplitMix64 g(seed);
  std::vector<double> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = g.uniform(0.5, 1.5);
  return v;
}

// --- google-benchmark registrations (argument mode) ------------------------

void BM_KernelFW(benchmark::State& state) {
  const index_t m = state.range(0);
  auto x = random_buf(m * m, 1), u = random_buf(m * m, 2),
       v = random_buf(m * m, 3);
  for (auto _ : state) {
    gep::kernel_fw(x.data(), u.data(), v.data(), m, m, m, m);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * m * m * m);
}
BENCHMARK(BM_KernelFW)->Arg(32)->Arg(64)->Arg(128);

void BM_KernelMM(benchmark::State& state) {
  const index_t m = state.range(0);
  auto x = random_buf(m * m, 4), u = random_buf(m * m, 5),
       v = random_buf(m * m, 6);
  for (auto _ : state) {
    gep::kernel_mm(x.data(), u.data(), v.data(), m, m, m, m);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * m * m);
}
BENCHMARK(BM_KernelMM)->Arg(32)->Arg(64)->Arg(128);

void BM_KernelLU_D(benchmark::State& state) {
  const index_t m = state.range(0);
  auto x = random_buf(m * m, 7), u = random_buf(m * m, 8),
       v = random_buf(m * m, 9), w = random_buf(m * m, 10);
  for (auto _ : state) {
    gep::kernel_lu(x.data(), u.data(), v.data(), w.data(), m, m, m, m, m,
                   false, false);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * m * m);
}
BENCHMARK(BM_KernelLU_D)->Arg(32)->Arg(64)->Arg(128);

void BM_KernelTC(benchmark::State& state) {
  const index_t m = state.range(0);
  gep::SplitMix64 g(20);
  std::vector<std::uint8_t> x(static_cast<std::size_t>(m * m)),
      u(static_cast<std::size_t>(m * m)), v(static_cast<std::size_t>(m * m));
  for (auto& b : u) b = g.chance(0.3);
  for (auto& b : v) b = g.chance(0.3);
  for (auto _ : state) {
    gep::kernel_tc(x.data(), u.data(), v.data(), m, m, m, m);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * m * m * m);
}
BENCHMARK(BM_KernelTC)->Arg(64)->Arg(128);

void BM_KernelBottleneck(benchmark::State& state) {
  const index_t m = state.range(0);
  auto x = random_buf(m * m, 21), u = random_buf(m * m, 22),
       v = random_buf(m * m, 23);
  for (auto _ : state) {
    gep::kernel_bottleneck(x.data(), u.data(), v.data(), m, m, m, m);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * m * m * m);
}
BENCHMARK(BM_KernelBottleneck)->Arg(64)->Arg(128);

void BM_KernelFWPaths(benchmark::State& state) {
  const index_t m = state.range(0);
  auto x = random_buf(m * m, 24), u = random_buf(m * m, 25),
       v = random_buf(m * m, 26);
  std::vector<std::int32_t> sx(static_cast<std::size_t>(m * m), 0),
      su(static_cast<std::size_t>(m * m), 1);
  for (auto _ : state) {
    gep::kernel_fw_paths(x.data(), u.data(), v.data(), sx.data(), su.data(),
                         m, m, m, m, m, m);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * m * m * m);
}
BENCHMARK(BM_KernelFWPaths)->Arg(64)->Arg(128);

void BM_BlasDgemm(benchmark::State& state) {
  const index_t n = state.range(0);
  auto a = random_buf(n * n, 11), b = random_buf(n * n, 12),
       c = random_buf(n * n, 13);
  for (auto _ : state) {
    gep::blas::dgemm(n, n, n, 1.0, a.data(), n, b.data(), n, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_BlasDgemm)->Arg(128)->Arg(256)->Arg(512);

// --- JSON report mode ------------------------------------------------------

// Seconds per invocation: repeats fn until the batch takes long enough
// to time reliably, best of 3 batches (the host is a noisy 1-core VM).
template <class Fn>
double time_per_call(Fn&& fn) {
  long iters = 1;
  for (;;) {
    gep::WallTimer t;
    for (long i = 0; i < iters; ++i) fn();
    if (t.seconds() >= 0.02) break;
    iters *= 4;
  }
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    gep::WallTimer t;
    for (long i = 0; i < iters; ++i) fn();
    best = std::min(best, t.seconds() / static_cast<double>(iters));
  }
  return best;
}

const char* path_name(gep::simd::Level l) { return gep::simd::level_name(l); }

// Which dispatch paths this process can actually measure, lowest first.
std::vector<gep::simd::Level> measurable_paths() {
  using gep::simd::Level;
  std::vector<Level> p{Level::Scalar};
  if (gep::simd::forced_scalar_env()) return p;
  for (Level l : {Level::Avx2, Level::Avx512}) {
    if (gep::simd::level_available(l)) p.push_back(l);
  }
  return p;
}

// Annotates a packed-level row with its speedups over the scalar row and,
// for avx512, over the avx2 row (times of the rows measured so far, by
// level).
void annotate_speedups(gep::bench::BenchReport& report,
                       gep::simd::Level level, const double (&dt)[3]) {
  using gep::simd::Level;
  const double here = dt[static_cast<int>(level)];
  if (level == Level::Scalar || here <= 0) return;
  if (dt[0] > 0) report.annotate("speedup_vs_scalar", dt[0] / here);
  const double avx2 = dt[static_cast<int>(Level::Avx2)];
  if (level == Level::Avx512 && avx2 > 0) {
    report.annotate("speedup_vs_avx2", avx2 / here);
  }
}

struct KernelCase {
  std::string name;
  double flops;        // per invocation, for the gflops column
  double updates;      // m^3 update count, 0 when GF/s is the native unit
  std::function<void()> run;
};

// Adds one steady-state run row (seconds = best per-call time).
void add_run(gep::bench::BenchReport& report, double peak,
             const std::string& label, index_t n, double flops, double dt) {
  gep::bench::BenchRun r;
  r.label = label;
  r.n = n;
  r.seconds = dt;
  r.gflops = flops / dt / 1e9;
  r.pct_peak = peak > 0 ? 100.0 * r.gflops / peak : 0.0;
  report.add(std::move(r));
  std::printf("  %-28s %10.3e s  %7.2f GF/s\n", label.c_str(), dt, flops / dt / 1e9);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

// Paired timing: runs the runners in alternation `rounds` times and
// keeps each one's median per-call time — back-to-back alternation
// cancels the slow frequency/noisy-neighbor drift of a shared VM, which
// a sequential A-then-B measurement would fold into the ratio, and the
// median keeps one noisy round from deciding the result.
std::vector<double> paired_times(
    const std::vector<std::function<void()>>& fns, int rounds = 5) {
  std::vector<std::vector<double>> t(fns.size());
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < fns.size(); ++i) {
      t[i].push_back(time_per_call(fns[i]));
    }
  }
  std::vector<double> out;
  for (auto& ti : t) out.push_back(median(ti));
  return out;
}

// Benchmarks one case on every measurable path (paired alternating
// timings, median of 3 rounds), annotating each packed run with its
// speedups (annotate_speedups).
void bench_case(gep::bench::BenchReport& report, double peak,
                const KernelCase& c, index_t n) {
  const std::vector<gep::simd::Level> levels = measurable_paths();
  std::vector<std::function<void()>> runs;
  for (gep::simd::Level level : levels) {
    runs.push_back([&c, level] {
      gep::simd::force_level(level);
      c.run();
    });
  }
  const std::vector<double> t = paired_times(runs, 3);
  gep::simd::clear_forced_level();
  double dt_at[3] = {0, 0, 0};
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const double dt = t[i];
    dt_at[static_cast<int>(levels[i])] = dt;
    add_run(report, peak, c.name + " " + path_name(levels[i]), n, c.flops,
            dt);
    if (c.updates > 0)
      report.annotate("gupdates_per_s", c.updates / dt / 1e9);
    annotate_speedups(report, levels[i], dt_at);
  }
}

// --tune-strassen: measures the Strassen/classic break-even edge on
// this host and emits BENCH_strassen_tune.json with breakeven_m (0 =
// never pays), the value simd::kStrassenMinM should hold. Runs the two
// paths by direct calls — blas::dgemm_blocked (classic) against
// simd::strassen_gemm (one level) — on the active dispatch path, each
// size as the median of kTuneRounds paired alternations.
int tune_strassen() {
  using namespace gep;
  double peak = bench::print_host_banner(
      "Strassen autotune: paired classic vs fused-Strassen packed GEMM");
  bench::BenchReport report("strassen_tune", peak);
  report.meta("dispatch", simd::active_name());
  report.meta("strassen_min_m", std::to_string(simd::kStrassenMinM));
  const bool small = bench::small_run();

  // Break-even = smallest swept edge from which one level keeps winning
  // (a dip resets it, so a noisy small-size fluke cannot set it).
  constexpr int kTuneRounds = 7;
  const std::vector<index_t> sweep =
      small ? std::vector<index_t>{128, 256, 384, 512}
            : std::vector<index_t>{256, 384, 512, 640, 768, 896, 1024, 1536,
                                   2048};
  index_t breakeven = 0;
  for (index_t n : sweep) {
    auto a = random_buf(n * n, 71), b = random_buf(n * n, 72),
         c = random_buf(n * n, 73);
    const std::vector<double> t = paired_times(
        {[&] {
           blas::dgemm_blocked(n, n, n, 1.0, a.data(), n, b.data(), n,
                               c.data(), n, blas::GemmBlocking{});
         },
         [&] {
           simd::strassen_gemm(n, n, n, 1.0, a.data(), n, b.data(), n,
                               c.data(), n);
         }},
        kTuneRounds);
    const double tc = t[0], ts = t[1];
    const double flops = 2.0 * n * n * n;
    add_run(report, peak, "tune dgemm_classic n=" + std::to_string(n), n,
            flops, tc);
    add_run(report, peak, "tune dgemm_strassen L1 n=" + std::to_string(n), n,
            flops, ts);
    report.annotate("speedup_vs_classic", tc / ts);
    if (tc / ts >= 1.0) {
      if (breakeven == 0) breakeven = n;
    } else {
      breakeven = 0;
    }
  }

  report.meta("breakeven_m", std::to_string(breakeven));
  std::printf(
      "\ntune summary: break-even m = %lld (0 = never pays); "
      "kStrassenMinM = %lld\n",
      static_cast<long long>(breakeven),
      static_cast<long long>(simd::kStrassenMinM));
  return report.write() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--tune-strassen") {
    return tune_strassen();
  }
  if (argc > 1) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    return 0;
  }

  using namespace gep;
  double peak = bench::print_host_banner(
      "Kernel microbenchmarks: dispatched vs forced-scalar base cases");
  bench::BenchReport report("kernels", peak);
  report.meta("dispatch", simd::active_name());
  report.meta("cpu_simd", cpu_features().summary());
  report.meta("gemm_min_m", std::to_string(simd::kGemmMinM));
  report.meta("strassen_min_m", std::to_string(simd::kStrassenMinM));

  const bool small = bench::small_run();
  const std::vector<index_t> sizes{32, 64, 128};

  for (index_t m : sizes) {
    auto x = random_buf(m * m, 4), u = random_buf(m * m, 5),
         v = random_buf(m * m, 6), w = random_buf(m * m, 10);
    const double mmf = 2.0 * m * m * m;
    const double upd = static_cast<double>(m) * m * m;

    bench_case(report, peak,
               {"kernel_mm m=" + std::to_string(m), mmf, 0,
                [&] { kernel_mm(x.data(), u.data(), v.data(), m, m, m, m); }},
               m);
    bench_case(report, peak,
               {"kernel_ge_D m=" + std::to_string(m), mmf, 0,
                [&] {
                  kernel_ge(x.data(), u.data(), v.data(), w.data(), m, m, m,
                            m, m, false, false);
                }},
               m);
    bench_case(report, peak,
               {"kernel_lu_D m=" + std::to_string(m), mmf, 0,
                [&] {
                  kernel_lu(x.data(), u.data(), v.data(), w.data(), m, m, m,
                            m, m, false, false);
                }},
               m);
    // Semiring rows through the dispatch wrappers on disjoint (D-kind)
    // contiguous tiles: at a packed level they take the packed
    // semiring micro-kernel, at Scalar the scalar template.
    bench_case(report, peak,
               {"kernel_fw m=" + std::to_string(m), mmf, upd,
                [&, m] {
                  kernel_fw(x.data(), u.data(), v.data(), m, m, m, m);
                }},
               m);
    bench_case(report, peak,
               {"kernel_bottleneck m=" + std::to_string(m), mmf, upd,
                [&, m] {
                  kernel_bottleneck(x.data(), u.data(), v.data(), m, m, m, m);
                }},
               m);

    // A-kind LU (the aliased diagonal box): restore the tile before
    // every run so pivots stay healthy; restore cost is subtracted.
    {
      auto pristine = random_buf(m * m, 30);
      for (index_t i = 0; i < m; ++i)
        pristine[static_cast<std::size_t>(i * m + i)] += 4.0;
      auto tile = pristine;
      const std::size_t bytes = tile.size() * sizeof(double);
      auto restore = [&] { std::memcpy(tile.data(), pristine.data(), bytes); };
      // Paired like bench_case: the restore alone, then restore + leaf
      // at each level.
      const std::vector<simd::Level> levels = measurable_paths();
      std::vector<std::function<void()>> runs{restore};
      for (simd::Level level : levels) {
        runs.push_back([&, level] {
          simd::force_level(level);
          restore();
          kernel_lu(tile.data(), tile.data(), tile.data(), tile.data(), m, m,
                    m, m, m, true, true);
        });
      }
      const std::vector<double> t = paired_times(runs, 3);
      simd::clear_forced_level();
      double dt_at[3] = {0, 0, 0};
      for (std::size_t i = 0; i < levels.size(); ++i) {
        const double dt = std::max(t[i + 1] - t[0], 1e-12);
        dt_at[static_cast<int>(levels[i])] = dt;
        add_run(report, peak,
                "kernel_lu_A m=" + std::to_string(m) + " " +
                    path_name(levels[i]),
                m, bench::flops_lu(m), dt);
        annotate_speedups(report, levels[i], dt_at);
      }
    }

    // Transitive closure on bytes (bit-exact OR kernel), through its
    // wrapper: the scalar template at every level.
    {
      SplitMix64 g(40);
      std::vector<std::uint8_t> bx(static_cast<std::size_t>(m * m)),
          bu(static_cast<std::size_t>(m * m)),
          bv(static_cast<std::size_t>(m * m));
      for (auto& b : bu) b = g.chance(0.3);
      for (auto& b : bv) b = g.chance(0.3);
      bench_case(report, peak,
                 {"kernel_tc m=" + std::to_string(m), upd, upd,
                  [&, m] {
                    kernel_tc(bx.data(), bu.data(), bv.data(), m, m, m, m);
                  }},
                 m);
    }
  }

  // FW D-kind leaf in place: x, u, v are 64 x 64 tiles of one matrix
  // with leading dimension 2048, as the typed engine hands them over at
  // n = 2048 (x = c[I x J], u = c[I x K], v = c[K x J]). Rows 16 KiB
  // apart share few L1 sets, which the contiguous rows above hide.
  {
    const index_t m = 64, ld = 2048;
    auto c = random_buf(2 * m * ld, 7);
    double* x = c.data();
    const double* u = c.data() + m;
    const double* v = c.data() + m * ld;
    const double upd = static_cast<double>(m) * m * m;
    bench_case(report, peak,
               {"kernel_fw_D m=" + std::to_string(m) +
                    " ld=" + std::to_string(ld),
                2 * upd, upd, [&] { kernel_fw(x, u, v, m, ld, ld, ld); }},
               m);
  }

  // Cache-aware blocked GEMM through the shared micro-kernel layer.
  {
    const index_t n = 256;
    auto a = random_buf(n * n, 11), b = random_buf(n * n, 12),
         c = random_buf(n * n, 13);
    bench_case(report, peak,
               {"dgemm n=" + std::to_string(n), 2.0 * n * n * n, 0,
                [&] {
                  blas::dgemm(n, n, n, 1.0, a.data(), n, b.data(), n,
                              c.data(), n);
                }},
               n);
  }

  // Strassen-fused vs classic packed GEMM on the active dispatch path:
  // paired alternating timings of direct calls, effective GF/s at the
  // nominal 2n^3 flop count (one level executes 7/8 of them, so beating
  // classic GF/s here means real end-to-end speedup).
  {
    // The small sweep ends well above kStrassenMinM, where CI checks
    // that one level beats the classic path.
    const std::vector<index_t> ns = small
                                        ? std::vector<index_t>{1024, 2048}
                                        : std::vector<index_t>{512, 1024, 2048};
    for (index_t n : ns) {
      auto a = random_buf(n * n, 61), b = random_buf(n * n, 62),
           c = random_buf(n * n, 63);
      const double flops = 2.0 * n * n * n;
      const std::vector<double> t = paired_times(
          {[&] {
             blas::dgemm_blocked(n, n, n, 1.0, a.data(), n, b.data(), n,
                                 c.data(), n, blas::GemmBlocking{});
           },
           [&] {
             simd::strassen_gemm(n, n, n, 1.0, a.data(), n, b.data(), n,
                                 c.data(), n);
           }});
      const double tc = t[0], ts = t[1];
      add_run(report, peak, "dgemm_classic n=" + std::to_string(n), n, flops,
              tc);
      add_run(report, peak, "dgemm_strassen L1 n=" + std::to_string(n), n,
              flops, ts);
      report.annotate("speedup_vs_classic", tc / ts);
    }
  }

  // End-to-end: typed I-GEP LU, every path, one shot each.
  {
    const index_t n = small ? 512 : 2048;
    const index_t base = 64;
    Matrix<double> init = bench::random_dd_matrix(n, 50);
    double dt_at[3] = {0, 0, 0};
    for (simd::Level level : measurable_paths()) {
      simd::force_level(level);
      Matrix<double> m = init;
      RowMajorStore<double> st{m.data(), n, base};
      SeqInvoker inv;
      const double dt = report.timed(
          "igep_lu_typed n=" + std::to_string(n) + " " + path_name(level), n,
          bench::flops_lu(n), [&] { igep_lu(inv, st, n, {base}); });
      std::printf("  igep_lu_typed n=%lld %s: %.3f s  %.2f GF/s\n",
                  static_cast<long long>(n), path_name(level), dt,
                  bench::flops_lu(n) / dt / 1e9);
      dt_at[static_cast<int>(level)] = dt;
      annotate_speedups(report, level, dt_at);
      volatile double sink = m(n - 1, n - 1);
      (void)sink;
    }
    simd::clear_forced_level();
  }

  report.meta("paths_measured",
              std::to_string(measurable_paths().size()));
  const bool ok = report.write();
  return ok ? 0 : 1;
}

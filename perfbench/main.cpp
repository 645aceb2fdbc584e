// perfbench: the I-GEP benchmark (see README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tmpdir <dir>] [--git-sha <sha>] [--src-sha <sha>]
//   perfbench --self-test [--tmpdir <dir>]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// measures the per-layer metrics and prints the layer ledger to stderr.
// The last line of stdout is the result object; the line before it is
// the run record (seed, host fingerprint, sample counts, failures).
// Exit status is non-zero when any solve failed or the run was refused.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "blas/blas.hpp"
#include "gep/kernels.hpp"
#include "obs/io_model.hpp"
#include "obs/profile.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "parallel/task_graph.hpp"
#include "parallel/work_stealing.hpp"
#include "simd/dispatch.hpp"
#include "util/cpuinfo.hpp"
#include "util/peak.hpp"
#include "util/timer.hpp"

extern char** environ;

namespace perfbench {
void set_temp_dir(const std::string& dir);
}

namespace {

using namespace perfbench;
namespace obs = gep::obs;
using gep::WallTimer;

// An untraced run sets up at least kMinSetups times, and goes on while
// the set-up phase has used less than a quarter of --seconds (at most
// kMaxSetups); setup_s is the median. Every run makes at least
// kMinSolves timed solves whatever --seconds says.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 16;
constexpr int kMinSolves = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool self_test = false;
  std::string tmpdir, git_sha = "unknown", src_sha = "unknown";
};

// --- small utilities -----------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto s = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

// Resets the kernel's peak-RSS mark of this process (Linux clear_refs).
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024;
  }
  return 0.0;
}

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char b[8];
      std::snprintf(b, sizeof b, "\\u%04x", c);
      o += b;
    } else {
      o += c;
    }
  }
  return o + "\"";
}

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char b[40];
  std::snprintf(b, sizeof b, "%.17g", v);
  return b;
}

std::string json_list(const std::vector<double>& v) {
  std::string o = "[";
  for (double x : v) o += (o.size() > 1 ? "," : "") + num(x);
  return o + "]";
}

// --- environment and host fingerprint ------------------------------------

// Every GEP_* variable is refused except these, which are only recorded:
// the library reads the rest as knobs that change what runs (runtime,
// lookahead, Strassen and packed-GEMM thresholds, forced scalar
// kernels) or add work to the run (tracing, sampling, watchdog, stat
// server, progress ticker, checkpoints, dumps).
constexpr const char* kRecordedEnv[] = {"GEP_GIT_SHA"};

bool scan_env(std::vector<std::string>* recorded,
              std::vector<std::string>* refused) {
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("GEP_", 0) != 0) continue;
    const std::string name = kv.substr(0, kv.find('='));
    const bool ok =
        std::any_of(std::begin(kRecordedEnv), std::end(kRecordedEnv),
                    [&](const char* r) { return name == r; });
    (ok ? recorded : refused)->push_back(kv);
  }
  return refused->empty();
}

std::string fingerprint(const Args& a, const Spec& s, bool rss_reset,
                        const std::vector<std::string>& env) {
  const gep::CpuInfo ci = gep::query_cpu_info();
  std::string caches = "[";
  for (const gep::CacheLevel& c : ci.caches) {
    if (caches.size() > 1) caches += ",";
    caches += "{\"level\":" + std::to_string(c.level) + ",\"type\":" +
              json_str(c.type) + ",\"bytes\":" + std::to_string(c.size_bytes) +
              "}";
  }
  caches += "]";
  std::string envs = "[";
  for (const std::string& e : env)
    envs += (envs.size() > 1 ? "," : "") + json_str(e);
  envs += "]";
  return std::string("{") + "\"logical_cpus\":" +
         std::to_string(ci.logical_cpus) +
         ",\"cpu_model\":" + json_str(ci.model_name) + ",\"caches\":" + caches +
         ",\"peak_gflops_1t\":" + num(gep::measured_peak_gflops()) +
         ",\"simd_dispatch\":" + json_str(gep::simd::active_name()) +
         ",\"cpu_features\":" + json_str(ci.features.summary()) +
         ",\"gep_obs\":" + std::to_string(GEP_OBS) +
         ",\"git_sha\":" + json_str(a.git_sha) +
         ",\"src_sha256\":" + json_str(a.src_sha) +
         ",\"threads\":" + std::to_string(s.threads) +
         ",\"fewer_cpus_than_threads\":" +
         (ci.logical_cpus < s.threads ? "true" : "false") +
         ",\"peak_rss_reset\":" + (rss_reset ? "true" : "false") +
         ",\"gep_env\":" + envs + "}";
}

// --- per-solve layer counters --------------------------------------------

struct Counters {
  double leaf_calls = 0, updates = 0, strassen = 0, steals = 0;
  gep::PageCacheStats io{};
};

Counters read_counters(const Workload& w) {
  static const std::vector<obs::Counter> leafs = {
      obs::counter("typed.leaf_calls.A"), obs::counter("typed.leaf_calls.B"),
      obs::counter("typed.leaf_calls.C"), obs::counter("typed.leaf_calls.D"),
      obs::counter("typed.mm.leaf_calls")};
  static const std::vector<obs::Counter> updates = {
      obs::counter("typed.updates.A"), obs::counter("typed.updates.B"),
      obs::counter("typed.updates.C"), obs::counter("typed.updates.D"),
      obs::counter("typed.mm.updates")};
  static const obs::Counter strassen = obs::counter("kernels.strassen.calls");
  static const obs::Counter steals = obs::counter("parallel.ws.steals");
  Counters c;
  for (const obs::Counter& k : leafs)
    c.leaf_calls += static_cast<double>(k.value());
  for (const obs::Counter& k : updates)
    c.updates += static_cast<double>(k.value());
  c.strassen = static_cast<double>(strassen.value());
  c.steals = static_cast<double>(steals.value());
  if (w.cache() != nullptr) c.io = w.cache()->stats();
  return c;
}

Counters minus(const Counters& b, const Counters& a) {
  Counters d;
  d.leaf_calls = b.leaf_calls - a.leaf_calls;
  d.updates = b.updates - a.updates;
  d.strassen = b.strassen - a.strassen;
  d.steals = b.steals - a.steals;
  auto& x = d.io;
  const auto &p = b.io, &q = a.io;
  x.pins = p.pins - q.pins;
  x.hits = p.hits - q.hits;
  x.page_ins = p.page_ins - q.page_ins;
  x.page_outs = p.page_outs - q.page_outs;
  x.prefetch_completed = p.prefetch_completed - q.prefetch_completed;
  x.prefetch_hits = p.prefetch_hits - q.prefetch_hits;
  x.prefetch_dropped = p.prefetch_dropped - q.prefetch_dropped;
  x.writebacks_async = p.writebacks_async - q.writebacks_async;
  x.io_retries = p.io_retries - q.io_retries;
  x.io_wait_seconds = p.io_wait_seconds - q.io_wait_seconds;
  x.io_wait_async_seconds = p.io_wait_async_seconds - q.io_wait_async_seconds;
  return d;
}

// --- the run -------------------------------------------------------------

struct Sample {
  double wall = 0, cpu = 0, check_s = 0, flush_s = 0;
  Counters d;
  // Traced solves only: profile figures of this one solve.
  bool traced = false;
  double leaf_self = 0, rec_self = 0, busy = 0, window = 0, coverage = 0,
         imbalance = 0, dropped = 0;
};

class Run {
 public:
  Run(Workload& w, bool rss_reset) : w_(w), rss_reset_(rss_reset) {}

  int attempted() const { return attempted_; }
  int failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }
  double peak_rss() const { return peak_rss_; }

  // One setup: restore inputs, time setup() (ending with the warm-up
  // solve), then check the warm-up output. The first warm-up's hash is
  // the reference every later output must match bit for bit.
  double setup() {
    w_.prepare();
    WallTimer t;
    w_.setup();
    const double s = t.seconds();
    double ignored = 0;
    verify(&ignored);
    return s;
  }

  // One timed solve (traced or not) followed by its untimed check. The
  // self-test passes `perturb` >= 0 to corrupt the output before the
  // check (see perturbed()).
  Sample solve(bool traced, double perturb = -1.0) {
    Sample s;
    s.traced = traced;
    w_.prepare();
    if (rss_reset_) reset_peak_rss();
    const Counters c0 = read_counters(w_);
    const double cpu0 = cpu_seconds();
    if (traced) {
      obs::Tracer::clear();
      obs::Tracer::start();
    }
    WallTimer t;
    std::string threw;
    try {
      w_.solve();
    } catch (const std::exception& e) {
      threw = std::string("solve threw: ") + e.what();
    }
    s.wall = t.seconds();
    if (traced) obs::Tracer::stop();
    s.cpu = cpu_seconds() - cpu0;
    s.d = minus(read_counters(w_), c0);
    s.flush_s = w_.last_flush_s();
    peak_rss_ = std::max(peak_rss_, peak_rss_mb());
    if (traced) profile(&s);
    if (!threw.empty()) {
      ++attempted_;
      fail(threw);
      return s;
    }
    if (perturb >= 0) {
      w_.perturb(perturb, static_cast<std::uint64_t>(attempted_));
    }
    verify(&s.check_s);
    return s;
  }

 private:
  void verify(double* check_s) {
    const std::uint64_t round = static_cast<std::uint64_t>(attempted_);
    WallTimer t;
    std::string why;
    try {
      why = w_.check(round);
      const std::uint64_t h = w_.output_hash();
      if (!have_ref_ && why.empty()) {
        ref_ = h;
        have_ref_ = true;
      } else if (why.empty() && h != ref_) {
        why = "output differs bit for bit from the warm-up solve";
      }
    } catch (const std::exception& e) {
      why = std::string("check threw: ") + e.what();
    }
    *check_s = t.seconds();
    ++attempted_;
    if (!why.empty()) fail(why);
  }

  void fail(const std::string& why) {
    ++failed_;
    if (failures_.size() < 8) failures_.push_back(why);
  }

  // Busy time is the union of each thread's span intervals and leaf time
  // the sum of leaf-span durations (leaves have no child spans), so a
  // fork-join thread that helps another group while it waits inside a
  // span is counted once. obs::Profile pops such a waiting span early
  // and counts the helped span again, which is why its coverage can
  // exceed 1; it is reported as gep.trace_coverage for that reason.
  void profile(Sample* s) {
    const std::vector<obs::ThreadTrace> traces = obs::Tracer::snapshot();
    std::uint64_t t_min = ~std::uint64_t{0}, t_max = 0;
    double busy_max = 0;
    int active = 0;
    for (const obs::ThreadTrace& tt : traces) {
      s->dropped += static_cast<double>(tt.dropped);
      if (tt.events.empty()) continue;
      std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
      for (const obs::TraceEvent& e : tt.events) {
        iv.emplace_back(e.t0_ns, e.t1_ns);
        if (e.m <= kBase) {
          s->leaf_self += static_cast<double>(e.t1_ns - e.t0_ns) * 1e-9;
        }
        t_min = std::min(t_min, e.t0_ns);
        t_max = std::max(t_max, e.t1_ns);
      }
      std::sort(iv.begin(), iv.end());
      double busy = 0;
      std::uint64_t lo = iv[0].first, hi = iv[0].second;
      for (const auto& [a, b] : iv) {
        if (a > hi) {
          busy += static_cast<double>(hi - lo) * 1e-9;
          lo = a;
        }
        hi = std::max(hi, b);
      }
      busy += static_cast<double>(hi - lo) * 1e-9;
      s->busy += busy;
      busy_max = std::max(busy_max, busy);
      ++active;
    }
    s->rec_self = std::max(0.0, s->busy - s->leaf_self);
    s->window = t_max > t_min ? static_cast<double>(t_max - t_min) * 1e-9 : 0.0;
    s->imbalance = active > 0 ? busy_max / (s->busy / active) : 1.0;
    s->coverage = obs::Profile::from_traces(traces).coverage();
  }

  Workload& w_;
  bool rss_reset_;
  bool have_ref_ = false;
  std::uint64_t ref_ = 0;
  int attempted_ = 0, failed_ = 0;
  std::vector<std::string> failures_;
  double peak_rss_ = 0;
};

// --- standalone layer probes (traced run) --------------------------------

// Median seconds of fn() over `reps` calls.
double time_median(int reps, const std::function<void()>& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    WallTimer w;
    fn();
    t.push_back(w.seconds());
  }
  return median(t);
}

// Seconds per call of the workload's dominant leaf on warm 64x64 tiles,
// called through the same dispatch wrapper the engines use.
double leaf_call_seconds(LeafKind k) {
  const index_t m = kBase;
  gep::Matrix<double> x(m, m), u(m, m), v(m, m);
  for (index_t i = 0; i < m * m; ++i) {
    const auto j = static_cast<std::uint64_t>(i);
    const double lo = k == LeafKind::Fw ? 1.0 : -1.0;
    x.data()[i] = lo + 2.0 * unit(7, 1, j);
    u.data()[i] = lo + 2.0 * unit(7, 2, j);
    v.data()[i] = lo + 2.0 * unit(7, 3, j);
  }
  auto call = [&] {
    switch (k) {
      case LeafKind::Fw:
        gep::kernel_fw(x.data(), u.data(), v.data(), m, m, m, m);
        break;
      case LeafKind::LuSchur:  // D-kind: no diagonal in i or j
        gep::kernel_lu(x.data(), u.data(), v.data(), u.data(), m, m, m, m,
                       m, false, false);
        break;
    }
  };
  for (int i = 0; i < 50; ++i) call();
  int batch = 1;
  for (WallTimer t; t.seconds() < 0.01; batch *= 2)
    for (int i = 0; i < batch; ++i) call();
  return time_median(9, [&] {
           for (int i = 0; i < batch; ++i) call();
         }) /
         batch;
}

// Cold page pin: a page that is on disk but not resident, pinned with
// the workload's page size and default robustness (CRC check on).
double miss_seconds() {
  const std::uint64_t frames = 16, pages = 4 * frames;
  gep::PageCache cache(frames * kPageBytes, kPageBytes);
  const int f = cache.register_file(pages);
  for (std::uint64_t p = 0; p < pages; ++p) {
    auto pin = cache.acquire(f, p, /*for_write=*/true);
    std::memset(pin.data(), static_cast<int>(p), kPageBytes);
  }
  cache.flush();  // every page clean on disk: a miss is one read + CRC
  std::vector<double> t;
  for (int round = 0; round < 4; ++round) {
    for (std::uint64_t p = 0; p < pages; ++p) {  // cyclic scan: all misses
      WallTimer w;
      auto pin = cache.acquire(f, p, /*for_write=*/false);
      t.push_back(w.seconds());
    }
  }
  return median(t);
}

struct Metric {
  std::string name, unit;
  double value;
};

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string o = "{";
  for (const Metric& m : ms) {
    if (o.size() > 1) o += ",";
    o += json_str(m.name) + ":{\"value\":" + num(m.value) +
         ",\"unit\":" + json_str(m.unit) + "}";
  }
  return o + "}";
}

template <class F>
double med(const std::vector<Sample>& ss, bool traced, F&& f) {
  std::vector<double> v;
  for (const Sample& s : ss)
    if (s.traced == traced) v.push_back(f(s));
  return median(v);
}

// Foreground page transfers of a solve: page-ins the prefetcher did not
// complete plus page-outs the write-behind did not take.
double fg_page_ins(const Sample& s) {
  return static_cast<double>(s.d.io.page_ins) -
         static_cast<double>(s.d.io.prefetch_completed);
}
double fg_page_outs(const Sample& s) {
  return static_cast<double>(s.d.io.page_outs) -
         static_cast<double>(s.d.io.writebacks_async);
}

// The tuned dgemm on one thread at n = 2048, GF/s: the GEMM ceiling.
double dgemm_gflops() {
  const index_t n = 2048;
  gep::Matrix<double> a(n, n), b(n, n), c(n, n, 0.0);
  for (index_t i = 0; i < n * n; ++i) {
    a.data()[i] = unit(3, 1, static_cast<std::uint64_t>(i)) - 0.5;
    b.data()[i] = unit(3, 2, static_cast<std::uint64_t>(i)) - 0.5;
  }
  auto call = [&] {
    gep::blas::dgemm(n, n, n, 1.0, a.data(), n, b.data(), n, c.data(), n);
  };
  call();
  return 2.0 * static_cast<double>(n * n * n) / time_median(3, call) * 1e-9;
}

// Per-layer metrics and the ledger, from the interleaved solves.
std::vector<Metric> layer_metrics(const Workload& w,
                                  const std::vector<Sample>& ss) {
  const Spec& sp = w.spec();
  const double p = sp.threads;
  // Medians over the untraced (m) and the traced (mt) solves.
  auto m = [&](auto f) { return med(ss, false, f); };
  auto mt = [&](auto f) { return med(ss, true, f); };
  auto io = [&](auto f) {
    return m([&](const Sample& s) { return static_cast<double>(f(s.d.io)); });
  };
  using Stats = gep::PageCacheStats;
  const double solve = m([](const Sample& s) { return s.wall; });
  const double traced = mt([](const Sample& s) { return s.wall; });

  // simd / host / gep
  const double leaf_call = leaf_call_seconds(sp.leaf);
  const double leaf_calls = m([](const Sample& s) { return s.d.leaf_calls; });
  const double updates = m([](const Sample& s) { return s.d.updates; });
  const double leaf_s = leaf_calls * leaf_call;
  const double peak = gep::measured_peak_gflops();

  // parallel
  const double pool_start =
      time_median(21, [] { gep::WorkStealingPool pool(4); });
  gep::TaskGraph g;
  const double dag_build = time_median(
      3, [&] { g = gep::build_typed_task_graph(sp.dag, sp.n, kBase); });

  // extmem
  const double miss = sp.ooc ? miss_seconds() : 0.0;
  const double predicted =
      sp.ooc ? obs::igep_io_prediction(
                   static_cast<double>(sp.n),
                   static_cast<double>(w.cache()->frames() * kPageBytes),
                   static_cast<double>(kPageBytes))
                   .total()
             : 0.0;
  const double page_ins = io([](const Stats& x) { return x.page_ins; });
  const double page_outs = io([](const Stats& x) { return x.page_outs; });
  auto io_rate = [&](auto num, auto den) {
    return m([&](const Sample& s) {
      const double d = static_cast<double>(den(s.d.io));
      return d > 0 ? static_cast<double>(num(s.d.io)) / d : 0.0;
    });
  };

  // The ledger: each traced solve's wall x workers split into leaf, I/O,
  // recursion above the leaf, idle and unattributed; medians over the
  // traced solves. I/O is the foreground page transfers times the
  // standalone miss cost (a write-back is charged as a read), taken out
  // of the leaf spans, where pins wait.
  auto io_s = [&](const Sample& s) {
    const double fg = std::max(0.0, fg_page_ins(s) + fg_page_outs(s));
    return std::min(s.leaf_self, fg * miss);
  };
  auto share = [&](auto f) {
    return mt([&](const Sample& s) { return f(s) / (p * s.wall); });
  };
  const double l_leaf =
      share([&](const Sample& s) { return s.leaf_self - io_s(s); });
  const double l_io = share(io_s);
  const double l_rec = share([](const Sample& s) { return s.rec_self; });
  const double l_idle =
      share([&](const Sample& s) { return p * s.window - s.busy; });
  const double l_unattr =
      share([&](const Sample& s) { return p * (s.wall - s.window); });
  const double leaf_self = mt([](const Sample& s) { return s.leaf_self; });
  const double rec_self = mt([](const Sample& s) { return s.rec_self; });
  const double leaf_share = leaf_s / (solve * p);
  const double overhead = traced / solve - 1.0;

  std::fprintf(stderr,
               "\nlayer ledger  %s  (base: traced solve_s_p50 %.4f s x %d "
               "workers = %.4f worker-s; untraced solve_s_p50 %.4f s)\n",
               sp.name, traced, sp.threads, traced * p, solve);
  auto row = [](const char* name, double v, const std::string& why) {
    std::fprintf(stderr, "  %-26s %8.4f  (%s)\n", name, v, why.c_str());
  };
  char b[160];
  std::snprintf(b, sizeof b, "%.4f s of leaf spans, minus I/O", leaf_self);
  row("leaf", l_leaf, b);
  std::snprintf(b, sizeof b, "%.0f + %.0f foreground page-ins + outs x %.1f us",
                mt(fg_page_ins), mt(fg_page_outs), miss * 1e6);
  row("I/O", l_io, b);
  std::snprintf(b, sizeof b, "%.4f s in spans above the leaf, joins included",
                rec_self);
  row("recursion above the leaf", l_rec, b);
  row("idle", l_idle, "workers x traced window - span-covered time");
  row("unattributed", l_unattr,
      "workers x (wall - traced window): pool start, DAG build, copies, "
      "flush");
  std::snprintf(b, sizeof b,
                "%.0f leaf calls x %.3f us standalone / (untraced "
                "solve_s_p50 x workers)",
                leaf_calls, leaf_call * 1e6);
  row("simd.leaf_share", leaf_share, b);
  std::snprintf(b, sizeof b, "traced %.4f s / untraced %.4f s - 1", traced,
                solve);
  row("obs.trace_overhead", overhead, b);
  if (!sp.ooc) {
    std::fprintf(stderr, "  reported as 0: extmem.* and ledger.io (in-core "
                         "workload, no page cache)\n");
  }
  if (sp.leaf != LeafKind::LuSchur) {
    std::fprintf(stderr, "  reported as 0: apps.residual (not a linear "
                         "solve)\n");
  }

  const double kb3 = static_cast<double>(kBase * kBase * kBase);
  return {
      {"simd.leaf_rate", "Gupd/s", kb3 / leaf_call * 1e-9},
      {"simd.leaf_s", "s", leaf_s},
      {"simd.leaf_share", "fraction", leaf_share},
      {"simd.strassen_calls", "count",
       m([](const Sample& s) { return s.d.strassen; })},
      {"host.peak_gflops", "GF/s", peak},
      {"host.pct_peak", "%", 100.0 * 2.0 * updates / solve * 1e-9 / (peak * p)},
      {"gep.leaf_calls", "count", leaf_calls},
      {"gep.updates", "count", updates},
      {"gep.leaf_self_s", "s", leaf_self},
      {"gep.recursion_self_s", "s", rec_self},
      {"gep.trace_coverage", "fraction",
       mt([](const Sample& s) { return s.coverage; })},
      {"parallel.pool_start_s", "s", pool_start},
      {"parallel.dag_build_s", "s", dag_build},
      {"parallel.dag_tasks", "count", static_cast<double>(g.size())},
      {"parallel.dag_edges", "count", static_cast<double>(g.edge_count())},
      {"parallel.dag_slack", "fraction",
       g.work() / (p * gep::task_graph_makespan(g, sp.threads))},
      {"parallel.busy_frac", "fraction",
       mt([&](const Sample& s) { return s.busy / (p * s.window); })},
      {"parallel.imbalance", "ratio",
       mt([](const Sample& s) { return s.imbalance; })},
      {"parallel.steals", "count",
       m([](const Sample& s) { return s.d.steals; })},
      {"extmem.load_s", "s", w.load_s()},
      {"extmem.flush_s", "s", m([](const Sample& s) { return s.flush_s; })},
      {"extmem.miss_us", "us", miss * 1e6},
      {"extmem.page_ins", "count", page_ins},
      {"extmem.page_outs", "count", page_outs},
      {"extmem.hit_rate", "fraction",
       io_rate([](const Stats& x) { return x.hits; },
               [](const Stats& x) { return x.pins; })},
      {"extmem.prefetch_hit_rate", "fraction",
       io_rate([](const Stats& x) { return x.prefetch_hits; },
               [](const Stats& x) { return x.prefetch_completed; })},
      {"extmem.prefetch_dropped", "count",
       io([](const Stats& x) { return x.prefetch_dropped; })},
      {"extmem.io_ratio", "ratio",
       predicted > 0 ? (page_ins + page_outs) / predicted : 0.0},
      {"extmem.sim_io_wait_fg_s", "s",
       io([](const Stats& x) { return x.io_wait_foreground_seconds(); })},
      {"extmem.io_retries", "count",
       io([](const Stats& x) { return x.io_retries; })},
      {"apps.residual", "ratio", w.last_residual()},
      {"apps.check_s", "s", m([](const Sample& s) { return s.check_s; })},
      {"blas.dgemm_rate", "GF/s", dgemm_gflops()},
      {"obs.trace_overhead", "fraction", overhead},
      {"obs.trace_dropped", "count",
       mt([](const Sample& s) { return s.dropped; })},
      {"ledger.leaf", "fraction", l_leaf},
      {"ledger.io", "fraction", l_io},
      {"ledger.recursion", "fraction", l_rec},
      {"ledger.idle", "fraction", l_idle},
      {"ledger.unattributed", "fraction", l_unattr},
  };
}

// --- self-test -----------------------------------------------------------

// Runs every workload small through the same harness as a measured run:
// a set-up, a clean solve, a solve whose output is then changed by 1e-6
// of one element (the engine-independent check must fail) and one whose
// output is moved by one ulp at one element (the bit-identity check must
// fail). Passes when exactly those two solves are counted as failed.
int self_test() {
  int bad = 0;
  for (const Spec& sp : specs()) {
    const index_t n = sp.ooc ? 512 : 256;
    auto w = make_workload(sp.name, 42, n);
    Run run(*w, false);
    run.setup();
    run.solve(false);
    const bool clean = run.failed() == 0;
    run.solve(false, 1e-6);
    const bool gross = run.failed() == 1;
    run.solve(false, 0.0);
    const bool ulp = run.failed() == 2 &&
                     run.failures().back().find("bit for bit") !=
                         std::string::npos;
    w->teardown();
      const bool ok = clean && gross && ulp;
    bad += ok ? 0 : 1;
    std::printf("self-test %-12s n=%-4lld clean solves %s; 1e-6 change %s; "
                "1-ulp change %s; %d/%d solves failed -> %s\n",
                sp.name, static_cast<long long>(n),
                clean ? "pass" : "FAIL", gross ? "caught" : "NOT caught",
                ulp ? "caught by bit identity" : "NOT caught",
                run.failed(), run.attempted(), ok ? "ok" : "FAIL");
    for (const std::string& f : run.failures())
      std::printf("  reported: %s\n", f.c_str());
  }
  std::printf("self-test %s\n", bad == 0 ? "passed" : "FAILED");
  return bad == 0 ? 0 : 1;
}

bool parse(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--self-test") {
      a->self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    errno = 0;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != 0 || errno != 0) return false;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (*end != 0 || !(a->seconds > 0 && a->seconds <= 120)) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else if (k == "--tmpdir") {
      a->tmpdir = v;
    } else if (k == "--git-sha") {
      a->git_sha = v;
    } else if (k == "--src-sha") {
      a->src_sha = v;
    } else {
      return false;
    }
  }
  return a->self_test || !a->workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s>"
                 " --trace <0|1> [--tmpdir d] [--git-sha s] [--src-sha s]\n"
                 "       perfbench --self-test [--tmpdir d]\n");
    return 2;
  }
  std::vector<std::string> recorded, refused;
  if (!scan_env(&recorded, &refused)) {
    for (const std::string& e : refused)
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n",
                   e.c_str());
    return 2;
  }
  set_temp_dir(a.tmpdir);
  if (a.self_test) return self_test();

  auto w = make_workload(a.workload, a.seed);
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  const Spec& sp = w->spec();
  const bool rss_reset = reset_peak_rss();
  const std::string host = fingerprint(a, sp, rss_reset, recorded);
  if (gep::query_cpu_info().logical_cpus < sp.threads) {
    std::fprintf(stderr, "perfbench: warning: host has fewer logical CPUs "
                 "than %s's %d threads\n", sp.name, sp.threads);
  }

  Run run(*w, rss_reset);
  std::vector<double> setup_s;
  std::vector<Sample> ss;
  std::string fatal;
  try {
    const int max_setups = a.trace ? 1 : kMaxSetups;
    for (WallTimer t; static_cast<int>(setup_s.size()) < max_setups;) {
      if (static_cast<int>(setup_s.size()) >= kMinSetups &&
          t.seconds() >= a.seconds / 4) {
        break;
      }
      if (!setup_s.empty()) w->teardown();
      setup_s.push_back(run.setup());
    }
    int traced = 0, plain = 0;
    for (WallTimer t; t.seconds() < a.seconds || plain < kMinSolves ||
                      (a.trace && traced < kMinSolves);) {
      // The traced run interleaves traced and untraced solves so that
      // obs.trace_overhead compares solves made under the same drift.
      const bool tr = a.trace && traced < plain;
      ss.push_back(run.solve(tr));
      ++(tr ? traced : plain);
    }
  } catch (const std::exception& e) {
    fatal = e.what();
  }

  std::vector<double> walls;
  for (const Sample& s : ss)
    if (!s.traced) walls.push_back(s.wall);
  std::vector<Metric> ms;
  if (fatal.empty() && a.trace) {
    ms = layer_metrics(*w, ss);
  } else if (fatal.empty()) {
    ms = {{"solve_s_p50", "s", median(walls)},
          {"cpu_s_p50", "s",
           med(ss, false, [](const Sample& s) { return s.cpu; })},
          {"setup_s", "s", median(setup_s)},
          {"peak_rss_mb", "MB", run.peak_rss()},
          {"pass_frac", "fraction",
           1.0 - static_cast<double>(run.failed()) / run.attempted()}};
  }
  std::vector<std::string> failures = run.failures();
  if (!fatal.empty()) failures.push_back(fatal);
  const int attempted = std::max(1, run.attempted() + (fatal.empty() ? 0 : 1));
  const int failed = run.failed() + (fatal.empty() ? 0 : 1);

  std::string fails = "[";
  for (const std::string& f : failures)
    fails += (fails.size() > 1 ? "," : "") + json_str(f);
  fails += "]";
  std::printf(
      "{\"record\":{\"workload\":%s,\"seed\":%llu,\"trace\":%d,"
      "\"seconds\":%s,\"samples\":{\"solve\":%zu,\"traced\":%zu,"
      "\"setup\":%zu},\"solve_s\":%s,\"setup_s\":%s,\"fail_frac\":%s,"
      "\"failures\":%s,\"host\":%s}}\n",
      json_str(sp.name).c_str(), static_cast<unsigned long long>(a.seed),
      a.trace ? 1 : 0, num(a.seconds).c_str(), walls.size(),
      ss.size() - walls.size(), setup_s.size(), json_list(walls).c_str(),
      json_list(setup_s).c_str(),
      num(static_cast<double>(failed) / attempted).c_str(), fails.c_str(),
      host.c_str());
  std::printf(
      "{\"correct\":%s,\"attempted\":%d,\"failed\":%d,\"metrics\":%s}\n",
      failed == 0 ? "true" : "false", attempted, failed,
      metrics_json(ms).c_str());
  std::fflush(stdout);
  for (const std::string& f : failures)
    std::fprintf(stderr, "perfbench: FAILED: %s\n", f.c_str());
  return failed == 0 ? 0 : 1;
}

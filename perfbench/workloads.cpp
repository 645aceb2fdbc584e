// The benchmark workloads. Each drives one public entry point of the
// library and checks its output with an engine-independent O(n^2) test.
// Why each was chosen is in README.md.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "apps/apps.hpp"
#include "apps/linear_solver.hpp"
#include "bench.hpp"
#include "extmem/ooc_typed.hpp"
#include "parallel/work_stealing.hpp"
#include "util/timer.hpp"

namespace perfbench {

using gep::Matrix;
using gep::apps::Engine;

void Hasher::add(const double* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof p[i]);
    std::memcpy(&bits, &p[i], sizeof bits);
    h_ = (h_ ^ mix64(bits + n_)) * 0x100000001b3ULL;
    ++n_;
  }
}

namespace {

// The engine-independent checks (stated in README.md).
constexpr double kApspRelTol = 1e-9;
constexpr int kApspSources = 4;
constexpr double kResidualTol = 1.0;

// Input streams (the `stream` argument of unit()).
enum Stream : std::uint64_t { kWeights, kMatA, kRhs, kPick };

// --- APSP ----------------------------------------------------------------

// Complete digraph with edge weights uniform in [1, 1000).
double edge_weight(std::uint64_t seed, index_t n, index_t u, index_t v) {
  if (u == v) return 0.0;
  return 1.0 + 999.0 * unit(seed, kWeights,
                            static_cast<std::uint64_t>(u * n + v));
}

void fill_weights(Matrix<double>& d, std::uint64_t seed) {
  const index_t n = d.rows();
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) d(i, j) = edge_weight(seed, n, i, j);
}

index_t pick(std::uint64_t seed, std::uint64_t round, int k, index_t n) {
  return static_cast<index_t>(
      mix64(seed ^ mix64(round * 64 + static_cast<std::uint64_t>(k) +
                         kPick)) %
      static_cast<std::uint64_t>(n));
}

// Dense O(n^2) Dijkstra from `s` over the generated weights.
std::vector<double> dijkstra(std::uint64_t seed, index_t n, index_t s) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(static_cast<std::size_t>(n), inf);
  std::vector<char> done(static_cast<std::size_t>(n), 0);
  dist[static_cast<std::size_t>(s)] = 0.0;
  for (index_t it = 0; it < n; ++it) {
    index_t u = -1;
    for (index_t v = 0; v < n; ++v) {
      if (!done[static_cast<std::size_t>(v)] &&
          (u < 0 || dist[static_cast<std::size_t>(v)] <
                        dist[static_cast<std::size_t>(u)])) {
        u = v;
      }
    }
    done[static_cast<std::size_t>(u)] = 1;
    const double du = dist[static_cast<std::size_t>(u)];
    for (index_t v = 0; v < n; ++v) {
      if (done[static_cast<std::size_t>(v)]) continue;
      const double alt = du + edge_weight(seed, n, u, v);
      if (alt < dist[static_cast<std::size_t>(v)])
        dist[static_cast<std::size_t>(v)] = alt;
    }
  }
  return dist;
}

// Compares the rows of kApspSources seeded sources against Dijkstra.
// `row(s, out)` fills out[0..n) with the solver's distances from s.
template <class RowFn>
std::string check_apsp(std::uint64_t seed, std::uint64_t round, index_t n,
                       RowFn&& row) {
  std::vector<double> got(static_cast<std::size_t>(n));
  for (int k = 0; k < kApspSources; ++k) {
    const index_t s = pick(seed, round, k, n);
    row(s, got.data());
    const std::vector<double> ref = dijkstra(seed, n, s);
    for (index_t j = 0; j < n; ++j) {
      const double r = ref[static_cast<std::size_t>(j)];
      const double g = got[static_cast<std::size_t>(j)];
      if (!(std::abs(g - r) <= kApspRelTol * std::max(1.0, std::abs(r)))) {
        return "apsp: d(" + std::to_string(s) + "," + std::to_string(j) +
               ") = " + std::to_string(g) + ", Dijkstra gives " +
               std::to_string(r);
      }
    }
  }
  return {};
}

class ApspInCore final : public Workload {
 public:
  ApspInCore(const Spec& s, std::uint64_t seed) : Workload(s), seed_(seed) {}

  void prepare() override {
    if (d_.rows() == 0) d_ = Matrix<double>(spec_.n, spec_.n);
    fill_weights(d_, seed_);
  }
  void setup() override { solve(); }
  void teardown() override {}
  void solve() override {
    gep::apps::floyd_warshall(d_, Engine::IGep, {.threads = spec_.threads});
  }
  std::string check(std::uint64_t round) override {
    return check_apsp(seed_, round, spec_.n, [this](index_t s, double* out) {
      std::copy(&d_(s, 0), &d_(s, 0) + spec_.n, out);
    });
  }
  std::uint64_t output_hash() override {
    Hasher h;
    h.add(d_.data(), static_cast<std::size_t>(spec_.n * spec_.n));
    return h.value();
  }
  void perturb(double rel, std::uint64_t round) override {
    const index_t s = pick(seed_, round, 0, spec_.n);
    double& v = d_(s, (s + 1) % spec_.n);
    v = perturbed(v, rel);
  }

 private:
  std::uint64_t seed_;
  Matrix<double> d_;
};

class ApspOutOfCore final : public Workload {
 public:
  ApspOutOfCore(const Spec& s, std::uint64_t seed)
      : Workload(s), seed_(seed) {}

  void prepare() override {
    Matrix<double> init(spec_.n, spec_.n);
    fill_weights(init, seed_);
    if (!m_) {  // setup() loads it: OocTiledMatrix::load is program side
      init_ = std::move(init);
      return;
    }
    cache_->disable_async_io();  // load() pins single-threaded
    m_->load(init);
    init = Matrix<double>();
    ::malloc_trim(0);  // keep the in-core image out of the timed RSS
    cache_->enable_async_io();
  }
  void setup() override {
    const std::uint64_t pages =
        static_cast<std::uint64_t>(spec_.n * spec_.n) * sizeof(double) /
        kPageBytes;
    // M = 1/8 of the matrix, with a floor that keeps the self-test's
    // small matrices above the out-of-core engine's pin sizing contract.
    const std::uint64_t frames = std::max<std::uint64_t>(pages / 8, 32);
    cache_ = std::make_unique<gep::PageCache>(frames * kPageBytes, kPageBytes);
    m_ = std::make_unique<gep::OocTiledMatrix<double>>(*cache_, spec_.n,
                                                        spec_.n);
    gep::WallTimer t;
    m_->load(init_);
    load_s_ = t.seconds();
    init_ = Matrix<double>();
    ::malloc_trim(0);
    cache_->enable_async_io();
    pool_ = std::make_unique<gep::WorkStealingPool>(spec_.threads);
    solve();
  }
  void teardown() override {
    pool_.reset();
    m_.reset();
    cache_.reset();
  }
  void solve() override {
    gep::ooc_igep_floyd_warshall_dag(*m_, pool_.get());
    gep::WallTimer t;
    cache_->flush();
    flush_s_ = t.seconds();
  }
  std::string check(std::uint64_t round) override {
    cache_->disable_async_io();  // get() pins single-threaded
    return check_apsp(seed_, round, spec_.n, [this](index_t s, double* out) {
      for (index_t j = 0; j < spec_.n; ++j) out[j] = m_->get(s, j);
    });
  }
  std::uint64_t output_hash() override {
    cache_->disable_async_io();
    Hasher h;
    for (index_t i = 0; i < spec_.n; ++i)
      for (index_t j = 0; j < spec_.n; ++j) h.add(m_->get(i, j));
    return h.value();
  }
  void perturb(double rel, std::uint64_t round) override {
    cache_->disable_async_io();
    const index_t s = pick(seed_, round, 0, spec_.n);
    const index_t j = (s + 1) % spec_.n;
    m_->set(s, j, perturbed(m_->get(s, j), rel));
  }

  const gep::PageCache* cache() const override { return cache_.get(); }
  double last_flush_s() const override { return flush_s_; }
  double load_s() const override { return load_s_; }

 private:
  std::uint64_t seed_;
  Matrix<double> init_;
  // Destroyed in reverse: the pool before the matrix before the cache.
  std::unique_ptr<gep::PageCache> cache_;
  std::unique_ptr<gep::OocTiledMatrix<double>> m_;
  std::unique_ptr<gep::WorkStealingPool> pool_;
  double load_s_ = 0.0;
  double flush_s_ = 0.0;
};

// --- linear solve --------------------------------------------------------

class LinSolve final : public Workload {
 public:
  LinSolve(const Spec& s, std::uint64_t seed) : Workload(s), seed_(seed) {}

  // A is strictly diagonally dominant (off-diagonal entries in [-1, 1),
  // diagonal n + [0, 1)), so LU without pivoting is stable.
  void prepare() override {
    if (a_.rows() != 0) return;  // solve() takes A by value; b is const
    const index_t n = spec_.n;
    a_ = Matrix<double>(n, n);
    b_.resize(static_cast<std::size_t>(n));
    a_norm_ = 0.0;
    for (index_t i = 0; i < n; ++i) {
      double row = 0.0;
      for (index_t j = 0; j < n; ++j) {
        const double u =
            unit(seed_, kMatA, static_cast<std::uint64_t>(i * n + j));
        a_(i, j) = i == j ? static_cast<double>(n) + u : 2.0 * u - 1.0;
        row += std::abs(a_(i, j));
      }
      a_norm_ = std::max(a_norm_, row);
      b_[static_cast<std::size_t>(i)] =
          2.0 * unit(seed_, kRhs, static_cast<std::uint64_t>(i)) - 1.0;
    }
  }
  void setup() override { solve(); }
  void teardown() override {}
  void solve() override {
    x_ = gep::apps::solve(a_, b_, Engine::IGep, {.threads = spec_.threads});
  }
  // Scaled residual ||Ax - b||_inf / (||A||_inf ||x||_inf n eps).
  std::string check(std::uint64_t) override {
    const index_t n = spec_.n;
    double r_max = 0.0, x_max = 0.0;
    for (index_t i = 0; i < n; ++i) {
      double acc = -b_[static_cast<std::size_t>(i)];
      for (index_t j = 0; j < n; ++j)
        acc += a_(i, j) * x_[static_cast<std::size_t>(j)];
      r_max = std::max(r_max, std::abs(acc));
      x_max = std::max(x_max, std::abs(x_[static_cast<std::size_t>(i)]));
    }
    residual_ = r_max / (a_norm_ * x_max * static_cast<double>(n) *
                         std::numeric_limits<double>::epsilon());
    if (!(residual_ < kResidualTol)) {
      return "linsolve: scaled residual " + std::to_string(residual_) +
             " >= " + std::to_string(kResidualTol);
    }
    return {};
  }
  std::uint64_t output_hash() override {
    Hasher h;
    h.add(x_.data(), x_.size());
    return h.value();
  }
  void perturb(double rel, std::uint64_t round) override {
    double& v = x_[static_cast<std::size_t>(pick(seed_, round, 0, spec_.n))];
    v = perturbed(v, rel);
  }
  double last_residual() const override { return residual_; }

 private:
  std::uint64_t seed_;
  Matrix<double> a_;
  std::vector<double> b_, x_;
  double a_norm_ = 0.0;
  double residual_ = 0.0;
};

}  // namespace

const std::vector<Spec>& specs() {
  using gep::DagProblem;
  static const std::vector<Spec> s = {
      {"apsp-t4", 4, 2048, LeafKind::Fw, DagProblem::FloydWarshall, false},
      {"linsolve-t4", 4, 4096, LeafKind::LuSchur, DagProblem::LU, false},
      {"apsp-ooc-t3", 3, 2048, LeafKind::Fw, DagProblem::FloydWarshall, true},
  };
  return s;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, index_t n) {
  for (Spec s : specs()) {
    if (name != s.name) continue;
    if (n > 0) s.n = n;
    switch (s.leaf) {
      case LeafKind::Fw:
        if (s.ooc) return std::make_unique<ApspOutOfCore>(s, seed);
        return std::make_unique<ApspInCore>(s, seed);
      case LeafKind::LuSchur: return std::make_unique<LinSolve>(s, seed);
    }
  }
  return nullptr;
}

}  // namespace perfbench

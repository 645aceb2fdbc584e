#include "apps/linear_solver.hpp"

#include <cmath>
#include <stdexcept>

#include "obs/progress.hpp"
#include "obs/stat_server.hpp"

namespace gep::apps {

namespace {

// The solver entry points are the ROADMAP's long-running service front
// door, so they arm the embedded stat server themselves ($GEP_STAT_PORT;
// a no-op when unset or already running) and publish an LU progress
// meter for /progress. The closed form tracks the typed engine's work
// counters; other engines simply report fraction 0.
struct SolverTelemetry {
  obs::ProgressMeter meter;
  obs::ScopedStatProgress publication;

  SolverTelemetry(index_t n, const RunOptions& opts, const char* label)
      : meter(begun(n, opts)), publication(meter, label) {}

 private:
  // begin() must complete before the meter is published (the server
  // samples concurrently under its own lock).
  static obs::ProgressMeter begun(index_t n, const RunOptions& opts) {
    obs::StatServer::start_from_env();
    obs::ProgressMeter m;
    m.begin(obs::typed_lu_updates(static_cast<double>(n),
                                  static_cast<double>(opts.base_size)),
            2.0 / 3.0 * static_cast<double>(n) * static_cast<double>(n) *
                static_cast<double>(n));
    return m;
  }
};

// sum_k a[k] * b[k] over eight independent partial sums: the one-chain
// form is bound by the FP-add latency and cannot be vectorized without
// reassociation, this one streams both rows at memory speed. Fixed
// association, so results are deterministic.
double dot(const double* a, const double* b, index_t n) {
  constexpr index_t W = 8;
  double part[W] = {};
  index_t k = 0;
  for (; k + W <= n; k += W) {
    for (index_t l = 0; l < W; ++l) part[l] += a[k + l] * b[k + l];
  }
  double tail = 0;
  for (; k < n; ++k) tail += a[k] * b[k];
  return ((part[0] + part[1]) + (part[2] + part[3])) +
         ((part[4] + part[5]) + (part[6] + part[7])) + tail;
}

}  // namespace

void forward_substitute(const Matrix<double>& lu, std::vector<double>& x) {
  const index_t n = lu.rows();
  for (index_t i = 0; i < n; ++i) {
    // L has unit diagonal.
    x[static_cast<std::size_t>(i)] -= dot(lu.data() + i * n, x.data(), i);
  }
}

void backward_substitute(const Matrix<double>& lu, std::vector<double>& x) {
  const index_t n = lu.rows();
  for (index_t i = n - 1; i >= 0; --i) {
    const double acc =
        x[static_cast<std::size_t>(i)] -
        dot(lu.data() + i * n + i + 1, x.data() + i + 1, n - 1 - i);
    x[static_cast<std::size_t>(i)] = acc / lu(i, i);
  }
}

std::vector<double> solve(Matrix<double> a, const std::vector<double>& b,
                          Engine engine, RunOptions opts) {
  const index_t n = a.rows();
  if (a.cols() != n || b.size() != static_cast<std::size_t>(n)) {
    throw std::invalid_argument("solve: dimension mismatch");
  }
  SolverTelemetry telemetry(n, opts, "solve");
  lu_decompose(a, engine, opts);
  std::vector<double> x = b;
  forward_substitute(a, x);
  backward_substitute(a, x);
  return x;
}

Matrix<double> solve(Matrix<double> a, const Matrix<double>& b, Engine engine,
                     RunOptions opts) {
  const index_t n = a.rows();
  if (a.cols() != n || b.rows() != n) {
    throw std::invalid_argument("solve: dimension mismatch");
  }
  SolverTelemetry telemetry(n, opts, "solve");
  lu_decompose(a, engine, opts);
  Matrix<double> x = b;
  // Column-wise triangular solves against the shared factor.
  std::vector<double> col(static_cast<std::size_t>(n));
  for (index_t c = 0; c < b.cols(); ++c) {
    for (index_t i = 0; i < n; ++i) col[static_cast<std::size_t>(i)] = x(i, c);
    forward_substitute(a, col);
    backward_substitute(a, col);
    for (index_t i = 0; i < n; ++i) x(i, c) = col[static_cast<std::size_t>(i)];
  }
  return x;
}

double determinant(Matrix<double> a, Engine engine, RunOptions opts) {
  if (a.cols() != a.rows()) throw std::invalid_argument("det: square only");
  lu_decompose(a, engine, opts);
  double det = 1.0;
  for (index_t i = 0; i < a.rows(); ++i) det *= a(i, i);
  return det;
}

Matrix<double> invert(Matrix<double> a, Engine engine, RunOptions opts) {
  const index_t n = a.rows();
  if (a.cols() != n) throw std::invalid_argument("invert: square only");
  Matrix<double> eye(n, n, 0.0);
  for (index_t i = 0; i < n; ++i) eye(i, i) = 1.0;
  return solve(std::move(a), eye, engine, opts);
}

NumericReport lu_decompose_guarded(Matrix<double>& a,
                                   const BreakdownGuard& guard, Engine engine,
                                   RunOptions opts) {
  const index_t n = a.rows();
  if (a.cols() != n) {
    throw std::invalid_argument("lu_decompose_guarded: square only");
  }
  NumericReport rep;
  // One-pass total: boost rounds re-factor, so /progress can exceed 1.0
  // on a breakdown-heavy system — itself a useful live signal.
  SolverTelemetry telemetry(n, opts, "lu_guarded");
  const double amax = guard_max_abs(a);
  const double tiny = guard.threshold(n, amax);
  const Matrix<double> orig = a;  // retry base + residual reference
  double shift = 0;
  for (int round = 0;; ++round) {
    lu_decompose(a, engine, opts);
    double worst = 0;
    const index_t bad = scan_lu_pivots(a, tiny, &worst);
    if (bad < 0 && lu_factors_finite(a)) break;
    ++rep.breakdowns;
    detail_guard::numeric_obs().breakdowns.inc();
    if (guard.policy == BreakdownPolicy::Throw) {
      throw NumericBreakdownError(
          bad >= 0 ? bad : 0, worst,
          "lu_decompose_guarded: pivot " + std::to_string(bad) +
              " has magnitude " + std::to_string(worst) + " <= " +
              std::to_string(tiny) +
              "; the no-pivot precondition does not hold");
    }
    if (guard.policy == BreakdownPolicy::Report ||
        round >= guard.max_boost_rounds) {
      break;  // hand the (possibly broken) factors to the caller
    }
    // Boost: factor the regularized system A + mu*I instead. The shift
    // starts at boost_scale * |A|_max and grows 10x per retry.
    shift = shift == 0 ? guard.boost_scale * (amax > 0 ? amax : 1.0)
                       : shift * 10.0;
    rep.diagonal_shift = shift;
    ++rep.boosts;
    detail_guard::numeric_obs().boosts.inc();
    a = orig;
    for (index_t i = 0; i < n; ++i) a(i, i) += shift;
  }
  const double lumax = guard_max_abs(a);
  rep.growth_factor = amax > 0 ? lumax / amax : lumax;
  if (guard.residual_samples > 0) {
    // Validate against the matrix actually factored: orig + shift*I.
    Matrix<double> target = orig;
    for (index_t i = 0; shift != 0 && i < n; ++i) target(i, i) += shift;
    const double r = lu_residual_sample(target, a, guard.residual_samples);
    ++rep.residual_checks;
    detail_guard::numeric_obs().residual_checks.inc();
    rep.residual_max = r;
    if (!(r <= guard.residual_limit)) {  // NaN counts as a failure
      ++rep.residual_failures;
      detail_guard::numeric_obs().residual_failures.inc();
    }
  }
  return rep;
}

std::vector<double> solve_guarded(Matrix<double> a,
                                  const std::vector<double>& b,
                                  const BreakdownGuard& guard,
                                  NumericReport* report, Engine engine,
                                  RunOptions opts) {
  const index_t n = a.rows();
  if (a.cols() != n || b.size() != static_cast<std::size_t>(n)) {
    throw std::invalid_argument("solve_guarded: dimension mismatch");
  }
  const NumericReport rep = lu_decompose_guarded(a, guard, engine, opts);
  std::vector<double> x = b;
  forward_substitute(a, x);
  backward_substitute(a, x);
  if (report != nullptr) *report = rep;
  return x;
}

double residual_inf(const Matrix<double>& a, const std::vector<double>& x,
                    const std::vector<double>& b) {
  const index_t n = a.rows();
  double worst = 0;
  for (index_t i = 0; i < n; ++i) {
    double r = -b[static_cast<std::size_t>(i)];
    for (index_t j = 0; j < a.cols(); ++j) {
      r += a(i, j) * x[static_cast<std::size_t>(j)];
    }
    worst = std::max(worst, std::abs(r));
  }
  return worst;
}

}  // namespace gep::apps

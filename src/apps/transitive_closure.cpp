#include "apps/apps.hpp"

#include <stdexcept>

#include "apps/runtime_select.hpp"
#include "gep/cgep.hpp"
#include "gep/functors.hpp"
#include "gep/typed.hpp"

namespace gep::apps {
namespace {

// Iterative Warshall with the row-skip hoist (u[i][k] == 0 rows are
// untouched by iteration k).
void tc_iterative(std::uint8_t* c, index_t n) {
  for (index_t k = 0; k < n; ++k) {
    const std::uint8_t* ck = c + k * n;
    for (index_t i = 0; i < n; ++i) {
      if (!c[i * n + k]) continue;
      std::uint8_t* ci = c + i * n;
      for (index_t j = 0; j < n; ++j) {
        ci[j] = static_cast<std::uint8_t>(ci[j] | ck[j]);
      }
    }
  }
}

// Zero padding is neutral: padded vertices have no edges.
template <class Fn>
void with_zero_padding(Matrix<std::uint8_t>& r, Fn&& fn) {
  const index_t n = r.rows();
  if (is_pow2(n)) {
    fn(r);
    return;
  }
  Matrix<std::uint8_t> p = pad_to_pow2(r, std::uint8_t{0});
  fn(p);
  r = unpad(p, n, n);
}

}  // namespace

void transitive_closure(Matrix<std::uint8_t>& reach, Engine engine,
                        RunOptions opts) {
  if (reach.rows() != reach.cols()) {
    throw std::invalid_argument("tc: square only");
  }
  switch (engine) {
    case Engine::Iterative:
      tc_iterative(reach.data(), reach.rows());
      return;
    case Engine::IGep:
      with_zero_padding(reach, [&](Matrix<std::uint8_t>& m) {
        RowMajorStore<std::uint8_t> st{m.data(), m.rows(),
                                       std::min(opts.base_size, m.rows())};
        detail::run_typed(opts, [&](auto& ex) {
          igep_transitive_closure(ex, st, m.rows(), {opts.base_size});
        });
      });
      return;
    case Engine::IGepZ:
      with_zero_padding(reach, [&](Matrix<std::uint8_t>& m) {
        const index_t bs = std::min(opts.base_size, m.rows());
        ZBlocked<std::uint8_t> z(m.rows(), bs);
        z.load(m);
        ZStore<std::uint8_t> st{&z};
        detail::run_typed(opts, [&](auto& ex) {
          igep_transitive_closure(ex, st, m.rows(), {bs});
        });
        z.store(m);
      });
      return;
    case Engine::CGep:
      with_zero_padding(reach, [&](Matrix<std::uint8_t>& m) {
        run_cgep(m, OrAndF{}, FullSet{m.rows()}, {opts.base_size});
      });
      return;
    case Engine::CGepCompact:
      with_zero_padding(reach, [&](Matrix<std::uint8_t>& m) {
        run_cgep_compact(m, OrAndF{}, FullSet{m.rows()}, {opts.base_size});
      });
      return;
    case Engine::Blocked:
      throw std::invalid_argument("tc: no blocked baseline; use IGep");
  }
  throw std::invalid_argument("tc: unknown engine");
}

}  // namespace gep::apps

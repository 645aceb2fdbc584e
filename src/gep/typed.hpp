// Typed I-GEP — the production engine (paper Figs. 4, 5, 6, 13, 14).
//
// I-GEP's recursive calls fall into four families by how the i/j/k
// intervals overlap: A (I = J = K), B (I = K), C (J = K), D (disjoint).
// Less overlap means fewer ordering constraints: within one call,
//   A: 6 stages  seq{ A, par{B,C}, D }  per k-half,
//   B: 4 stages  par{B,B}; par{D,D}  per k-half,
//   C: 4 stages  par{C,C}; par{D,D}  per k-half,
//   D: 2 stages  par{D,D,D,D}        per k-half.
// detail::for_each_stage below is the one copy of these stage lists
// (Fig. 6). Three walkers read it: detail::typed_rec (this engine), the
// multithreaded C-GEP (gep/cgep.hpp, whose staging the paper notes is
// the same) and the DAG simulator and task-graph builder
// (parallel/dag_sim.cpp). Executed sequentially the stages are exactly
// Fig. 4/5; executed with a fork-join invoker they are the multithreaded
// I-GEP of Fig. 6 with span O(n log² n) (Theorem 3.1).
//
// Each problem has one driver, igep_<problem>(ex, stores..., n, opts),
// generic over an executor with one entry point
// ex.run(prob, n, bs, leaf), where leaf(i0, j0, k0, m, kind) runs one
// base-size box. SeqInvoker (here) and WsInvoker
// (parallel/work_stealing.hpp) run typed_rec, calling inv.stage(corners,
// fn) once per stage; DagExec (parallel/task_graph.hpp) runs the same
// leaves, in the same emission order, on the DAG runtime. Stores are
// TileStores (row-major or Z-Morton; layout/zblocked.hpp). Leaves are
// base-size tiles dispatched to the kernels in kernels.hpp. The BoxKind
// matters for more than ordering: the di/dj flags each leaf derives from
// it tell the kernel wrappers when a tile is fully disjoint (D-kind,
// di == dj == false), the one kind that runs a packed micro-kernel
// when the host supports it (simd/gemm_leaf.hpp); every other box runs
// its scalar template. GE/LU/MM D-kind leaves whose edge reaches
// simd::kStrassenMinM (896 — i.e. a base size that large) run one fused
// Strassen level (simd/strassen.hpp) with no changes here.
#pragma once

#include <array>
#include <initializer_list>

#include "gep/kernels.hpp"
#include "layout/zblocked.hpp"
#include "matrix/matrix.hpp"
#include "obs/obs.hpp"

namespace gep {

enum class BoxKind { A, B, C, D };

inline char box_kind_char(BoxKind k) {
  return "ABCD"[static_cast<int>(k)];
}

// The I-GEP instance a recursion runs. It selects the pruning rule
// (GE/LU's Σ), the stage lists (matmul is pure D), the leaf costs
// (parallel/dag_sim.hpp) and the counter family the leaves bill to.
enum class DagProblem { FloydWarshall, Gaussian, LU, MatMul };

// One child call of a recursion node: (i0, j0, k0) of a half-side box.
using Corner = std::array<index_t, 3>;

namespace detail {

// Aligned ranges are equal or disjoint, so GE/LU's Σ misses a box iff
// its i-range or j-range lies strictly below the k-range.
inline bool pruned(DagProblem prob, index_t i0, index_t j0, index_t k0) {
  if (prob == DagProblem::Gaussian || prob == DagProblem::LU) {
    return i0 < k0 || j0 < k0;
  }
  return false;
}

// The one copy of multithreaded I-GEP's stage lists (Fig. 6): calls
// stage(corners) once per stage of the box at (i0, j0, k0) with
// half-side h, in sequential order. The corners of one stage may run in
// parallel; pruning is left to the caller.
template <class StageFn>
void for_each_stage(DagProblem prob, index_t i0, index_t j0, index_t k0,
                    index_t h, StageFn&& stage) {
  const index_t ka = k0, kb = k0 + h;
  const bool ik = (i0 == k0), jk = (j0 == k0);
  auto S = [&](std::initializer_list<Corner> calls) { stage(calls); };
  if (prob == DagProblem::MatMul || (!ik && !jk)) {  // D: two 4-way stages
    S({{i0, j0, ka}, {i0, j0 + h, ka}, {i0 + h, j0, ka},
       {i0 + h, j0 + h, ka}});
    S({{i0, j0, kb}, {i0, j0 + h, kb}, {i0 + h, j0, kb},
       {i0 + h, j0 + h, kb}});
  } else if (ik && jk) {  // A: A; par{B,C}; D — per k-half
    S({{i0, j0, ka}});
    S({{i0, j0 + h, ka}, {i0 + h, j0, ka}});
    S({{i0 + h, j0 + h, ka}});
    S({{i0 + h, j0 + h, kb}});
    S({{i0 + h, j0, kb}, {i0, j0 + h, kb}});
    S({{i0, j0, kb}});
  } else if (ik) {  // B: row panels share U; columns split
    S({{i0, j0, ka}, {i0, j0 + h, ka}});
    S({{i0 + h, j0, ka}, {i0 + h, j0 + h, ka}});
    S({{i0 + h, j0, kb}, {i0 + h, j0 + h, kb}});
    S({{i0, j0, kb}, {i0, j0 + h, kb}});
  } else {  // C: column panels share V; rows split
    S({{i0, j0, ka}, {i0 + h, j0, ka}});
    S({{i0, j0 + h, ka}, {i0 + h, j0 + h, ka}});
    S({{i0, j0 + h, kb}, {i0 + h, j0 + h, kb}});
    S({{i0, j0, kb}, {i0 + h, j0, kb}});
  }
}

// Per-kind leaf instrumentation (counters live in the global registry).
// The "updates" counters accumulate the m³ update volume of each leaf
// box — the typed engine's work accounting, per recursion family.
// Preprocessor-guarded rather than if constexpr: with GEP_OBS=0 these
// names must not exist at all, so a GEP_OBS=0 translation unit can link
// against GEP_OBS=1 libraries without two same-named inline definitions
// whose obs::Counter members resolve to different types (an ODR trap).
#if GEP_OBS
struct TypedMetrics {
  obs::Counter leaf_calls[4];
  obs::Counter updates[4];
};
inline TypedMetrics& typed_metrics() {
  static TypedMetrics m{
      {obs::counter("typed.leaf_calls.A"), obs::counter("typed.leaf_calls.B"),
       obs::counter("typed.leaf_calls.C"), obs::counter("typed.leaf_calls.D")},
      {obs::counter("typed.updates.A"), obs::counter("typed.updates.B"),
       obs::counter("typed.updates.C"), obs::counter("typed.updates.D")}};
  return m;
}

// Bills one executed leaf box: typed.leaf_calls/updates.<kind>, or
// typed.mm.{leaf_calls,updates} for matmul. The one place both the
// recursion and the DAG runtime count leaves.
inline void bill_leaf(DagProblem prob, BoxKind kind, index_t m) {
  const std::uint64_t cube = static_cast<std::uint64_t>(m) * m * m;
  if (prob == DagProblem::MatMul) {
    static obs::Counter calls = obs::counter("typed.mm.leaf_calls");
    static obs::Counter upd = obs::counter("typed.mm.updates");
    calls.inc();
    upd.inc(cube);
    return;
  }
  TypedMetrics& tm = typed_metrics();
  const int ki = static_cast<int>(kind);
  tm.leaf_calls[ki].inc();
  tm.updates[ki].inc(cube);
}
#endif

// The typed recursion: prunes, instruments and runs the leaf of one box,
// or hands each stage's corners to inv.stage.
template <class Inv, class Leaf>
void typed_rec(Inv& inv, DagProblem prob, index_t i0, index_t j0,
               index_t k0, index_t m, index_t bs, const Leaf& leaf,
               int depth = 0) {
  if (pruned(prob, i0, j0, k0)) return;
  const bool ik = (i0 == k0), jk = (j0 == k0);
  // Matrix multiplication C += A·B is I-GEP's D function over three
  // disjoint matrices: every box is D (span O(n), end of Section 3).
  const BoxKind kind = prob == DagProblem::MatMul ? BoxKind::D
                       : ik ? (jk ? BoxKind::A : BoxKind::B)
                            : (jk ? BoxKind::C : BoxKind::D);
  // The node's one instrumentation bracket (obs/trace.hpp): flight-ring
  // enter/leave and a watchdog heartbeat always, so a wedged worker's
  // dump shows exactly which box it never left; a span while tracing.
  obs::ScopedSpan span(box_kind_char(kind), depth, i0, j0, k0, m);
  if (m <= bs) {
#if GEP_OBS
    bill_leaf(prob, kind, m);
#endif
    // Sampled hardware-counter attribution (obs/profile.hpp): brackets
    // every Nth leaf per thread when the LeafSampler is enabled; one
    // relaxed load otherwise.
    obs::ScopedLeafSample sample(box_kind_char(kind), m);
    leaf(i0, j0, k0, m, kind);
    return;
  }
  const index_t h = m / 2;
  for_each_stage(prob, i0, j0, k0, h, [&](std::initializer_list<Corner> cs) {
    inv.stage(cs, [&](const Corner& c) {
      typed_rec(inv, prob, c[0], c[1], c[2], h, bs, leaf, depth + 1);
    });
  });
}

}  // namespace detail

// Runs the corners of each stage one after another (the unthreaded
// engine).
struct SeqInvoker {
  template <class F>
  void stage(std::initializer_list<Corner> corners, const F& f) {
    for (const Corner& c : corners) f(c);
  }
  template <class Leaf>
  void run(DagProblem prob, index_t n, index_t bs, const Leaf& leaf) {
    detail::typed_rec(*this, prob, 0, 0, 0, n, bs, leaf);
  }
};

// --- Problem drivers -------------------------------------------------------

struct TypedOptions {
  index_t base_size = 64;  // paper: best 64 (Opteron) / 128 (Xeon)
};

// Floyd-Warshall over a TileStore. Σ is the full cube: nothing prunes.
template <class Ex, class Store>
void igep_floyd_warshall(Ex&& ex, const Store& st, index_t n,
                         TypedOptions opts = {}) {
  obs::WatchdogThreadSource wd_src("igep-fw");
  const index_t bs = std::min(opts.base_size, n);
  const index_t s = st.tile_stride();
  ex.run(DagProblem::FloydWarshall, n, bs,
         [&](index_t i0, index_t j0, index_t k0, index_t m, BoxKind) {
           kernel_fw(st.tile(i0 / bs, j0 / bs), st.tile(i0 / bs, k0 / bs),
                     st.tile(k0 / bs, j0 / bs), m, s, s, s);
         });
}

// Floyd-Warshall with successor tracking: dst holds distances, sst the
// successor (next hop) indices; both advance in lockstep. The successor
// tiles a leaf touches are the X (written) and U (read) tiles of the
// distance matrix, so the distance recursion's ordering covers them.
template <class Ex, class StoreD, class StoreS>
void igep_floyd_warshall_paths(Ex&& ex, const StoreD& dst, const StoreS& sst,
                               index_t n, TypedOptions opts = {}) {
  obs::WatchdogThreadSource wd_src("igep-fw-paths");
  const index_t bs = std::min(opts.base_size, n);
  const index_t s = dst.tile_stride();
  const index_t ss = sst.tile_stride();
  ex.run(DagProblem::FloydWarshall, n, bs,
         [&](index_t i0, index_t j0, index_t k0, index_t m, BoxKind) {
           kernel_fw_paths(dst.tile(i0 / bs, j0 / bs),
                           dst.tile(i0 / bs, k0 / bs),
                           dst.tile(k0 / bs, j0 / bs),
                           sst.tile(i0 / bs, j0 / bs),
                           sst.tile(i0 / bs, k0 / bs), m, s, s, s, ss, ss);
         });
}

// Maximum-capacity (bottleneck) paths over a TileStore.
template <class Ex, class Store>
void igep_bottleneck(Ex&& ex, const Store& st, index_t n,
                     TypedOptions opts = {}) {
  obs::WatchdogThreadSource wd_src("igep-bottleneck");
  const index_t bs = std::min(opts.base_size, n);
  const index_t s = st.tile_stride();
  ex.run(DagProblem::FloydWarshall, n, bs,
         [&](index_t i0, index_t j0, index_t k0, index_t m, BoxKind) {
           kernel_bottleneck(st.tile(i0 / bs, j0 / bs),
                             st.tile(i0 / bs, k0 / bs),
                             st.tile(k0 / bs, j0 / bs), m, s, s, s);
         });
}

// Transitive closure (boolean or-and Floyd-Warshall) over a TileStore.
template <class Ex, class Store>
void igep_transitive_closure(Ex&& ex, const Store& st, index_t n,
                             TypedOptions opts = {}) {
  obs::WatchdogThreadSource wd_src("igep-tc");
  const index_t bs = std::min(opts.base_size, n);
  const index_t s = st.tile_stride();
  ex.run(DagProblem::FloydWarshall, n, bs,
         [&](index_t i0, index_t j0, index_t k0, index_t m, BoxKind) {
           kernel_tc(st.tile(i0 / bs, j0 / bs), st.tile(i0 / bs, k0 / bs),
                     st.tile(k0 / bs, j0 / bs), m, s, s, s);
         });
}

// Gaussian elimination without pivoting (Σ: k < i && k < j).
template <class Ex, class Store>
void igep_gaussian(Ex&& ex, const Store& st, index_t n,
                   TypedOptions opts = {}) {
  obs::WatchdogThreadSource wd_src("igep-ge");
  const index_t bs = std::min(opts.base_size, n);
  const index_t s = st.tile_stride();
  ex.run(DagProblem::Gaussian, n, bs,
         [&](index_t i0, index_t j0, index_t k0, index_t m, BoxKind kind) {
           const bool di = (kind == BoxKind::A || kind == BoxKind::B);
           const bool dj = (kind == BoxKind::A || kind == BoxKind::C);
           kernel_ge(st.tile(i0 / bs, j0 / bs), st.tile(i0 / bs, k0 / bs),
                     st.tile(k0 / bs, j0 / bs), st.tile(k0 / bs, k0 / bs), m,
                     s, s, s, s, di, dj);
         });
}

// LU decomposition without pivoting (Σ: k < i && k <= j); multipliers are
// stored in the strictly lower triangle.
template <class Ex, class Store>
void igep_lu(Ex&& ex, const Store& st, index_t n, TypedOptions opts = {}) {
  obs::WatchdogThreadSource wd_src("igep-lu");
  const index_t bs = std::min(opts.base_size, n);
  const index_t s = st.tile_stride();
  ex.run(DagProblem::LU, n, bs,
         [&](index_t i0, index_t j0, index_t k0, index_t m, BoxKind kind) {
           const bool di = (kind == BoxKind::A || kind == BoxKind::B);
           const bool dj = (kind == BoxKind::A || kind == BoxKind::C);
           kernel_lu(st.tile(i0 / bs, j0 / bs), st.tile(i0 / bs, k0 / bs),
                     st.tile(k0 / bs, j0 / bs), st.tile(k0 / bs, k0 / bs), m,
                     s, s, s, s, di, dj);
         });
}

// C += A·B with A, B, C in separate tile stores.
template <class Ex, class StoreC, class StoreA, class StoreB>
void igep_matmul(Ex&& ex, const StoreC& cst, const StoreA& ast,
                 const StoreB& bst, index_t n, TypedOptions opts = {}) {
  obs::WatchdogThreadSource wd_src("igep-mm");
  const index_t bs = std::min(opts.base_size, n);
  const index_t sc = cst.tile_stride();
  const index_t sa = ast.tile_stride();
  const index_t sb = bst.tile_stride();
  ex.run(DagProblem::MatMul, n, bs,
         [&](index_t i0, index_t j0, index_t k0, index_t m, BoxKind) {
           kernel_mm(cst.tile(i0 / bs, j0 / bs), ast.tile(i0 / bs, k0 / bs),
                     bst.tile(k0 / bs, j0 / bs), m, sc, sa, sb);
         });
}

}  // namespace gep

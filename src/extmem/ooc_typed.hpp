// Typed out-of-core I-GEP: the A/B/C/D recursion over tile-major disk
// pages, with base-case kernels running on PINNED frames.
//
// The generic engines run out-of-core through per-element get/set — fully
// general, but every element access pays accessor overhead. A production
// out-of-core implementation (what STXXL-based code does, and what the
// paper's out-of-core numbers imply) operates at block granularity: pin
// the X/U/V(/W) tiles of a base-case box in memory, run the raw-pointer
// kernel, release. Same recursion, same I/O pattern, near in-core compute
// speed.
//
// The drivers run the typed recursion's leaves on the dependency-driven
// runtime (parallel/task_graph.hpp) through one shared body,
// detail::run_ooc_dag; each driver supplies only its kernel call on the
// pinned tiles. pool == nullptr executes the leaves on the calling
// thread in the recursion's sequential order; a work-stealing pool runs
// them in parallel, bit-identical to the sequential run — acquire()'s
// pins make the cache safe for concurrent leaves. The scheduler's
// lookahead names the next ready tasks, which the shared body turns
// into page hints for the cache's async worker
// (PageCache::enable_async_io); lookahead = 0 sends none.
//
// Sizing contract: the page cache must hold the concurrently pinned
// tiles plus headroom — at least 4 frames per in-flight leaf (X, U, V,
// W) times the worker count, plus `lookahead` unpinned working sets
// (4 frames each) when prefetching, or acquire() throws under pressure
// (see docs/EXTMEM.md).
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <unordered_set>

#include "extmem/checkpoint.hpp"
#include "extmem/ooc_matrix.hpp"
#include "gep/typed.hpp"
#include "parallel/task_graph.hpp"

namespace gep {
namespace detail {

template <class T>
void check_ooc_typed(const OocTiledMatrix<T>& m) {
  const index_t n = m.rows();
  if (m.cols() != n || !is_pow2(n)) {
    throw std::invalid_argument("ooc typed engine: square pow2 matrix only");
  }
  if (n % m.tile_side() != 0 || !is_pow2(m.tile_side())) {
    throw std::invalid_argument("ooc typed engine: tile side must divide n");
  }
}

// Suppresses duplicate prefetch hints within a sliding window of
// recently hinted tiles. Tasks that enter the lookahead window together
// share tiles (the U and V tiles of one k-step recur in every task of
// it). Unsuppressed, those duplicates flood the async worker's queue and
// can evict still-pinned pages it re-faults. The window (not a per-run
// set) is what makes re-hinting legal later: a tile evicted in between
// ages out of the window and may be hinted again. Thread-safe — the
// parallel runtime runs the prefetch hook from workers.
class PrefetchDeduper {
 public:
  explicit PrefetchDeduper(std::size_t window = 64) : window_(window) {}

  // True if (mat, ti, tj) has not been hinted within the window; records
  // it. False counts into extmem.prefetch.hints_deduped.
  bool should_hint(int mat, index_t ti, index_t tj) {
    const std::uint64_t key = (static_cast<std::uint64_t>(mat) << 48) |
                              (static_cast<std::uint64_t>(ti) << 24) |
                              static_cast<std::uint64_t>(tj);
    std::lock_guard<std::mutex> lock(mu_);
    if (seen_.count(key) != 0) {
      suppressed_.inc();
      return false;
    }
    seen_.insert(key);
    order_.push_back(key);
    if (order_.size() > window_) {
      seen_.erase(order_.front());
      order_.pop_front();
    }
    return true;
  }

 private:
  std::size_t window_;
  std::mutex mu_;
  std::unordered_set<std::uint64_t> seen_;
  std::deque<std::uint64_t> order_;
  obs::Counter suppressed_ = obs::counter("extmem.prefetch.hints_deduped");
};

}  // namespace detail

struct OocDagOptions {
  // Ready tasks announced to the prefetcher ahead of execution; 0
  // disables prefetch hints. Only useful with the cache's async worker
  // running; harmless (counted as dropped) without.
  int lookahead = 4;
  // Pivot guard for ooc_igep_lu_dag (gep/numeric_guard.hpp): every pivot
  // is admitted before division. Throw propagates NumericBreakdownError
  // out of run_task_graph; Boost floors pivots at the A-kind boxes that
  // create them — the floored value lands in the write-pinned diagonal
  // tile, so it persists to disk and every later reader sees it. Null =
  // unguarded (the paper's kernel).
  const PivotGuard* lu_guard = nullptr;
  // Checkpoint/restart coordinator (extmem/checkpoint.hpp). The driver
  // binds it to this job's task graph and hands it to the runtime, which
  // skips the tasks its frontier already covers (resume) and brackets
  // every executed leaf so snapshots cut at whole-leaf boundaries.
  CheckpointCoordinator* ckpt = nullptr;
};

namespace detail {

// The body every out-of-core driver shares: checks the shapes, binds the
// checkpoint coordinator, builds the task graph, turns the lookahead
// window into deduplicated tile hints and runs it. x is the matrix the
// leaves write; u and v supply the U = (i, k) and V = (k, j) tiles (all
// three are the same matrix except for matmul). Each leaf pins X, U, V
// (and the pivot tile W = x(k, k) for GE/LU) and hands the raw tile
// pointers to kernel(t, x, u, v, w); w is null when not pinned.
template <class T, class Kernel>
void run_ooc_dag(DagProblem prob, OocTiledMatrix<T>& x, OocTiledMatrix<T>& u,
                 OocTiledMatrix<T>& v, WorkStealingPool* pool,
                 const OocDagOptions& opts, const Kernel& kernel) {
  check_ooc_typed(x);
  check_ooc_typed(u);
  check_ooc_typed(v);
  const index_t n = x.rows();
  const index_t bs = x.tile_side();
  if (u.rows() != n || v.rows() != n || u.tile_side() != bs ||
      v.tile_side() != bs) {
    throw std::invalid_argument(
        "ooc typed engine: operand shapes/tiles must match");
  }
  const bool pivot = prob == DagProblem::Gaussian || prob == DagProblem::LU;
  TaskGraph g = build_typed_task_graph(prob, n, bs);
  PrefetchDeduper dedupe;
  TaskRuntimeOptions ro;
  if (opts.ckpt != nullptr) {
    opts.ckpt->bind(prob, n, bs,
                    prob == DagProblem::LU && opts.lu_guard != nullptr);
    ro.ckpt = opts.ckpt;
  }
  if (opts.lookahead > 0) {
    // Dedupe keys name the matrix: 0 = x, 1 = u, 2 = v when distinct.
    const int um = &u == &x ? 0 : 1;
    const int vm = &v == &x ? 0 : 2;
    ro.lookahead = opts.lookahead;
    ro.prefetch = [&, um, vm](const BlockTask& t) {
      const index_t bi = t.i0 / bs, bj = t.j0 / bs, bk = t.k0 / bs;
      if (dedupe.should_hint(0, bi, bj)) x.prefetch_tile(bi, bj);
      if (dedupe.should_hint(um, bi, bk)) u.prefetch_tile(bi, bk);
      if (dedupe.should_hint(vm, bk, bj)) v.prefetch_tile(bk, bj);
      if (pivot && dedupe.should_hint(0, bk, bk)) x.prefetch_tile(bk, bk);
    };
  }
  run_task_graph(g, pool, [&](const BlockTask& t) {
    obs::throw_if_stop_requested();
    auto xp = x.pin_tile(t.i0 / bs, t.j0 / bs, /*for_write=*/true);
    auto up = u.pin_tile(t.i0 / bs, t.k0 / bs, /*for_write=*/false);
    auto vp = v.pin_tile(t.k0 / bs, t.j0 / bs, /*for_write=*/false);
    if (pivot) {
      auto wp = x.pin_tile(t.k0 / bs, t.k0 / bs, /*for_write=*/false);
      kernel(t, xp.ptr, up.ptr, vp.ptr, wp.ptr);
    } else {
      kernel(t, xp.ptr, up.ptr, vp.ptr, static_cast<T*>(nullptr));
    }
  }, ro);
}

}  // namespace detail

template <class T>
void ooc_igep_floyd_warshall_dag(OocTiledMatrix<T>& m, WorkStealingPool* pool,
                                 OocDagOptions opts = {}) {
  obs::WatchdogThreadSource wd_src("ooc-fw-dag");
  const index_t bs = m.tile_side();
  detail::run_ooc_dag(DagProblem::FloydWarshall, m, m, m, pool, opts,
                      [bs](const BlockTask& t, T* x, T* u, T* v, T*) {
                        kernel_fw(x, u, v, t.m, bs, bs, bs);
                      });
}

template <class T>
void ooc_igep_lu_dag(OocTiledMatrix<T>& m, WorkStealingPool* pool,
                     OocDagOptions opts = {}) {
  obs::WatchdogThreadSource wd_src("ooc-lu-dag");
  const index_t bs = m.tile_side();
  const PivotGuard* guard = opts.lu_guard;
  detail::run_ooc_dag(
      DagProblem::LU, m, m, m, pool, opts,
      [bs, guard](const BlockTask& t, T* x, T* u, T* v, T* w) {
        const bool di = (t.kind == BoxKind::A || t.kind == BoxKind::B);
        const bool dj = (t.kind == BoxKind::A || t.kind == BoxKind::C);
        kernel_lu(x, u, v, w, t.m, bs, bs, bs, bs, di, dj, guard, t.k0);
      });
}

template <class T>
void ooc_igep_matmul_dag(OocTiledMatrix<T>& c, OocTiledMatrix<T>& a,
                         OocTiledMatrix<T>& b, WorkStealingPool* pool,
                         OocDagOptions opts = {}) {
  obs::WatchdogThreadSource wd_src("ooc-mm-dag");
  const index_t bs = c.tile_side();
  detail::run_ooc_dag(DagProblem::MatMul, c, a, b, pool, opts,
                      [bs](const BlockTask& t, T* x, T* u, T* v, T*) {
                        kernel_mm(x, u, v, t.m, bs, bs, bs);
                      });
}

}  // namespace gep

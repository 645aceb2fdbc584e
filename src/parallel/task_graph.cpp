#include "parallel/task_graph.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <queue>
#include <stdexcept>

namespace gep {

TaskGraph build_typed_task_graph(DagProblem prob, index_t n, index_t base) {
  TaskGraph g;
  g.problem = prob;
  if (n <= 0) return g;
  const index_t bs = std::min(base, n);
  // The recursion halves the box side until it reaches the base size, so
  // every leaf has the same side m and depth.
  index_t m = n;
  while (m > bs) m /= 2;
  if (m <= 0 || n % m != 0 || !is_pow2(n / m)) {
    throw std::invalid_argument(
        "task graph: n must be the leaf side times a power of two");
  }
  int log_n = 0, log_m = 0;
  while ((index_t{1} << log_n) < n) ++log_n;
  while ((index_t{1} << log_m) < m) ++log_m;
  g.m_ = m;
  g.depth_ = log_n - log_m;
  for (int k = 0; k < 4; ++k) {
    const BoxKind kind = static_cast<BoxKind>(k);
    g.cost_[k] = leaf_cost(prob, m, kind == BoxKind::A || kind == BoxKind::B,
                           kind == BoxKind::A || kind == BoxKind::C);
  }
  std::size_t count = 0;
  for_each_leaf(prob, n, bs, [&count](const LeafBox&) { ++count; });

  // Superscalar dependence analysis over the emission order, one state
  // per (matrix, tile) block: a write waits for the block's last writer
  // (WAW) and every reader since it (WAR); a read waits for the last
  // writer (RAW). Calls on_task(id, box, deps) per task, deps sorted and
  // unique.
  struct BlockState {
    int last_writer = -1;
    std::vector<int> readers;  // since last_writer
  };
  struct Access {
    int mat;  // 0 = X/C; matmul uses 1 = A, 2 = B
    index_t bi, bj;
    bool write;
  };
  const index_t grid = (n + bs - 1) / bs;
  const int n_mats = prob == DagProblem::MatMul ? 3 : 1;
  auto analyze = [&](auto&& on_task) {
    std::vector<BlockState> blocks(static_cast<std::size_t>(n_mats) *
                                   static_cast<std::size_t>(grid) *
                                   static_cast<std::size_t>(grid));
    auto state = [&](const Access& a) -> BlockState& {
      return blocks[(static_cast<std::size_t>(a.mat) *
                         static_cast<std::size_t>(grid) +
                     static_cast<std::size_t>(a.bi)) *
                        static_cast<std::size_t>(grid) +
                    static_cast<std::size_t>(a.bj)];
    };
    std::vector<int> deps;
    int id = 0;
    for_each_leaf(prob, n, bs, [&](const LeafBox& b) {
      const index_t bi = b.i0 / bs, bj = b.j0 / bs, bk = b.k0 / bs;
      Access acc[4];
      int na = 0;
      if (prob == DagProblem::MatMul) {
        acc[na++] = Access{0, bi, bj, true};   // C
        acc[na++] = Access{1, bi, bk, false};  // A
        acc[na++] = Access{2, bk, bj, false};  // B
      } else {
        acc[na++] = Access{0, bi, bj, true};   // X
        acc[na++] = Access{0, bi, bk, false};  // U
        acc[na++] = Access{0, bk, bj, false};  // V
        if (prob == DagProblem::Gaussian || prob == DagProblem::LU) {
          acc[na++] = Access{0, bk, bk, false};  // W (pivot)
        }
      }
      deps.clear();
      for (int i = 0; i < na; ++i) {
        const BlockState& st = state(acc[i]);
        if (st.last_writer >= 0) deps.push_back(st.last_writer);
        if (acc[i].write) {
          deps.insert(deps.end(), st.readers.begin(), st.readers.end());
        }
      }
      // Writes first, so a block this task both writes and reads (the
      // in-place A/B/C leaves read their own partially updated X)
      // registers as a write only.
      for (int i = 0; i < na; ++i) {
        if (!acc[i].write) continue;
        BlockState& st = state(acc[i]);
        st.last_writer = id;
        st.readers.clear();
      }
      for (int i = 0; i < na; ++i) {
        if (acc[i].write) continue;
        BlockState& st = state(acc[i]);
        if (st.last_writer == id) continue;
        // Duplicate reads of one block (GE's U and W coincide in B-kind
        // boxes) would land adjacent: ids only grow.
        if (!st.readers.empty() && st.readers.back() == id) continue;
        st.readers.push_back(id);
      }
      std::sort(deps.begin(), deps.end());
      deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
      on_task(id, b, deps);
      ++id;
    });
  };

  // Pass 1 stores the tasks and counts each task's successors; pass 2
  // reruns the (deterministic) analysis to fill the successor array in
  // place, so no edge list is ever held twice. Filling in ascending id
  // order leaves every successor list ascending.
  g.tasks_.reserve(count);
  g.preds_.reserve(count);
  g.succ_off_.assign(count + 1, 0);
  analyze([&g, m](int, const LeafBox& b, const std::vector<int>& deps) {
    const bool di = (b.i0 == b.k0), dj = (b.j0 == b.k0);
    const BoxKind kind = di ? (dj ? BoxKind::A : BoxKind::B)
                            : (dj ? BoxKind::C : BoxKind::D);
    g.tasks_.push_back(TaskGraph::Tile{static_cast<std::uint16_t>(b.i0 / m),
                                       static_cast<std::uint16_t>(b.j0 / m),
                                       static_cast<std::uint16_t>(b.k0 / m),
                                       static_cast<std::uint8_t>(kind)});
    g.work_ += g.cost_[static_cast<int>(kind)];
    g.preds_.push_back(static_cast<int>(deps.size()));
    for (int d : deps) g.succ_off_[static_cast<std::size_t>(d) + 1] += 1;
  });
  for (std::size_t id = 0; id < count; ++id) {
    g.succ_off_[id + 1] += g.succ_off_[id];
  }
  g.succ_.resize(g.succ_off_[count]);
  // succ_off_[d] serves as d's fill cursor and ends at d + 1's start;
  // shifting the array right by one restores the offsets.
  analyze([&g](int id, const LeafBox&, const std::vector<int>& deps) {
    for (int d : deps) {
      g.succ_[g.succ_off_[static_cast<std::size_t>(d)]++] = id;
    }
  });
  for (std::size_t id = count; id > 0; --id) {
    g.succ_off_[id] = g.succ_off_[id - 1];
  }
  g.succ_off_[0] = 0;

  // Emission order is topological (every dependency has a smaller id),
  // so one backward sweep computes the critical path to the exit.
  g.priority_.assign(count, 0.0);
  for (int id = g.size() - 1; id >= 0; --id) {
    double best = 0;
    for (int s : g.successors(id)) {
      best = std::max(best, g.priority_[static_cast<std::size_t>(s)]);
    }
    const double p =
        g.cost_[g.tasks_[static_cast<std::size_t>(id)].kind] + best;
    g.priority_[static_cast<std::size_t>(id)] = p;
    g.span_ = std::max(g.span_, p);
  }
  for (int id = 0; id < g.size(); ++id) {
    if (g.pred_count(id) == 0) g.ready0_.push_back(id);
  }
  std::sort(g.ready0_.begin(), g.ready0_.end(), [&g](int a, int b) {
    const double pa = g.priority(a), pb = g.priority(b);
    // Priority ties resolve to emission (sequential) order.
    return pa != pb ? pa > pb : a < b;
  });
  obs::counter("parallel.dag.tasks").inc(static_cast<std::uint64_t>(g.size()));
  obs::counter("parallel.dag.edges").inc(
      static_cast<std::uint64_t>(g.edge_count()));
  return g;
}

namespace {

// Shared execution state for one run_task_graph call. The leaf-side
// instrumentation mirrors detail::typed_rec's leaf branch (the one
// obs::ScopedSpan bracket, detail::bill_leaf's counters, sampled hw
// attribution) so profiles and progress meters read identically across
// executors.
struct GraphRun {
  const TaskGraph& g;
  const std::function<void(const BlockTask&)>& leaf;
  const TaskRuntimeOptions& opts;
  WsTaskGroup* group = nullptr;
  std::unique_ptr<std::atomic<int>[]> unmet;
  std::unique_ptr<std::atomic<bool>[]> was_hinted;
  std::atomic<int> hints_out{0};

  GraphRun(const TaskGraph& graph,
           const std::function<void(const BlockTask&)>& l,
           const TaskRuntimeOptions& o)
      : g(graph), leaf(l), opts(o) {}

  bool hinting() const { return opts.lookahead > 0 && opts.prefetch; }

  // Issues the prefetch hint for a ready task if the lookahead window
  // has room. Outstanding = hinted but not yet started, so the window
  // bounds how many speculative working sets the hints can occupy.
  void maybe_hint(int id) {
    if (!hinting()) return;
    int h = hints_out.load(std::memory_order_relaxed);
    while (h < opts.lookahead) {
      if (hints_out.compare_exchange_weak(h, h + 1,
                                          std::memory_order_relaxed)) {
        was_hinted[id].store(true, std::memory_order_relaxed);
        obs::counter("parallel.dag.hints").inc();
        opts.prefetch(g.task(id));
        return;
      }
    }
  }

  void exec_leaf(int id) {
    const BlockTask t = g.task(id);
    if (was_hinted != nullptr &&
        was_hinted[id].load(std::memory_order_relaxed)) {
      hints_out.fetch_sub(1, std::memory_order_relaxed);
    }
    // Quiesce gate: may block here while a snapshot is being cut. The
    // leaf has not touched its blocks yet, so a JobCancelled unwinding
    // from inside (leaf's own stop-poll) is a CLEAN cancel; any other
    // exception mid-kernel leaves a half-updated block and poisons
    // further snapshots (leaf_abort).
    if (opts.ckpt != nullptr) opts.ckpt->leaf_enter();
    try {
      obs::flight::record(obs::flightfmt::kTaskRun,
                          static_cast<std::uint64_t>(id));
      const char kc = box_kind_char(t.kind);
      obs::ScopedSpan span(kc, t.depth, t.i0, t.j0, t.k0, t.m);
#if GEP_OBS
      detail::bill_leaf(g.problem, t.kind, t.m);
#endif
      {
        obs::ScopedLeafSample sample(kc, static_cast<long long>(t.m));
        leaf(t);
      }
    } catch (const obs::JobCancelled&) {
      if (opts.ckpt != nullptr) opts.ckpt->leaf_cancel();
      throw;
    } catch (...) {
      if (opts.ckpt != nullptr) opts.ckpt->leaf_abort();
      throw;
    }
    obs::flight::record(obs::flightfmt::kTaskRetire,
                        static_cast<std::uint64_t>(id));
    if (opts.ckpt != nullptr) opts.ckpt->leaf_exit(id);
  }

  void submit(int id) {
    obs::flight::record(obs::flightfmt::kTaskReady,
                        static_cast<std::uint64_t>(id));
    maybe_hint(id);
    group->run([this, id] { run_parallel(id); });
  }

  void run_parallel(int id) {
    thread_local std::vector<int> newly;
    while (true) {
      exec_leaf(id);
      // Release successors. A leaf that threw skips this (the exception
      // is captured by the pool and rethrown from wait()), so dependents
      // of a failed task are never submitted. acq_rel: the last
      // predecessor's matrix writes happen-before the successor's
      // execution.
      newly.clear();
      for (int s : g.successors(id)) {
        if (unmet[s].fetch_sub(1, std::memory_order_acq_rel) == 1) {
          newly.push_back(s);
        }
      }
      if (newly.empty()) return;
      // The deque pops LIFO, so submit in ASCENDING priority: the
      // highest-priority (deepest critical path) task lands on top.
      // Ties resolve to emission order popping first (larger id pushed
      // earlier).
      std::sort(newly.begin(), newly.end(), [this](int a, int b) {
        const double pa = g.priority(a), pb = g.priority(b);
        return pa != pb ? pa < pb : a > b;
      });
      // Work-first continuation: the best released successor runs inline
      // on this worker. It shares blocks with the task that released it,
      // and most tasks release exactly one successor (the block's WAW
      // chain), so skipping the deque removes a push/pop/steal round
      // trip per task and keeps the critical path off the steal path.
      const int next = newly.back();
      newly.pop_back();
      for (int s : newly) submit(s);
      obs::flight::record(obs::flightfmt::kTaskReady,
                          static_cast<std::uint64_t>(next));
      id = next;
    }
  }
};

}  // namespace

void run_task_graph(const TaskGraph& g, WorkStealingPool* pool,
                    const std::function<void(const BlockTask&)>& leaf,
                    const TaskRuntimeOptions& opts) {
  const int n = g.size();
  if (n == 0) return;
  if (pool == nullptr || pool->threads() <= 1) {
    // Sequential engine: execute in emission order — a topological
    // order that IS the typed recursion's sequential schedule — with a
    // cursor hinting `lookahead` tasks past the one about to run. No
    // group machinery: chaining submits through WsTaskGroup::run's
    // inline path would recurse a full DAG deep.
    GraphRun ex(g, leaf, opts);
    int cursor = 0;
    for (int id = 0; id < n; ++id) {
      // Resume path: tasks the checkpoint frontier already covers are
      // skipped (their effects were replayed from the snapshot). Skipped
      // tasks are not hinted either — their pages are not needed.
      if (opts.ckpt != nullptr && opts.ckpt->is_done(id)) {
        cursor = std::max(cursor, id + 1);
        continue;
      }
      if (ex.hinting()) {
        const int limit = std::min(n, id + 1 + opts.lookahead);
        for (; cursor < limit; ++cursor) {
          if (opts.ckpt != nullptr && opts.ckpt->is_done(cursor)) continue;
          obs::flight::record(obs::flightfmt::kTaskReady,
                              static_cast<std::uint64_t>(cursor));
          obs::counter("parallel.dag.hints").inc();
          opts.prefetch(g.task(cursor));
        }
      }
      ex.exec_leaf(id);
    }
    return;
  }

  GraphRun ex(g, leaf, opts);
  ex.unmet = std::make_unique<std::atomic<int>[]>(
      static_cast<std::size_t>(n));
  for (int id = 0; id < n; ++id) {
    ex.unmet[id].store(g.pred_count(id), std::memory_order_relaxed);
  }
  if (ex.hinting()) {
    ex.was_hinted = std::make_unique<std::atomic<bool>[]>(
        static_cast<std::size_t>(n));
    for (int id = 0; id < n; ++id) {
      ex.was_hinted[id].store(false, std::memory_order_relaxed);
    }
  }
  if (opts.ckpt != nullptr) {
    // Resume path: the frontier is a dependence downset (every
    // predecessor of a done task is done), so retiring the done set up
    // front — decrement successors, never execute — leaves exactly the
    // not-done tasks with their not-done predecessor counts.
    for (int id = 0; id < n; ++id) {
      if (!opts.ckpt->is_done(id)) continue;
      for (int s : g.successors(id)) {
        ex.unmet[s].fetch_sub(1, std::memory_order_relaxed);
      }
    }
  }
  WsTaskGroup group(pool);
  ex.group = &group;
  // initial_ready() is priority-descending; push ascending so the LIFO
  // pop order starts on the critical path.
  if (opts.ckpt != nullptr) {
    // The seeds are every not-done task whose predecessors are all done.
    std::vector<int> r0;
    for (int id = 0; id < n; ++id) {
      if (opts.ckpt->is_done(id)) continue;
      if (ex.unmet[id].load(std::memory_order_relaxed) == 0) {
        r0.push_back(id);
      }
    }
    if (r0.empty()) return;  // everything already done
    std::sort(r0.begin(), r0.end(), [&g](int a, int b) {
      const double pa = g.priority(a), pb = g.priority(b);
      return pa != pb ? pa > pb : a < b;
    });
    for (auto it = r0.rbegin(); it != r0.rend(); ++it) ex.submit(*it);
  } else {
    const std::vector<int>& r0 = g.initial_ready();
    for (auto it = r0.rbegin(); it != r0.rend(); ++it) ex.submit(*it);
  }
  group.wait();
}

double task_graph_makespan(const TaskGraph& g, int p) {
  const int n = g.size();
  if (n == 0) return 0;
  std::vector<int> unmet(static_cast<std::size_t>(n));
  for (int id = 0; id < n; ++id) {
    unmet[static_cast<std::size_t>(id)] = g.pred_count(id);
  }
  // Dispatch ready tasks by critical-path priority (ties: emission
  // order) — the same greedy non-preemptive policy as dag_makespan, so
  // the two makespans are directly comparable.
  auto lower = [&g](int a, int b) {
    const double pa = g.priority(a), pb = g.priority(b);
    return pa != pb ? pa < pb : a > b;
  };
  std::priority_queue<int, std::vector<int>, decltype(lower)> ready(lower);
  for (int id : g.initial_ready()) ready.push(id);
  using Event = std::pair<double, int>;  // (finish time, task)
  std::priority_queue<Event, std::vector<Event>, std::greater<>> running;
  const int procs = std::max(1, p);
  int busy = 0;
  double t = 0;
  int done = 0;
  while (done < n) {
    while (busy < procs && !ready.empty()) {
      const int id = ready.top();
      ready.pop();
      running.emplace(t + g.task(id).cost, id);
      ++busy;
    }
    const auto [finish, id] = running.top();
    running.pop();
    t = finish;
    --busy;
    ++done;
    for (int s : g.successors(id)) {
      if (--unmet[static_cast<std::size_t>(s)] == 0) ready.push(s);
    }
  }
  return t;
}

}  // namespace gep

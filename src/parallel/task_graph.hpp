// Dependency-driven block-task runtime for typed I-GEP (ROADMAP item 2).
//
// The fork-join invoker (Fig. 6) serializes every recursion level at a
// join barrier even though only the A/B/C-kind boxes carry true
// dependencies. Here the typed A/B/C/D recursion *emits* a DAG of block
// tasks instead of executing them: one node per base-case box
// (kind, box, depth), with edges derived from the boxes' read/write
// BLOCK sets — the same X/U/V/W tile accesses the legality analysis
// reasons about. Emission order is the sequential execution order, and
// the builder runs the classic superscalar dependence analysis over it
// (RAW: read depends on the block's last writer; WAR: a write depends on
// every reader since that writer; WAW: writes to a block form a chain).
// Any topological execution of the resulting DAG therefore performs each
// block's update sequence in exactly the sequential order, which makes
// every schedule — 1 thread, N threads, work-stealing jitter and all —
// bit-identical to the sequential run.
//
// The runtime executes the DAG on the existing WorkStealingPool with
//  * data-dependency tracking (atomic unmet-predecessor counts),
//  * priority by critical path (longest cost-weighted path to the exit;
//    newly ready tasks are pushed so the LIFO pop order prefers the
//    critical path), and
//  * lookahead: the ready frontier extends past what used to be join
//    barriers, and its first `lookahead` tasks are announced to an
//    optional prefetch hook. Out-of-core drivers point that hook at
//    PageCache::prefetch, so the SAME scheduler state drives both the
//    workers and the async I/O worker (extmem/ooc_typed.hpp).
//
// This is the library's one multithreaded executor: the app entry points
// run every job with more than one thread on it through DagExec (below;
// apps/runtime_select.hpp) and the out-of-core drivers are built on it.
// Its emission order is gep/typed.hpp's stage table (for_each_stage),
// the one copy of Fig. 6 that the fork-join recursion walks too.
// dag_sim.hpp's greedy scheduler is the quality oracle:
// task_graph_makespan() on this DAG must not exceed the fork-join DAG's
// makespan (fewer constraints, same greedy policy).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "gep/typed.hpp"
#include "parallel/dag_sim.hpp"
#include "parallel/work_stealing.hpp"

namespace gep {

// One base-case box of the typed recursion, as a schedulable task.
struct BlockTask {
  BoxKind kind = BoxKind::D;
  index_t i0 = 0, j0 = 0, k0 = 0, m = 0;  // element coords, box side
  int depth = 0;                          // recursion depth of the leaf
  double cost = 0;                        // update count (dag_sim costs)
};

// Dependency DAG over block tasks, built by build_typed_task_graph.
// Every leaf of one recursion has the same side, depth and per-kind
// cost, so a task is stored as its leaf-grid coordinates plus its kind
// (8 bytes) and task() expands it; successors are stored in CSR form
// (one offset per task plus one flat edge array, both exactly sized).
class TaskGraph {
 public:
  int size() const { return static_cast<int>(tasks_.size()); }
  BlockTask task(int id) const {
    const Tile& t = tasks_[static_cast<std::size_t>(id)];
    BlockTask b;
    b.kind = static_cast<BoxKind>(t.kind);
    b.i0 = t.bi * m_;
    b.j0 = t.bj * m_;
    b.k0 = t.bk * m_;
    b.m = m_;
    b.depth = depth_;
    b.cost = cost_[t.kind];
    return b;
  }
  // Successor ids in ascending order.
  std::span<const int> successors(int id) const {
    const std::size_t b = succ_off_[static_cast<std::size_t>(id)];
    const std::size_t e = succ_off_[static_cast<std::size_t>(id) + 1];
    return {succ_.data() + b, e - b};
  }
  int pred_count(int id) const { return preds_[static_cast<std::size_t>(id)]; }
  // Critical-path length (cost-weighted, inclusive) from this task to
  // the DAG's exit.
  double priority(int id) const {
    return priority_[static_cast<std::size_t>(id)];
  }
  std::size_t edge_count() const { return succ_.size(); }
  double work() const { return work_; }        // sum of task costs
  double span() const { return span_; }        // critical path
  // Tasks with no predecessors, highest priority first.
  const std::vector<int>& initial_ready() const { return ready0_; }

  // Which counter family executions bill to (typed.* vs typed.mm.*).
  DagProblem problem = DagProblem::FloydWarshall;

 private:
  friend TaskGraph build_typed_task_graph(DagProblem prob, index_t n,
                                          index_t base);
  // 16-bit coordinates suffice: a leaf grid 2^16 tiles wide would hold
  // more than 2^31 tasks, past what int task ids address.
  struct Tile {
    std::uint16_t bi, bj, bk;  // leaf-grid coordinates (element / m_)
    std::uint8_t kind;         // BoxKind
  };

  std::vector<Tile> tasks_;
  std::vector<std::uint32_t> succ_off_;  // size() + 1 offsets into succ_
  std::vector<int> succ_;
  std::vector<int> preds_;
  std::vector<double> priority_;
  std::vector<int> ready0_;
  index_t m_ = 0;       // leaf side
  int depth_ = 0;       // recursion depth of the leaves
  double cost_[4] = {}; // leaf cost per BoxKind
  double work_ = 0;
  double span_ = 0;
};

// Walks the typed recursion's leaf boxes (dag_sim.hpp's for_each_leaf
// over gep/typed.hpp's stage table: sequential order, per-problem
// pruning) and derives the edges from each box's block accesses (X/U/V
// plus W for GE/LU; C/A/B for matmul) by the superscalar analysis above;
// costs are dag_sim's leaf costs. n must be the leaf side times a power
// of two.
TaskGraph build_typed_task_graph(DagProblem prob, index_t n, index_t base);

// Checkpoint/restart contract between the runtime and a coordinator
// (extmem/checkpoint.hpp — declared here so parallel/ stays independent
// of extmem/). The runtime calls, around every leaf it executes:
//   is_done(id)  — skip the task entirely (completed before a resume);
//   leaf_enter() — may block while a snapshot is being cut (quiesce);
//   leaf_exit(id)— the leaf's effects are complete; marks the frontier
//                  and may itself cut a snapshot;
//   leaf_cancel()— the leaf was cancelled BEFORE mutating anything
//                  (JobCancelled unwinds between enter and the kernel);
//   leaf_abort() — the leaf died mid-kernel; its block is half-updated
//                  and NO further snapshot may be taken.
// All methods may be called from any worker thread.
class TaskCheckpointHook {
 public:
  virtual ~TaskCheckpointHook() = default;
  virtual bool is_done(int id) const = 0;
  virtual void leaf_enter() = 0;
  virtual void leaf_exit(int id) = 0;
  virtual void leaf_cancel() noexcept = 0;
  virtual void leaf_abort() noexcept = 0;
};

struct TaskRuntimeOptions {
  // Ready tasks announced to `prefetch` ahead of execution. 0 disables
  // the hook. The window is counted in TASKS (each OOC task pins up to
  // 4 tiles), bounding how many unpinned frames hints can occupy.
  int lookahead = 0;
  // Called once per task when it enters the lookahead window (ready, or
  // about to run in the sequential engine). May run on any thread.
  std::function<void(const BlockTask&)> prefetch;
  // Optional checkpoint coordinator. Completed tasks (is_done) are
  // skipped — the resume path — and every executed leaf is bracketed by
  // leaf_enter/leaf_exit so snapshots only ever see whole-leaf states.
  TaskCheckpointHook* ckpt = nullptr;
};

// Executes the DAG. With a pool of >= 2 threads, ready tasks run on the
// work-stealing pool (the calling thread helps); otherwise tasks run on
// the calling thread in emission order — exactly the sequential typed
// engine's schedule. A leaf exception stops dependents of the failed
// task from being submitted and rethrows from here (first failure wins,
// matching WsTaskGroup::wait).
void run_task_graph(const TaskGraph& g, WorkStealingPool* pool,
                    const std::function<void(const BlockTask&)>& leaf,
                    const TaskRuntimeOptions& opts = {});

// Greedy list-scheduling makespan of the task DAG with p virtual
// processors, dispatching by critical-path priority — the counterpart
// of dag_makespan() (same policy, fork-join DAG) for schedule-quality
// validation.
double task_graph_makespan(const TaskGraph& g, int p);

// Typed I-GEP executor over the DAG runtime (the executor concept of
// gep/typed.hpp): igep_<problem>(DagExec{pool}, ...) builds the task
// graph and runs the driver's leaf on it. Same stores, same kernels,
// same results bit for bit as SeqInvoker; only the schedule differs.
// pool == nullptr (or a 1-thread pool) runs the DAG sequentially.
struct DagExec {
  WorkStealingPool* pool = nullptr;

  template <class Leaf>
  void run(DagProblem prob, index_t n, index_t bs, const Leaf& leaf) const {
    run_task_graph(build_typed_task_graph(prob, n, bs), pool,
                   [&leaf](const BlockTask& t) {
                     leaf(t.i0, t.j0, t.k0, t.m, t.kind);
                   });
  }
};

}  // namespace gep

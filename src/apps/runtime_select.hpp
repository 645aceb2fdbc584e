// Internal: picks the executor for the IGep/IGepZ paths of the app entry
// points and owns the DAG runtime's pool. Not installed API.
#pragma once

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "apps/apps.hpp"
#include "gep/typed.hpp"
#include "obs/stat_server.hpp"
#include "parallel/task_graph.hpp"

namespace gep::apps::detail {

// Worker count for the DAG runtime: the request clamped to the host's
// concurrency. A dependency-driven runtime keeps every worker busy (no
// join barriers parking threads), so running more workers than cores
// only interleaves their working sets in the shared cache and adds
// context-switch thrash. Compute tasks never block, so there is no
// latency to hide.
inline int dag_workers(const RunOptions& opts) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min(opts.threads, static_cast<int>(hw));
}

// The DAG runtime's pools outlive the call: one idle pool per worker
// count is kept for the process and lent to the next job of that size.
// A fresh pool per call would start its threads every call, and at
// GEP_OBS=ON each started thread leaves a 64 KiB flight-recorder ring
// behind (kept for post-mortem dumps): a process solving in a loop
// would grow by about 0.2 MB per 4-thread solve. A job that finds no
// idle pool of its size (another thread holds it) starts its own; only
// one per size is kept.
class PoolCache {
 public:
  static std::unique_ptr<WorkStealingPool> take(int workers) {
    std::unique_ptr<WorkStealingPool> pool;
    {
      PoolCache& c = instance();
      std::lock_guard<std::mutex> lock(c.mu_);
      pool = std::move(c.idle_[workers]);
    }
    if (pool == nullptr) pool = std::make_unique<WorkStealingPool>(workers);
    return pool;
  }
  // Keeps `pool` unless an idle one of its size is already kept.
  static void give_back(std::unique_ptr<WorkStealingPool> pool) {
    PoolCache& c = instance();
    std::lock_guard<std::mutex> lock(c.mu_);
    std::unique_ptr<WorkStealingPool>& slot = c.idle_[pool->threads()];
    if (slot == nullptr) slot = std::move(pool);
  }

 private:
  static PoolCache& instance() {
    static PoolCache c;  // destroyed at exit: joins the parked workers
    return c;
  }
  std::mutex mu_;
  std::map<int, std::unique_ptr<WorkStealingPool>> idle_;
};

// Runs one typed I-GEP job: job(ex) with a SeqInvoker for one thread;
// otherwise with a DagExec on a work-stealing pool of dag_workers()
// threads from PoolCache, or on no pool when that leaves a single
// worker (run_task_graph then executes in emission order on the calling
// thread). All are bit-identical. A job that throws drops its pool
// instead of returning it.
template <class Job>
void run_typed(const RunOptions& opts, Job&& job) {
  if (opts.threads <= 1) {
    SeqInvoker inv;
    job(inv);
    return;
  }
  // Multithreaded jobs are long-running entry points: arm the embedded
  // stat server when $GEP_STAT_PORT asks for it (no-op otherwise or when
  // a bench banner already started it; inert stub at GEP_OBS=0).
  obs::StatServer::start_from_env();
  const int workers = dag_workers(opts);
  if (workers <= 1) {
    DagExec ex{nullptr};
    job(ex);
    return;
  }
  std::unique_ptr<WorkStealingPool> pool = PoolCache::take(workers);
  DagExec ex{pool.get()};
  job(ex);
  PoolCache::give_back(std::move(pool));
}

}  // namespace gep::apps::detail

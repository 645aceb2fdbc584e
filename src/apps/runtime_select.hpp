// Internal: picks the executor for the IGep/IGepZ paths of the app entry
// points and owns the DAG runtime's pool. Not installed API.
#pragma once

#include <algorithm>
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

// Runs one typed I-GEP job: job(ex) with a SeqInvoker for one thread;
// otherwise with a DagExec on a work-stealing pool of dag_workers()
// threads started for the job, or on no pool when that leaves a single
// worker (run_task_graph then executes in emission order on the calling
// thread). All are bit-identical. Each exiting worker frees its
// flight-recorder ring for the next job's workers, so repeated jobs do
// not grow the process.
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
  WorkStealingPool pool(workers);
  DagExec ex{&pool};
  job(ex);
}

}  // namespace gep::apps::detail

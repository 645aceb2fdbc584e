// Shared LRU page cache over one or more block files.
//
// This is the STXXL-cache substitute: a fully associative pool of M bytes
// in B-byte pages with LRU replacement and write-back, shared by every
// out-of-core matrix registered with it (just as STXXL's pool is shared
// by all its containers). M and B are the user-set knobs the paper
// sweeps in Fig. 7(a) and 7(b). Every page transfer is charged to the
// DiskModel, accumulating the simulated I/O wait time the figure plots.
//
// Concurrency model (docs/EXTMEM.md has the full contract):
//  - The frame table / LRU / frame metadata are guarded by one mutex;
//    page I/O itself runs OUTSIDE the lock with the frame marked busy,
//    so independent faults and the async worker overlap on the disk.
//  - Pin counts are atomic; acquire()/PagePin is the thread-safe API.
//    Raw pin() returns an unlocked pointer and is single-threaded only.
//  - Stats are sharded per-thread cells (the src/obs registry pattern)
//    aggregated on demand by stats().
//  - An optional async I/O worker (enable_async_io) services a prefetch
//    queue and opportunistically writes back dirty LRU-tail frames, both
//    charged to the DiskModel as overlapped (async) I/O wait.
//
// Fault tolerance (docs/ROBUSTNESS.md): every backing file is wrapped
// in a RobustStore (CRC32C page checksums + bounded retry with backoff)
// and, when RobustOptions::faults is enabled, a FaultInjector below it.
// Failed transfers surface as typed IoError/CorruptPageError with the
// cache's frame metadata left consistent (no leaked io_busy frames, no
// lost dirty pages); the async worker degrades to synchronous I/O after
// repeated failures instead of wedging the prefetch queue.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "extmem/block_file.hpp"
#include "extmem/disk_model.hpp"
#include "extmem/fault_injector.hpp"
#include "extmem/robust_store.hpp"
#include "util/aligned.hpp"

namespace gep {

// Fault-tolerance knobs for a PageCache (defaults are the production
// posture: checksums + retry on, no injection).
struct RobustOptions {
  bool checksums = true;  // CRC32C validated on every page-in
  RetryPolicy retry{};
  FaultConfig faults{};  // faults.enabled() inserts a FaultInjector
};

struct PageCacheStats {
  std::uint64_t pins = 0;
  std::uint64_t hits = 0;
  std::uint64_t page_ins = 0;   // transfers disk -> cache
  std::uint64_t page_outs = 0;  // dirty write-backs cache -> disk
  std::uint64_t evictions = 0;  // frames repurposed
  std::uint64_t prefetch_issued = 0;     // prefetch() calls
  std::uint64_t prefetch_completed = 0;  // pages faulted in by the worker
  std::uint64_t prefetch_redundant = 0;  // hint found the page resident
  std::uint64_t prefetch_hits = 0;       // pins served by a prefetched page
  std::uint64_t prefetch_dropped = 0;    // queue full / worker not running
  std::uint64_t writebacks_async = 0;    // background (overlapped) flushes
  // Fault-tolerance counters (aggregated from the per-file RobustStores
  // plus the cache's own recovery paths; mirrored as obs robust.*).
  std::uint64_t io_retries = 0;          // transparently retried transfers
  std::uint64_t crc_failures = 0;        // checksum mismatches seen
  std::uint64_t io_hard_failures = 0;    // ops that exhausted retries
  std::uint64_t writeback_failures = 0;  // evict/flush/write-behind throws
  std::uint64_t prefetch_errors = 0;     // async faults the worker absorbed
  std::uint64_t async_degraded = 0;      // 1 once the worker gave up
  double io_wait_seconds = 0;        // simulated (DiskModel), all transfers
  double io_wait_async_seconds = 0;  // portion done off the critical path

  std::uint64_t io() const { return page_ins + page_outs; }
  // Every pin is either a hit or a fault, so hits + misses == pins.
  std::uint64_t misses() const { return pins - hits; }
  // Fraction of worker-completed prefetches later consumed by a pin.
  double prefetch_hit_rate() const {
    return prefetch_completed == 0
               ? 0.0
               : static_cast<double>(prefetch_hits) /
                     static_cast<double>(prefetch_completed);
  }
  // Simulated wait actually blocking compute (total minus overlapped).
  double io_wait_foreground_seconds() const {
    return io_wait_seconds - io_wait_async_seconds;
  }
};

class PageCache {
 public:
  // Page ids are packed into 40 bits of the frame-table key.
  static constexpr std::uint64_t kMaxPages = 1ULL << 40;

  // capacity_bytes = M, page_bytes = B. Needs at least one frame.
  PageCache(std::uint64_t capacity_bytes, std::uint64_t page_bytes,
            DiskModel model = {}, RobustOptions robust = {});
  ~PageCache();

  PageCache(const PageCache&) = delete;
  PageCache& operator=(const PageCache&) = delete;

  // Registers a backing file (created by the cache, page size = B).
  // Returns a file id used by pin(). `pages` bounds the address space:
  // any access at page >= min(pages, kMaxPages) throws std::out_of_range
  // (an unchecked id would silently alias another file's pages in the
  // 40-bit key).
  int register_file(std::uint64_t pages);

  // Returns the in-memory frame holding the page, faulting it in if
  // needed; marks it dirty when for_write. The pointer stays valid until
  // the next pin() call (which may evict it). SINGLE-THREADED ONLY, and
  // incompatible with the async worker (which may evict the unlocked
  // frame at any time) — concurrent callers must use acquire().
  void* pin(int file_id, std::uint64_t page, bool for_write);

  // RAII pin: the page's frame cannot be evicted while a PagePin exists.
  // Lets block-level algorithms hold several tiles resident at once and
  // run raw-pointer kernels on them (the typed out-of-core engine).
  class PagePin {
   public:
    PagePin() = default;
    PagePin(PageCache* cache, std::size_t frame, void* data)
        : cache_(cache), frame_(frame), data_(data) {}
    PagePin(PagePin&& o) noexcept
        : cache_(o.cache_), frame_(o.frame_), data_(o.data_) {
      o.cache_ = nullptr;
      o.data_ = nullptr;
    }
    PagePin& operator=(PagePin&& o) noexcept {
      if (this != &o) {  // self-move must not drop the pin
        release();
        cache_ = o.cache_;
        frame_ = o.frame_;
        data_ = o.data_;
        o.cache_ = nullptr;
        o.data_ = nullptr;
      }
      return *this;
    }
    PagePin(const PagePin&) = delete;
    PagePin& operator=(const PagePin&) = delete;
    ~PagePin() { release(); }

    void* data() const { return data_; }

    void release() {
      if (cache_ != nullptr) {
        cache_->unpin_frame(frame_);
        cache_ = nullptr;
        data_ = nullptr;
      }
    }

   private:
    PageCache* cache_ = nullptr;
    std::size_t frame_ = 0;
    void* data_ = nullptr;
  };

  // Pins and locks a page; thread-safe. When every frame is pinned the
  // call waits for an unpin (bounded), then throws std::runtime_error —
  // the cache must have headroom for the concurrent pins the algorithms
  // hold (4 tiles per in-flight GEP leaf).
  PagePin acquire(int file_id, std::uint64_t page, bool for_write);

  // Hints that `page` will be pinned soon. With the async worker running
  // the page is faulted in from a background thread so the eventual pin
  // hits; without it the hint is counted as dropped. Never blocks.
  void prefetch(int file_id, std::uint64_t page);

  // Starts/stops the background I/O worker (prefetch + write-behind).
  // Idempotent; the destructor stops it automatically.
  void enable_async_io();
  void disable_async_io();
  bool async_io_enabled() const;

  // True once the worker has hit kWorkerDegradeThreshold consecutive
  // I/O failures, or one non-transient write-behind failure, and fallen
  // back to synchronous-only operation (every later prefetch is counted
  // dropped, and write-behind stops). enable_async_io() after a
  // disable_async_io() clears the flag.
  bool async_degraded() const {
    return degraded_.load(std::memory_order_acquire);
  }

  // The file's fault injector, or nullptr when robust.faults was not
  // enabled at construction. Test hook for hard faults / at-rest
  // corruption; valid for the cache's lifetime.
  FaultInjector* fault_injector(int file_id) const;

  // Current depth of the prefetch queue (diagnostics).
  std::size_t prefetch_queue_depth() const;

  // Write back all dirty frames (counts as foreground I/O), then sync
  // every backing store (data before CRC sidecar — see BlockStore::sync)
  // so the flushed state survives a crash. The post-flush sync is what
  // makes a checkpoint's "all pages durable" claim true.
  void flush();

  // Syncs every backing store without flushing (pages already written
  // back become durable; dirty resident frames are NOT written).
  void sync_files();

  // --- checkpoint support (extmem/checkpoint.hpp) ---

  // Pages of `file_id` ever written through the cache (since_mark=false)
  // or written since the last clear_changed_mark (since_mark=true).
  // Sorted ascending. A page counts as changed the moment a write pin
  // touches its frame, so after flush() the union of changed pages is
  // exactly the file's non-zero content.
  std::vector<std::uint64_t> changed_pages(int file_id,
                                           bool since_mark) const;

  // Starts a new incremental epoch: subsequent changed_pages(id, true)
  // reports only pages written after this call.
  void clear_changed_mark(int file_id);

  // Copies the page's CURRENT content into buf (page_bytes() bytes):
  // from the resident frame when valid and not mid-I/O, else from the
  // backing store. Thread-safe; intended to run quiesced (no concurrent
  // writers to this page).
  void read_page_snapshot(int file_id, std::uint64_t page, void* buf);

  // Writes the page through the full store stack (so RobustStore
  // recomputes its checksum), refreshes any resident frame, and records
  // the page as changed (total set only). Resume-time page replay.
  void install_page(int file_id, std::uint64_t page, const void* buf);

  // Monotonic counter bumped whenever any frame is repurposed; lets
  // callers revalidate cached frame pointers cheaply.
  std::uint64_t eviction_epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  // Aggregates the per-thread stat cells.
  PageCacheStats stats() const;
  void reset_stats();
  std::uint64_t page_bytes() const { return page_bytes_; }
  std::uint64_t frames() const { return frame_count_; }

 private:
  static constexpr int kStatShards = 16;
  static constexpr std::size_t kNoFrame = ~std::size_t{0};
  static constexpr std::size_t kMaxPrefetchQueue = 1024;
  // Consecutive async-worker I/O failures before it degrades.
  static constexpr int kWorkerDegradeThreshold = 8;

  struct Frame {
    std::uint64_t key = 0;         // (file_id << 40) | page
    std::atomic<int> pins{0};      // eviction-locked while > 0
    bool valid = false;
    bool dirty = false;
    bool io_busy = false;      // fault-in or write-back in flight
    bool prefetched = false;   // filled by the worker, not yet pinned
  };

  // Per-thread stat cells; aggregated by stats(). Doubles use a CAS add
  // so sequential accumulation stays bit-identical to the old field.
  struct alignas(64) StatShard {
    std::atomic<std::uint64_t> pins{0}, hits{0}, page_ins{0}, page_outs{0},
        evictions{0};
    std::atomic<std::uint64_t> prefetch_issued{0}, prefetch_completed{0},
        prefetch_redundant{0}, prefetch_hits{0}, prefetch_dropped{0},
        writebacks_async{0};
    std::atomic<double> io_wait{0.0}, io_wait_async{0.0};
  };

  struct PrefetchRequest {
    int file_id;
    std::uint64_t page;
  };

  // Per-file changed-page sets for checkpointing (guarded by mu_).
  // `total` accumulates every page ever dirtied; `since` restarts at
  // each clear_changed_mark() and feeds incremental snapshots.
  struct ChangeSet {
    std::unordered_set<std::uint64_t> total;
    std::unordered_set<std::uint64_t> since;
  };

  void unpin_frame(std::size_t frame);
  static std::uint64_t make_key(int file_id, std::uint64_t page) {
    return (static_cast<std::uint64_t>(file_id) << 40) | page;
  }
  static int key_file(std::uint64_t key) { return static_cast<int>(key >> 40); }
  static std::uint64_t key_page(std::uint64_t key) {
    return key & (kMaxPages - 1);
  }

  // All four require mu_ held (resident_frame/pick_victim may drop and
  // reacquire it around disk transfers).
  void check_key(int file_id, std::uint64_t page) const;
  void note_write(int file_id, std::uint64_t page);  // mu_ held
  std::size_t resident_frame(std::unique_lock<std::mutex>& lock, int file_id,
                             std::uint64_t page, bool for_write,
                             bool is_prefetch);
  std::size_t pick_victim(std::unique_lock<std::mutex>& lock,
                          bool is_prefetch);
  std::size_t write_behind_candidate() const;

  void io_worker_loop();
  void note_worker_failure();  // mu_ held; may set degraded_
  void degrade();              // mu_ held; sets degraded_
  void touch_lru(std::size_t frame);
  StatShard& stat_cell();
  static void add_double(std::atomic<double>& a, double d);

  std::uint64_t page_bytes_;
  std::uint64_t frame_count_;
  DiskModel model_;
  RobustOptions robust_;
  AlignedPtr<char> pool_;                  // frame_count_ x page_bytes_
  std::unique_ptr<Frame[]> frames_;

  mutable std::mutex mu_;
  std::condition_variable io_cv_;    // I/O completion + unpin wakeups
  std::condition_variable work_cv_;  // async worker's queue signal
  std::list<std::size_t> lru_;       // front = MRU, holds frame ids
  std::vector<std::list<std::size_t>::iterator> lru_pos_;
  std::unordered_map<std::uint64_t, std::size_t> table_;  // key -> frame
  // Per-file store stack (owned top-down): RobustStore ->
  // [FaultInjector ->] BlockFile. The view vectors alias into the stack.
  std::vector<std::unique_ptr<BlockStore>> files_;
  std::vector<RobustStore*> robust_views_;
  std::vector<FaultInjector*> injector_views_;
  std::vector<std::uint64_t> bounds_;  // per-file page-count bound
  std::vector<ChangeSet> changed_;     // per-file, for checkpoints
  std::deque<PrefetchRequest> prefetch_q_;
  int io_in_flight_ = 0;        // frames with io_busy set
  bool worker_running_ = false;
  bool worker_stop_ = false;
  int worker_failures_ = 0;     // consecutive; reset on success

  std::atomic<bool> degraded_{false};
  std::atomic<std::uint64_t> writeback_failures_{0};
  std::atomic<std::uint64_t> prefetch_errors_{0};
  std::atomic<int> evict_waiters_{0};
  std::atomic<std::uint64_t> epoch_{0};
  StatShard stat_shards_[kStatShards];
  std::thread io_worker_;
};

}  // namespace gep

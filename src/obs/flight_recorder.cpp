#include "obs/flight_recorder.hpp"

#if GEP_OBS

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"

namespace gep::obs {
inline namespace on {
namespace flight {

namespace {

using flightfmt::Event;
using flightfmt::FileHeader;
using flightfmt::ThreadHeader;

constexpr std::uint32_t kRingMask = kRingEvents - 1;
static_assert((kRingEvents & kRingMask) == 0, "ring size must be pow2");

// Spans a thread keeps while tracing (~40 MB). Overflow is counted, not
// stored, so a runaway trace degrades instead of OOMing the process.
constexpr std::size_t kMaxSpansPerThread = 1u << 20;

// One thread's record. Claimed on the thread's first record() — a ring
// an exited thread freed, else a new one — and never deleted: a dump may
// run (from a signal handler or the watchdog) after the owning thread
// exited, and its tail of events is exactly what such a dump is for. A
// reused ring keeps its events and spans, so a dump or trace still shows
// what exited threads did, and the ring count stays at the peak number
// of live recording threads.
struct Ring {
  Event ev[kRingEvents];
  std::atomic<std::uint64_t> seq{0};
  std::atomic<bool> owned{true};  // a live thread records here
  char name[24] = {};
  std::uint32_t tid = 0;
  Ring* next = nullptr;  // the older ring; set before this one is published
  // Recursion spans: appended by the owner while tracing, read by the
  // Tracer while it is stopped.
  std::vector<TraceEvent> spans;
  std::uint64_t spans_dropped = 0;
};

// Newest ring first. Rings are only ever pushed, never unlinked, so a
// walk from one load of the head sees a fixed list — with nothing but
// atomic loads, which a signal handler may do.
std::atomic<Ring*> g_head{nullptr};
std::atomic<std::uint32_t> g_next_tid{0};

Ring* rings() { return g_head.load(std::memory_order_acquire); }

std::atomic<bool> g_stop{false};
std::atomic<int> g_dumping{0};  // one dump at a time; extras are dropped

// Handler-visible dump path; fixed storage, set before handlers fire.
constexpr std::size_t kPathMax = 512;
char g_path[kPathMax] = "flight.gepdump";
std::atomic<bool> g_path_from_env_checked{false};

struct OldActions {
  struct sigaction segv, bus, fpe, abrt;
};

thread_local Ring* t_ring = nullptr;
thread_local bool t_exiting = false;

// Frees the thread's ring for a later thread when the thread exits. A
// TLS destructor that runs after this one and records gets a ring of
// its own from ring_slow (t_ring is null again), never this one, which
// another thread may own by then.
struct RingRelease {
  ~RingRelease() {
    t_exiting = true;
    Ring* r = t_ring;
    t_ring = nullptr;
    // Release: the next owner sees everything this thread wrote.
    if (r != nullptr) r->owned.store(false, std::memory_order_release);
  }
};
thread_local RingRelease t_release;

Ring* claim_free_ring() {
  for (Ring* r = rings(); r != nullptr; r = r->next) {
    bool owned = false;
    if (!r->owned.load(std::memory_order_relaxed) &&
        r->owned.compare_exchange_strong(owned, true,
                                         std::memory_order_acquire)) {
      return r;
    }
  }
  return nullptr;
}

Ring* ring_slow() {
  Ring* r = claim_free_ring();
  if (r == nullptr) {
    r = new Ring();
    r->tid = g_next_tid.fetch_add(1, std::memory_order_relaxed) + 1;
    r->next = g_head.load(std::memory_order_relaxed);
    while (!g_head.compare_exchange_weak(r->next, r,
                                         std::memory_order_release,
                                         std::memory_order_relaxed)) {
    }
  }
  std::snprintf(r->name, sizeof r->name, "thread-%u", r->tid);
  t_ring = r;
  // The first use of the thread_local registers its destructor; a
  // thread already past it keeps the ring.
  if (!t_exiting) (void)&t_release;
  return r;
}

inline Ring& this_ring() {
  Ring* r = t_ring;
  return r != nullptr ? *r : *ring_slow();
}

inline void push(Ring& r, std::uint64_t t_ns, std::uint64_t w) {
  const std::uint64_t s = r.seq.load(std::memory_order_relaxed);
  r.ev[s & kRingMask] = {t_ns, w};
  // Release: a dump thread that reads seq sees the event bytes.
  r.seq.store(s + 1, std::memory_order_release);
}

// write(2) the whole buffer, tolerating short writes / EINTR. Returns
// false on a real error (the dump is then simply truncated).
bool write_all(int fd, const void* data, std::size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t k = ::write(fd, p, len);
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += static_cast<std::size_t>(k);
    len -= static_cast<std::size_t>(k);
  }
  return true;
}

// The events section, written with only async-signal-safe calls.
// Returns the fd still open (metrics may be appended) or -1.
int dump_events(const char* path, std::int32_t reason) {
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return -1;
  Ring* const head = rings();
  std::uint32_t nr = 0;
  for (const Ring* r = head; r != nullptr; r = r->next) ++nr;
  FileHeader fh{};
  std::memcpy(fh.magic, flightfmt::kMagic, sizeof fh.magic);
  fh.version = flightfmt::kVersion;
  fh.reason = reason;
  fh.dump_ns = now_ns();
  fh.thread_count = nr;
  if (!write_all(fd, &fh, sizeof fh)) {
    ::close(fd);
    return -1;
  }
  for (const Ring* r = head; r != nullptr; r = r->next) {
    const std::uint64_t seq = r->seq.load(std::memory_order_acquire);
    const std::uint64_t count = seq < kRingEvents ? seq : kRingEvents;
    ThreadHeader th{};
    std::memcpy(th.name, r->name, sizeof th.name);
    th.name[sizeof th.name - 1] = '\0';
    th.tid = r->tid;
    th.count = static_cast<std::uint32_t>(count);
    th.seq = seq;
    if (!write_all(fd, &th, sizeof th)) break;
    // Oldest-to-newest. The owning thread may keep recording while we
    // copy — a torn event near the head is acceptable in a diagnostic
    // dump (the decoder tolerates any bit pattern).
    bool ok = true;
    for (std::uint64_t s = seq - count; s < seq && ok; ++s) {
      ok = write_all(fd, &r->ev[s & kRingMask], sizeof(Event));
    }
    if (!ok) break;
  }
  return fd;
}

bool dump_impl(const char* path, std::int32_t reason, bool with_metrics) {
  int expected = 0;
  if (!g_dumping.compare_exchange_strong(expected, 1,
                                         std::memory_order_acq_rel)) {
    return false;  // another dump mid-flight (e.g. crash during dump)
  }
  const int fd = dump_events(path, reason);
  bool ok = fd >= 0;
  if (ok) {
    std::uint32_t len = 0;
    if (with_metrics) {
      // Allocates — callers in signal context pass with_metrics=false.
      const std::string metrics = snapshot_json();
      len = static_cast<std::uint32_t>(metrics.size());
      ok = write_all(fd, &len, sizeof len) &&
           write_all(fd, metrics.data(), metrics.size());
    } else {
      ok = write_all(fd, &len, sizeof len);
    }
    ::close(fd);
  }
  g_dumping.store(0, std::memory_order_release);
  return ok;
}

// --- signal handlers -------------------------------------------------------

OldActions g_old{};

void crash_handler(int sig) {
  record(flightfmt::kSignal, static_cast<std::uint64_t>(sig));
  // Events only: snapshot_json() allocates, which a crashed thread may
  // be holding the allocator lock for.
  dump_impl(g_path, sig, /*with_metrics=*/false);
  // Re-raise with the original disposition so the process dies with the
  // real signal (exit status, core dumps, death tests all see it).
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

void usr1_handler(int sig) {
  record(flightfmt::kSignal, static_cast<std::uint64_t>(sig));
  // Operator-requested diagnostic on a presumed-healthy process: include
  // the metrics section (technically allocates in handler context — the
  // standard trade every thread-dump-on-signal runtime makes).
  dump_impl(g_path, sig, /*with_metrics=*/true);
}

void job_signal_handler(int sig) {
  record(flightfmt::kSignal, static_cast<std::uint64_t>(sig));
  g_stop.store(true, std::memory_order_release);
  dump_impl(g_path, sig, /*with_metrics=*/false);
  // One polite request only: restore the default so a second SIGINT
  // kills a job that is not polling stop_requested().
  ::signal(sig, SIG_DFL);
}

void init_path_from_env() {
  bool expected = false;
  if (!g_path_from_env_checked.compare_exchange_strong(expected, true)) {
    return;
  }
  if (const char* p = std::getenv("GEP_FLIGHT_DUMP")) {
    if (p[0] != '\0' && std::strlen(p) < kPathMax) {
      std::strncpy(g_path, p, kPathMax - 1);
      g_path[kPathMax - 1] = '\0';
    }
  }
}

void install_action(int sig, void (*fn)(int), struct sigaction* old) {
  struct sigaction sa{};
  sa.sa_handler = fn;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ::sigaction(sig, &sa, old);
}

}  // namespace

std::uint64_t now_ns() {
  struct timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void record(flightfmt::Ev type, std::uint64_t payload) {
  push(this_ring(), now_ns(), flightfmt::pack(type, payload));
}

void set_thread_name(const char* name) {
  Ring& r = this_ring();
  std::strncpy(r.name, name, sizeof r.name - 1);
  r.name[sizeof r.name - 1] = '\0';
}

void set_dump_path(const char* path) {
  g_path_from_env_checked.store(true);  // explicit path beats the env
  if (path != nullptr && path[0] != '\0' && std::strlen(path) < kPathMax) {
    std::strncpy(g_path, path, kPathMax - 1);
    g_path[kPathMax - 1] = '\0';
  }
}

const char* dump_path() {
  init_path_from_env();
  return g_path;
}

bool dump(const char* path, std::int32_t reason) {
  return dump_impl(path, reason, /*with_metrics=*/true);
}

bool dump_default(std::int32_t reason) {
  return dump_impl(dump_path(), reason, /*with_metrics=*/true);
}

void install_crash_handlers() {
  static std::atomic<bool> installed{false};
  bool expected = false;
  if (!installed.compare_exchange_strong(expected, true)) return;
  init_path_from_env();
  install_action(SIGSEGV, crash_handler, &g_old.segv);
  install_action(SIGBUS, crash_handler, &g_old.bus);
  install_action(SIGFPE, crash_handler, &g_old.fpe);
  install_action(SIGABRT, crash_handler, &g_old.abrt);
  install_action(SIGUSR1, usr1_handler, nullptr);
}

void install_job_signal_handlers() {
  static std::atomic<bool> installed{false};
  bool expected = false;
  if (!installed.compare_exchange_strong(expected, true)) return;
  init_path_from_env();
  install_action(SIGINT, job_signal_handler, nullptr);
  install_action(SIGTERM, job_signal_handler, nullptr);
}

bool stop_requested() { return g_stop.load(std::memory_order_acquire); }
void request_stop() { g_stop.store(true, std::memory_order_release); }
void reset_stop() { g_stop.store(false, std::memory_order_release); }

void clear() {
  for (Ring* r = rings(); r != nullptr; r = r->next) {
    r->seq.store(0, std::memory_order_release);
  }
}

}  // namespace flight

// --- recursion spans: the Tracer's storage is the ring ---------------------

namespace {
using flight::Ring;
using flight::rings;
std::atomic<std::uint64_t> g_trace_base_ns{0};
}  // namespace

std::atomic<bool>& Tracer::active_flag() {
  static std::atomic<bool> f{false};
  return f;
}

std::uint64_t Tracer::base_ns() {
  return g_trace_base_ns.load(std::memory_order_relaxed);
}

void Tracer::start() {
  std::uint64_t unset = 0;
  g_trace_base_ns.compare_exchange_strong(unset, flight::now_ns(),
                                          std::memory_order_relaxed);
  // Release: orders the base store before the flag (see active()).
  active_flag().store(true, std::memory_order_release);
}

void Tracer::stop() { active_flag().store(false, std::memory_order_release); }

void Tracer::clear() {
  for (Ring* r = rings(); r != nullptr; r = r->next) {
    r->spans.clear();
    r->spans_dropped = 0;
  }
  g_trace_base_ns.store(0, std::memory_order_relaxed);
}

std::size_t Tracer::event_count() {
  std::size_t n = 0;
  for (const Ring* r = rings(); r != nullptr; r = r->next)
    n += r->spans.size();
  return n;
}

std::uint64_t Tracer::dropped_count() {
  std::uint64_t n = 0;
  for (const Ring* r = rings(); r != nullptr; r = r->next)
    n += r->spans_dropped;
  return n;
}

std::vector<ThreadTrace> Tracer::snapshot() {
  std::vector<ThreadTrace> out;
  for (const Ring* r = rings(); r != nullptr; r = r->next) {
    if (r->spans.empty() && r->spans_dropped == 0) continue;
    out.push_back({static_cast<int>(r->tid), r->spans_dropped, r->spans,
                   std::string(r->name, ::strnlen(r->name, sizeof r->name))});
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.tid < b.tid;
  });
  return out;
}

void Tracer::record(const TraceEvent& e) {
  Ring& r = flight::this_ring();
  if (r.spans.size() < flight::kMaxSpansPerThread) {
    r.spans.push_back(e);
  } else {
    ++r.spans_dropped;
  }
}

// Entry: one clock read feeds rec_enter, the heartbeat and t0. The flag
// is read before the clock so a span never starts before base_ns().
ScopedSpan::ScopedSpan(char kind, int depth, long long i0, long long j0,
                       long long k0, long long m)
    : rec_(flightfmt::pack_rec(kind, depth, static_cast<std::uint64_t>(m))),
      on_(Tracer::active()) {
  const std::uint64_t t = flight::now_ns();
  flight::push(flight::this_ring(), t,
               flightfmt::pack(flightfmt::kRecEnter, rec_));
  Watchdog::beat_this_thread(t);
  if (!on_) return;
  e_.kind = kind;
  e_.depth = static_cast<std::uint16_t>(depth);
  e_.i0 = static_cast<std::uint32_t>(i0);
  e_.j0 = static_cast<std::uint32_t>(j0);
  e_.k0 = static_cast<std::uint32_t>(k0);
  e_.m = static_cast<std::uint32_t>(m);
  e_.t0_ns = t - Tracer::base_ns();
}

// Exit: one clock read feeds rec_leave and t1.
ScopedSpan::~ScopedSpan() {
  const std::uint64_t t = flight::now_ns();
  flight::push(flight::this_ring(), t,
               flightfmt::pack(flightfmt::kRecLeave, rec_));
  if (!on_) return;
  e_.t1_ns = t - Tracer::base_ns();
  Tracer::record(e_);
}

}  // namespace on
}  // namespace gep::obs

#endif  // GEP_OBS

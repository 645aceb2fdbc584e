// Scoped span tracer for the typed I-GEP recursion.
//
// obs::ScopedSpan is the one bracket each recursion node opens. Its
// entry clock read feeds the flight ring's rec_enter event and the
// watchdog heartbeat, its exit read rec_leave; while the Tracer is
// active the same stamps make a span {kind, depth, quadrant origin
// (i0,j0,k0), box side m, t_start, t_end} in the thread's flight ring.
// The Tracer has no buffers of its own, so a Chrome trace, a /profile
// folded stack and a .gepdump name a thread by the same ring tid.
// Spans export as Chrome trace_event JSON (chrome://tracing, Perfetto).
//
// Usage:
//   obs::Tracer::start();
//   ... run an igep_* driver ...
//   obs::Tracer::stop();
//   obs::Tracer::write_chrome_trace("igep.trace.json");
//
// The bench harness drives this from the GEP_OBS_TRACE environment
// variable (value = output path). With GEP_OBS=0 everything here is an
// empty inline stub.
#pragma once

#ifndef GEP_OBS
#define GEP_OBS 1
#endif

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#if GEP_OBS
#include <atomic>
#endif

namespace gep::obs {

#if GEP_OBS

inline namespace on {

struct TraceEvent {
  std::uint64_t t0_ns = 0;  // flight::now_ns() - Tracer::base_ns()
  std::uint64_t t1_ns = 0;
  std::uint32_t i0 = 0, j0 = 0, k0 = 0, m = 0;
  std::uint16_t depth = 0;
  char kind = '?';  // 'A' / 'B' / 'C' / 'D' (typed recursion), free-form
};

// Copy of one thread's recorded spans (Tracer::snapshot()).
struct ThreadTrace {
  int tid = 0;  // the thread's flight-ring tid
  std::uint64_t dropped = 0;
  std::vector<TraceEvent> events;
  std::string name;  // the ring's name ("ws-worker-3")
};

class Tracer {
 public:
  // Acquire: pairs with start()'s release so a recording thread that
  // sees the flag also sees base_ns().
  static bool active() {
    return active_flag().load(std::memory_order_acquire);
  }
  static void start();  // clears nothing; resumes appending
  static void stop();
  static void clear();  // drops all recorded spans
  static std::size_t event_count();
  static std::uint64_t dropped_count();

  // Copies every thread's spans out of the rings, ordered by tid — the
  // input of the profile aggregation pass (obs/profile.hpp). Call while
  // stopped (a racing record() on a live thread may or may not be seen).
  static std::vector<ThreadTrace> snapshot();

  // Appends to the calling thread's ring (capped; overflow is counted,
  // not stored). Only meaningful while active.
  static void record(const TraceEvent& e);

  // Serializes all spans as Chrome trace_event JSON, with one
  // thread_name record per thread. Call while stopped. Returns false
  // when the file cannot be written.
  static bool write_chrome_trace(const std::string& path);

  // Value of $GEP_OBS_TRACE (the trace output path), or nullptr.
  static const char* env_path();

  // flight::now_ns() at the first start() since the last clear().
  static std::uint64_t base_ns();

 private:
  static std::atomic<bool>& active_flag();
};

// RAII bracket around one recursion node (see the file comment).
// Defined next to the ring it writes, in flight_recorder.cpp.
class ScopedSpan {
 public:
  ScopedSpan(char kind, int depth, long long i0, long long j0, long long k0,
             long long m);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::uint64_t rec_;  // rec_enter / rec_leave payload
  TraceEvent e_;       // filled only while tracing
  bool on_ = false;
};

}  // namespace on

#else  // GEP_OBS == 0

inline namespace off {

struct TraceEvent {};

struct ThreadTrace {
  int tid = 0;
  std::uint64_t dropped = 0;
  std::vector<TraceEvent> events;
  std::string name;
};

class Tracer {
 public:
  static bool active() { return false; }
  static void start() {}
  static void stop() {}
  static void clear() {}
  static std::size_t event_count() { return 0; }
  static std::uint64_t dropped_count() { return 0; }
  static std::vector<ThreadTrace> snapshot() { return {}; }
  static void record(const TraceEvent&) {}
  static bool write_chrome_trace(const std::string&) { return false; }
  static const char* env_path() { return nullptr; }
};

class ScopedSpan {
 public:
  ScopedSpan(char, int, long long, long long, long long, long long) {}
};

}  // namespace off

#endif  // GEP_OBS

}  // namespace gep::obs

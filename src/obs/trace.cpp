// Chrome trace export. The Tracer's span storage and its start/stop
// state live in flight_recorder.cpp, next to the per-thread rings that
// hold the spans.
#include "obs/trace.hpp"

#if GEP_OBS

#include <cstdlib>
#include <fstream>

#include "obs/json.hpp"

namespace gep::obs {
inline namespace on {

const char* Tracer::env_path() { return std::getenv("GEP_OBS_TRACE"); }

bool Tracer::write_chrome_trace(const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  JsonWriter w(os);
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  for (const ThreadTrace& t : snapshot()) {
    w.begin_object();
    w.kv("name", "thread_name");
    w.kv("ph", "M");  // metadata: names the tid's track
    w.kv("pid", 1);
    w.kv("tid", t.tid);
    w.key("args");
    w.begin_object();
    w.kv("name", t.name);
    w.end_object();
    w.end_object();
    for (const TraceEvent& e : t.events) {
      w.begin_object();
      w.key("name");
      char name[2] = {e.kind, 0};
      w.value(name);
      w.kv("cat", "igep");
      w.kv("ph", "X");  // complete event: ts + dur
      w.kv("pid", 1);
      w.kv("tid", t.tid);
      w.kv("ts", static_cast<double>(e.t0_ns) / 1e3);  // microseconds
      w.kv("dur", static_cast<double>(e.t1_ns - e.t0_ns) / 1e3);
      w.key("args");
      w.begin_object();
      w.kv("depth", static_cast<int>(e.depth));
      w.kv("i0", static_cast<std::uint64_t>(e.i0));
      w.kv("j0", static_cast<std::uint64_t>(e.j0));
      w.kv("k0", static_cast<std::uint64_t>(e.k0));
      w.kv("m", static_cast<std::uint64_t>(e.m));
      w.end_object();
      w.end_object();
    }
  }
  w.end_array();
  w.kv("displayTimeUnit", "ms");
  w.end_object();
  os << '\n';
  return static_cast<bool>(os);
}

}  // namespace on
}  // namespace gep::obs

#endif  // GEP_OBS

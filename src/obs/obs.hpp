// Umbrella header for the observability layer.
//
//   registry.hpp    — named counters / gauges / log2 histograms,
//                     per-thread sharded, lock-free on the hot path
//   hw_counters.hpp — perf_event_open wrapper (cycles, instructions,
//                     L1d / LLC misses) with graceful no-op fallback
//   trace.hpp       — ScopedSpan, the one bracket per recursion node
//                     (flight-ring enter/leave + watchdog beat, and a
//                     span while tracing), exported as Chrome JSON
//   profile.hpp     — aggregation pass over the tracer: per-(kind,depth)
//                     attribution, folded flamegraph stacks, sampled
//                     leaf roofline points
//   json.hpp        — the streaming JSON writer the exporters share
//   json_read.hpp   — the matching reader (manifest / diff tooling)
//   flight_recorder.hpp — the per-thread record: an always-on event
//                     ring (signal-handler *.gepdump path, read by
//                     tools/gep_events) that also holds trace spans
//   watchdog.hpp    — heartbeat sources + stall monitor (counter ->
//                     stderr -> flight dump escalation)
//   progress.hpp    — percent-complete / ETA from the typed engine's
//                     work counters vs the closed-form totals
//   io_model.hpp    — predicted Θ(n³/(B√M)) block transfers for the
//                     measured-vs-bound ratio in the OOC benches
//   expo.hpp        — Prometheus text exposition shared by the live
//                     /metrics endpoint and `gep_events --prom`
//   stat_server.hpp — embedded HTTP exporter (/metrics, /healthz,
//                     /progress, /profile, /io, /flight?dump=1)
//
// Compile-time switch: GEP_OBS (default 1; CMake -DGEP_OBS=0 turns every
// producer into an inline no-op stub — the default hot paths carry no
// instrumentation code at all). See docs/OBSERVABILITY.md.
#pragma once

#include "obs/expo.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/hw_counters.hpp"
#include "obs/io_model.hpp"
#include "obs/json.hpp"
#include "obs/json_read.hpp"
#include "obs/profile.hpp"
#include "obs/progress.hpp"
#include "obs/registry.hpp"
#include "obs/stat_server.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"

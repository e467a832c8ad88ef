#pragma once
/// \file flight.hpp
/// Always-armed flight recorder: a bounded per-thread ring of the most
/// recent spans/instants, kept at near-zero cost so a degraded run can be
/// explained *after the fact* without having asked for a trace up front.
///
/// The storage is the second ring in detail::ThreadBuffer (trace.hpp);
/// recording shares the Span hot path (one state-byte load when idle) and
/// keeps absolute steady_clock timestamps so the window survives trace
/// re-arms. Snapshots normalise timestamps to the earliest retained event.
/// Because rings hold complete spans and evict oldest-first, any retained
/// suffix of a properly nested span stream is itself properly nested —
/// flight dumps pass the same structural checks as full traces
/// (scripts/check_trace.py --flight).
///
/// Degraded-run plumbing: recovery paths call flight_report_degraded() the
/// moment they give up on the fast path (sequential lane fallback, extmem
/// permanent I/O faults, dist segment-retry exhaustion). That is a cheap
/// marker — it records a "flight.degraded" instant, bumps the
/// "obs.degraded" counter and latches the first reason. The snapshot file
/// itself is written later, from a quiescent point (mpsort/harness
/// finalisation calling flight_write_pending()), because dumping from the
/// fault site could race with other lanes still recording. Configure the
/// dump destination with set_flight_dump_path() or the MP_FLIGHT_DUMP
/// environment variable; every degraded run then leaves a post-mortem
/// artifact.
///
/// MP_FLIGHT=0 in the environment disables the recorder at startup (one
/// state-byte bit).

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace mp::obs {

/// True when spans are currently being folded into the flight ring.
bool flight_enabled();

/// Turns the recorder on/off (control-plane: call while quiescent). The
/// bench Harness turns it off by default so measured numbers never include
/// recorder cost; mpsort leaves it on.
void set_flight_enabled(bool on);

/// Resizes every thread's flight ring (and clears them). Control-plane.
void set_flight_capacity(std::size_t events_per_thread);

/// The most recent events from every thread, timestamps normalised to the
/// earliest retained event, sorted like trace_snapshot(). Non-destructive.
std::vector<TraceEvent> flight_snapshot();

/// Clears all flight rings and the degraded/dumped latches.
void reset_flight();

/// Chrome-JSON export of flight_snapshot(); otherData carries
/// "flight_recorder":true and the latched degrade "reason" ("" if the dump
/// was requested rather than triggered).
void write_flight_trace(std::ostream& os);
bool write_flight_trace_file(const std::string& path);

/// Where automatic degraded-run dumps go ("" = nowhere). Initialised from
/// MP_FLIGHT_DUMP at startup.
void set_flight_dump_path(const std::string& path);
std::string flight_dump_path();

/// Marks the current run degraded: records a "flight.degraded" instant,
/// bumps the "obs.degraded" counter and latches `reason` (first caller
/// wins; must be a static string). Cheap and safe from any thread.
void flight_report_degraded(const char* reason);

/// True once flight_report_degraded() has fired (since the last
/// reset_flight()).
bool flight_degraded();

/// The latched first reason, or nullptr.
const char* flight_degraded_reason();

/// If the run degraded, a dump path is configured and no dump has been
/// written yet, writes the flight snapshot there. Returns true if a file
/// was written. Call from a quiescent finalisation point; pass force=true
/// to dump regardless of degrade state (mpsort --flight-dump semantics).
bool flight_write_pending(bool force = false);

}  // namespace mp::obs

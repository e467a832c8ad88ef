#pragma once
/// \file trace.hpp
/// Lane-level tracing: a lock-free per-thread span/counter recorder with a
/// Chrome/Perfetto trace_event exporter (trace.cpp), plus the shared
/// per-thread storage for the flight recorder (flight.hpp) and the online
/// span-duration percentiles (percentiles.hpp).
///
/// Design (see docs/OBSERVABILITY.md):
///  - Each recording thread owns fixed-capacity ring buffers of complete
///    events. The hot path (Span construction/destruction) touches only
///    thread-local state — no locks, no allocation; the only shared access
///    is one acquire load of a combined state byte that tells the span
///    which consumers are armed (trace ring, span stats, flight ring).
///    When a ring is full the oldest events are overwritten and counted as
///    dropped, so a long run keeps the most recent window.
///  - Spans are stored as single complete records (start + duration), never
///    as separate begin/end entries, so ring eviction can not orphan half a
///    span: every span in a snapshot is balanced by construction. (This is
///    also what makes flight-recorder suffixes well-nested: dropping the
///    oldest complete spans of a properly nested stream leaves a properly
///    nested stream.)
///  - Timestamps are one std::chrono::steady_clock read (monotonic_ns()).
///    Trace events are stored relative to the arm epoch; flight events keep
///    absolute steady_clock time so the always-on ring survives re-arms.
///  - Arming, disarming, resetting and snapshotting are cold control-plane
///    operations (trace.cpp / percentiles.cpp / flight.cpp). They may only
///    run while no instrumented work is in flight — the same quiescence the
///    ThreadPool's fork-join barrier already provides — which is what keeps
///    the recorder TSan-clean without hot-path synchronisation.
///
/// Turning it off is a run-time decision: with nothing armed (no trace,
/// no percentiles, and the flight recorder off via MP_FLIGHT=0 or
/// set_flight_enabled(false)) a span costs the one state-byte load.

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace mp::obs {

/// Nanoseconds on the steady_clock timeline: the timestamp of every span,
/// counter, flight event, pool lane and serve request.
inline std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Default per-thread trace-ring capacity (events). ~48 bytes/event, so
/// 64Ki events ≈ 3 MiB per recording thread.
inline constexpr std::size_t kDefaultTraceCapacity = std::size_t{1} << 16;

/// Default per-thread flight-recorder capacity: the last 2Ki events
/// (~96 KiB/thread) — enough to cover a full degraded request while staying
/// cheap to keep always-armed.
inline constexpr std::size_t kDefaultFlightCapacity = std::size_t{1} << 11;

/// Per-thread span-stats name table size. Core span names number ~40; a
/// thread emitting more distinct names than this counts the excess as
/// dropped (span_stats_dropped) rather than growing on the hot path.
inline constexpr std::size_t kSpanStatSlots = 64;

/// Streaming-histogram geometry for span durations: exact buckets below
/// 8 ns, then 8 sub-buckets per power of two (3 mantissa bits). See
/// percentiles.hpp for the bucket mapping and the resulting error bound.
inline constexpr std::size_t kSpanHistBuckets = 8 + 61 * 8;

enum class EventKind : std::uint8_t {
  kSpan,     ///< timed interval (Chrome "X")
  kCounter,  ///< sampled counter value (Chrome "C")
  kInstant,  ///< point event (Chrome "i")
};

/// One recorded event. `name` and `arg_name` must be pointers to strings
/// with static storage duration (the recorder stores the pointer only).
struct TraceEvent {
  std::uint64_t ts_ns = 0;       ///< start (epoch-relative in the trace
                                 ///< ring, absolute in the flight ring)
  std::uint64_t dur_ns = 0;      ///< span duration; 0 for counter/instant
  const char* name = nullptr;    ///< static string
  const char* arg_name = nullptr;  ///< optional static string (nullptr: none)
  std::uint64_t arg = 0;         ///< arg / counter value
  std::uint32_t tid = 0;         ///< recording thread id (filled on snapshot)
  EventKind kind = EventKind::kSpan;
};

namespace detail {

/// Streaming log-bucketed histogram of span durations (one per distinct
/// span name per thread). Written only by the owning thread.
struct SpanHist {
  std::array<std::uint64_t, kSpanHistBuckets> counts{};
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;
  std::uint64_t max_ns = 0;
};

/// Per-thread recorder state. Written only by its owning thread; read by
/// the control plane while the owner is quiescent.
struct ThreadBuffer {
  // Trace ring (armed window, epoch-relative timestamps).
  std::vector<TraceEvent> ring;
  std::size_t next = 0;        ///< next write slot
  std::size_t count = 0;       ///< valid events (<= ring.size())
  std::uint64_t dropped = 0;   ///< events lost to wraparound (or capacity 0)

  // Flight ring (always-armed window, absolute timestamps).
  std::vector<TraceEvent> flight;
  std::size_t flight_next = 0;
  std::size_t flight_count = 0;

  // Span-duration histograms, keyed by name pointer (lazy per-name alloc
  // off the hot path; duplicate string literals from different TUs are
  // re-merged by name at snapshot time).
  struct StatSlot {
    const char* name = nullptr;
    std::unique_ptr<SpanHist> hist;
  };
  std::array<StatSlot, kSpanStatSlots> stats{};
  std::uint64_t stats_dropped = 0;  ///< names beyond kSpanStatSlots

  std::uint32_t tid = 0;  ///< registration order
  /// A live thread records here (registry mutex). An exited thread's
  /// buffer is handed to the next thread that registers, so the trace
  /// shows the two under one tid, one after the other.
  bool owned = false;

  void push(const TraceEvent& event) {
    if (ring.empty()) {
      ++dropped;
      return;
    }
    ring[next] = event;
    next = next + 1 == ring.size() ? 0 : next + 1;
    if (count < ring.size())
      ++count;
    else
      ++dropped;  // overwrote the oldest event
  }

  void flight_push(const TraceEvent& event) {
    if (flight.empty()) return;
    flight[flight_next] = event;
    flight_next = flight_next + 1 == flight.size() ? 0 : flight_next + 1;
    if (flight_count < flight.size()) ++flight_count;
  }
};

/// Bits of the combined span-state byte. One acquire load in the span
/// constructor tells the hot path everything: 0 means "record nothing"
/// (the disarmed cost is that single load), any set bit routes the span to
/// the corresponding consumer in the destructor.
inline constexpr std::uint8_t kSpanTraceBit = 1;   ///< trace ring armed
inline constexpr std::uint8_t kSpanStatsBit = 2;   ///< percentiles armed
inline constexpr std::uint8_t kSpanFlightBit = 4;  ///< flight ring enabled

/// Combined state, checked inline on every span. The flight recorder is on
/// by default ("always-armed"); flight.cpp clears the bit at startup when
/// MP_FLIGHT=0. Release stores in the control plane pair with this acquire
/// so a thread that observes a bit also observes the matching (re)init.
inline std::atomic<std::uint8_t> g_span_state{kSpanFlightBit};

/// Cached pointer to this thread's buffer. Buffers live until process exit
/// (the registry never destroys them), so a cached pointer cannot dangle;
/// thread exit clears it and hands the buffer back for reuse.
inline thread_local ThreadBuffer* g_thread_buffer = nullptr;

/// Cold path: registers a buffer for the calling thread (trace.cpp).
ThreadBuffer* register_thread_buffer();

/// Arm epoch in monotonic_ns units; trace-ring timestamps are relative to
/// it (flight-ring timestamps are absolute).
inline std::atomic<std::uint64_t> g_trace_epoch_ns{0};

inline ThreadBuffer* local_buffer() {
  ThreadBuffer* buffer = g_thread_buffer;
  if (!buffer) buffer = g_thread_buffer = register_thread_buffer();
  return buffer;
}

/// Owns every thread's recorder state. Shared between trace.cpp,
/// percentiles.cpp and flight.cpp; buffers are created on a thread's first
/// recorded event (or taken over from an exited thread) and never
/// destroyed (the registry itself is leaked on purpose: ThreadPool workers
/// may still hold cached buffer pointers during static destruction, and a
/// few MiB of process-lifetime state is cheaper than a shutdown-order
/// hazard).
struct TraceRegistry {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::size_t capacity = kDefaultTraceCapacity;
  std::size_t flight_capacity = kDefaultFlightCapacity;

  static TraceRegistry& instance();  // trace.cpp (leaked singleton)
};

/// Cold-ish path: folds one finished span into the thread's histogram for
/// `name` (percentiles.cpp).
void record_span_stat(ThreadBuffer& buffer, const char* name,
                      std::uint64_t dur_ns);

}  // namespace detail

/// RAII span + counter/instant entry points.
class Span {
 public:
  explicit Span(const char* name, const char* arg_name = nullptr,
                std::uint64_t arg = 0) {
    state_ = detail::g_span_state.load(std::memory_order_acquire);
    if (state_ == 0) return;
    name_ = name;
    arg_name_ = arg_name;
    arg_ = arg;
    start_ns_ = monotonic_ns();
  }

  ~Span() {
    if (state_ == 0) return;
    const std::uint64_t now = monotonic_ns();
    const std::uint64_t dur = now - start_ns_;
    detail::ThreadBuffer* buffer = detail::local_buffer();
    if (state_ & detail::kSpanTraceBit) {
      const std::uint64_t epoch =
          detail::g_trace_epoch_ns.load(std::memory_order_relaxed);
      // A span opened before the current arm window would underflow the
      // epoch-relative timestamp (e.g. a sleeping scheduler worker whose
      // idle span straddles a re-arm); such spans belong to no window.
      if (start_ns_ >= epoch)
        buffer->push(TraceEvent{start_ns_ - epoch, dur, name_, arg_name_,
                                arg_, 0, EventKind::kSpan});
    }
    if (state_ & detail::kSpanFlightBit)
      buffer->flight_push(TraceEvent{start_ns_, dur, name_, arg_name_, arg_,
                                     0, EventKind::kSpan});
    if (state_ & detail::kSpanStatsBit)
      detail::record_span_stat(*buffer, name_, dur);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Records a sampled counter value (Chrome "C" event).
  static void counter(const char* name, std::uint64_t value) {
    point_event(TraceEvent{0, 0, name, nullptr, value, 0,
                           EventKind::kCounter});
  }

  /// Records a point-in-time event (Chrome "i" event).
  static void instant(const char* name, const char* arg_name = nullptr,
                      std::uint64_t arg = 0) {
    point_event(TraceEvent{0, 0, name, arg_name, arg, 0,
                           EventKind::kInstant});
  }

 private:
  static void point_event(TraceEvent event) {
    const std::uint8_t state =
        detail::g_span_state.load(std::memory_order_acquire);
    if ((state & (detail::kSpanTraceBit | detail::kSpanFlightBit)) == 0)
      return;
    const std::uint64_t now = monotonic_ns();
    detail::ThreadBuffer* buffer = detail::local_buffer();
    if (state & detail::kSpanTraceBit) {
      const std::uint64_t epoch =
          detail::g_trace_epoch_ns.load(std::memory_order_relaxed);
      if (now >= epoch) {
        event.ts_ns = now - epoch;
        buffer->push(event);
      }
    }
    if (state & detail::kSpanFlightBit) {
      event.ts_ns = now;
      buffer->flight_push(event);
    }
  }

  std::uint8_t state_ = 0;  // consumers armed at entry; 0: record nothing
  const char* name_ = nullptr;
  const char* arg_name_ = nullptr;
  std::uint64_t arg_ = 0;
  std::uint64_t start_ns_ = 0;
};

// ---------------------------------------------------------------------------
// Control plane (defined in trace.cpp). May only be called while no
// instrumented work is in flight.

/// Starts recording: resets all rings to `events_per_thread` capacity and
/// sets the trace epoch to "now".
void arm_tracing(std::size_t events_per_thread = kDefaultTraceCapacity);

/// Stops recording. Already-recorded events are kept for snapshot/export.
void disarm_tracing();

/// True between arm_tracing() and disarm_tracing().
bool tracing_armed();

/// Drops all recorded events and drop counts (buffers stay registered).
void reset_tracing();

/// All recorded events, sorted by timestamp (ties: longer span first, so a
/// parent precedes the children it encloses). Non-destructive.
std::vector<TraceEvent> trace_snapshot();

/// Total events lost to ring wraparound since the last arm/reset.
std::uint64_t trace_dropped();

/// Number of threads that have recorded at least one event ever.
std::size_t trace_thread_count();

/// Writes the Chrome/Perfetto trace_event JSON for the current snapshot
/// (load via chrome://tracing or https://ui.perfetto.dev). Spans are "X"
/// complete events; counters "C"; instants "i". otherData carries the
/// timestamp source under "clock" (always {"source":"steady"}).
void write_chrome_trace(std::ostream& os);

/// write_chrome_trace() to a file; returns false (and reports on stderr) if
/// the file cannot be written.
bool write_chrome_trace_file(const std::string& path);

namespace detail {

/// Shared exporter body: events must already be sorted; `extra_other_data`
/// is a raw JSON fragment spliced into otherData (must start with ',' when
/// non-empty, e.g. ",\"flight_recorder\":true").
void write_trace_json(std::ostream& os, const std::vector<TraceEvent>& events,
                      std::uint64_t dropped,
                      const std::string& extra_other_data);

}  // namespace detail

}  // namespace mp::obs

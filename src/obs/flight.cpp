#include "obs/flight.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <ostream>

#include "obs/metrics.hpp"

namespace mp::obs {
namespace {

std::atomic<const char*> g_degraded_reason{nullptr};
std::atomic<bool> g_degraded{false};
std::atomic<bool> g_dumped{false};

/// Dump path; guarded by its own mutex (set from CLI parsing / env, read
/// at finalisation — never on the span hot path).
std::mutex g_dump_path_mutex;
std::string& dump_path_storage() {
  static std::string* path = new std::string;
  return *path;
}

/// Startup: apply MP_FLIGHT / MP_FLIGHT_DUMP before main() runs. The state
/// byte is constant-initialised with the flight bit set, so clearing it
/// here (dynamic init) is ordered correctly.
const bool g_env_applied = [] {
  if (const char* env = std::getenv("MP_FLIGHT")) {
    if (std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0)
      detail::g_span_state.fetch_and(
          static_cast<std::uint8_t>(~detail::kSpanFlightBit),
          std::memory_order_release);
  }
  if (const char* env = std::getenv("MP_FLIGHT_DUMP")) {
    dump_path_storage() = env;
  }
  return true;
}();

}  // namespace

bool flight_enabled() {
  return (detail::g_span_state.load(std::memory_order_acquire) &
          detail::kSpanFlightBit) != 0;
}

void set_flight_enabled(bool on) {
  if (on)
    detail::g_span_state.fetch_or(detail::kSpanFlightBit,
                                  std::memory_order_release);
  else
    detail::g_span_state.fetch_and(
        static_cast<std::uint8_t>(~detail::kSpanFlightBit),
        std::memory_order_release);
}

void set_flight_dump_path(const std::string& path) {
  std::lock_guard lock(g_dump_path_mutex);
  dump_path_storage() = path;
}

std::string flight_dump_path() {
  std::lock_guard lock(g_dump_path_mutex);
  return dump_path_storage();
}

void flight_report_degraded(const char* reason) {
  Span::instant("flight.degraded");
  MetricsRegistry::instance().counter("obs.degraded").add(1);
  const char* expected = nullptr;
  g_degraded_reason.compare_exchange_strong(expected, reason,
                                            std::memory_order_acq_rel);
  g_degraded.store(true, std::memory_order_release);
}

bool flight_degraded() { return g_degraded.load(std::memory_order_acquire); }

const char* flight_degraded_reason() {
  return g_degraded_reason.load(std::memory_order_acquire);
}

void set_flight_capacity(std::size_t events_per_thread) {
  detail::TraceRegistry& registry = detail::TraceRegistry::instance();
  std::lock_guard lock(registry.mutex);
  registry.flight_capacity = events_per_thread;
  for (auto& buffer : registry.buffers) {
    buffer->flight.assign(events_per_thread, TraceEvent{});
    buffer->flight_next = 0;
    buffer->flight_count = 0;
  }
}

std::vector<TraceEvent> flight_snapshot() {
  detail::TraceRegistry& registry = detail::TraceRegistry::instance();
  std::lock_guard lock(registry.mutex);
  std::vector<TraceEvent> events;
  for (const auto& buffer : registry.buffers) {
    const std::size_t cap = buffer->flight.size();
    for (std::size_t k = 0; k < buffer->flight_count; ++k) {
      const std::size_t idx =
          (buffer->flight_next + cap - buffer->flight_count + k) % cap;
      TraceEvent event = buffer->flight[idx];
      event.tid = buffer->tid;
      events.push_back(event);
    }
  }
  // Normalise absolute steady_clock timestamps to the earliest retained event.
  std::uint64_t min_ts = ~std::uint64_t{0};
  for (const TraceEvent& event : events) min_ts = std::min(min_ts, event.ts_ns);
  for (TraceEvent& event : events) event.ts_ns -= min_ts;
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& x, const TraceEvent& y) {
              if (x.ts_ns != y.ts_ns) return x.ts_ns < y.ts_ns;
              return x.dur_ns > y.dur_ns;  // parent before children
            });
  return events;
}

void reset_flight() {
  {
    detail::TraceRegistry& registry = detail::TraceRegistry::instance();
    std::lock_guard lock(registry.mutex);
    for (auto& buffer : registry.buffers) {
      buffer->flight_next = 0;
      buffer->flight_count = 0;
    }
  }
  g_degraded.store(false, std::memory_order_release);
  g_degraded_reason.store(nullptr, std::memory_order_release);
  g_dumped.store(false, std::memory_order_release);
}

void write_flight_trace(std::ostream& os) {
  const char* reason = flight_degraded_reason();
  std::string extra = ",\"flight_recorder\":true,\"reason\":\"";
  extra += reason ? reason : "";
  extra += '"';
  detail::write_trace_json(os, flight_snapshot(), 0, extra);
}

bool write_flight_trace_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "obs: cannot write flight snapshot to " << path << "\n";
    return false;
  }
  write_flight_trace(out);
  return out.good();
}

bool flight_write_pending(bool force) {
  if (!force && !flight_degraded()) return false;
  const std::string path = flight_dump_path();
  if (path.empty()) return false;
  if (g_dumped.exchange(true, std::memory_order_acq_rel)) return false;
  if (!write_flight_trace_file(path)) return false;
  std::cerr << "obs: flight snapshot written to " << path
            << (flight_degraded()
                    ? std::string(" (degraded: ") +
                          (flight_degraded_reason() ? flight_degraded_reason()
                                                    : "?") +
                          ")"
                    : std::string(" (on demand)"))
            << "\n";
  return true;
}

}  // namespace mp::obs

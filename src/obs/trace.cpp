#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <ostream>

namespace mp::obs {

namespace detail {

TraceRegistry& TraceRegistry::instance() {
  static TraceRegistry* registry = new TraceRegistry;
  return *registry;
}

namespace {

/// Hands the calling thread's buffer back to the registry when the thread
/// exits, so short-lived threads (the workers of a ThreadPool built per
/// call) recycle one buffer instead of leaking a trace ring each.
struct BufferLease {
  ThreadBuffer* buffer = nullptr;
  ~BufferLease() {
    if (buffer == nullptr) return;
    g_thread_buffer = nullptr;
    TraceRegistry& registry = TraceRegistry::instance();
    std::lock_guard lock(registry.mutex);
    buffer->owned = false;
  }
};
thread_local BufferLease t_lease;

}  // namespace

ThreadBuffer* register_thread_buffer() {
  TraceRegistry& registry = TraceRegistry::instance();
  std::lock_guard lock(registry.mutex);
  ThreadBuffer* buffer = nullptr;
  for (auto& b : registry.buffers) {
    if (!b->owned) {
      buffer = b.get();  // an exited thread's: keeps its tid and events
      break;
    }
  }
  if (buffer == nullptr) {
    registry.buffers.push_back(std::make_unique<ThreadBuffer>());
    buffer = registry.buffers.back().get();
    buffer->tid = static_cast<std::uint32_t>(registry.buffers.size() - 1);
    buffer->ring.resize(registry.capacity);
    buffer->flight.resize(registry.flight_capacity);
  }
  buffer->owned = true;
  t_lease.buffer = buffer;
  return buffer;
}

}  // namespace detail

void arm_tracing(std::size_t events_per_thread) {
  detail::TraceRegistry& registry = detail::TraceRegistry::instance();
  std::lock_guard lock(registry.mutex);
  registry.capacity = events_per_thread;
  for (auto& buffer : registry.buffers) {
    buffer->ring.assign(events_per_thread, TraceEvent{});
    buffer->next = 0;
    buffer->count = 0;
    buffer->dropped = 0;
  }
  detail::g_trace_epoch_ns.store(monotonic_ns(), std::memory_order_relaxed);
  // Release pairs with the acquire in the span hot path: a thread that sees
  // the trace bit also sees the reset buffers and the new epoch.
  detail::g_span_state.fetch_or(detail::kSpanTraceBit,
                                std::memory_order_release);
}

void disarm_tracing() {
  detail::g_span_state.fetch_and(
      static_cast<std::uint8_t>(~detail::kSpanTraceBit),
      std::memory_order_release);
}

bool tracing_armed() {
  return (detail::g_span_state.load(std::memory_order_acquire) &
          detail::kSpanTraceBit) != 0;
}

void reset_tracing() {
  detail::TraceRegistry& registry = detail::TraceRegistry::instance();
  std::lock_guard lock(registry.mutex);
  for (auto& buffer : registry.buffers) {
    buffer->next = 0;
    buffer->count = 0;
    buffer->dropped = 0;
  }
}

std::vector<TraceEvent> trace_snapshot() {
  detail::TraceRegistry& registry = detail::TraceRegistry::instance();
  std::lock_guard lock(registry.mutex);
  std::vector<TraceEvent> events;
  for (const auto& buffer : registry.buffers) {
    // Oldest-first: the ring's valid region ends just before `next`.
    const std::size_t cap = buffer->ring.size();
    for (std::size_t k = 0; k < buffer->count; ++k) {
      const std::size_t idx = (buffer->next + cap - buffer->count + k) % cap;
      TraceEvent event = buffer->ring[idx];
      event.tid = buffer->tid;
      events.push_back(event);
    }
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& x, const TraceEvent& y) {
              if (x.ts_ns != y.ts_ns) return x.ts_ns < y.ts_ns;
              return x.dur_ns > y.dur_ns;  // parent before children
            });
  return events;
}

std::uint64_t trace_dropped() {
  detail::TraceRegistry& registry = detail::TraceRegistry::instance();
  std::lock_guard lock(registry.mutex);
  std::uint64_t total = 0;
  for (const auto& buffer : registry.buffers) total += buffer->dropped;
  return total;
}

std::size_t trace_thread_count() {
  detail::TraceRegistry& registry = detail::TraceRegistry::instance();
  std::lock_guard lock(registry.mutex);
  return registry.buffers.size();
}

namespace {

/// Minimal JSON string escape; event names are static C identifiers in
/// practice, but the exporter must never emit malformed JSON.
void write_json_string(std::ostream& os, const char* s) {
  os << '"';
  for (; *s; ++s) {
    const char c = *s;
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

/// Chrome trace `ts`/`dur` are microseconds; emit with ns resolution.
void write_micros(std::ostream& os, std::uint64_t ns) {
  os << ns / 1000 << '.' << static_cast<char>('0' + (ns / 100) % 10)
     << static_cast<char>('0' + (ns / 10) % 10)
     << static_cast<char>('0' + ns % 10);
}

}  // namespace

namespace detail {

void write_trace_json(std::ostream& os, const std::vector<TraceEvent>& events,
                      std::uint64_t dropped,
                      const std::string& extra_other_data) {
  os << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped_events\":"
     << dropped << R"(,"clock":{"source":"steady"})" << extra_other_data
     << "},\"traceEvents\":[";
  bool first = true;
  const auto comma = [&] {
    if (!first) os << ',';
    first = false;
    os << '\n';
  };

  // Metadata: name the process and every recording thread.
  comma();
  os << R"({"name":"process_name","ph":"M","pid":0,"tid":0,)"
     << R"("args":{"name":"mergepath"}})";
  std::vector<std::uint32_t> tids;
  for (const TraceEvent& event : events) tids.push_back(event.tid);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  for (const std::uint32_t tid : tids) {
    comma();
    os << R"({"name":"thread_name","ph":"M","pid":0,"tid":)" << tid
       << R"(,"args":{"name":"recorder thread )" << tid << "\"}}";
  }

  for (const TraceEvent& event : events) {
    comma();
    os << "{\"name\":";
    write_json_string(os, event.name ? event.name : "?");
    os << ",\"cat\":\"mp\",\"ph\":\"";
    switch (event.kind) {
      case EventKind::kSpan: os << 'X'; break;
      case EventKind::kCounter: os << 'C'; break;
      case EventKind::kInstant: os << 'i'; break;
    }
    os << "\",\"ts\":";
    write_micros(os, event.ts_ns);
    if (event.kind == EventKind::kSpan) {
      os << ",\"dur\":";
      write_micros(os, event.dur_ns);
    }
    if (event.kind == EventKind::kInstant) os << ",\"s\":\"t\"";
    os << ",\"pid\":0,\"tid\":" << event.tid;
    if (event.kind == EventKind::kCounter) {
      os << ",\"args\":{\"value\":" << event.arg << '}';
    } else if (event.arg_name) {
      os << ",\"args\":{";
      write_json_string(os, event.arg_name);
      os << ':' << event.arg << '}';
    }
    os << '}';
  }
  os << "\n]}\n";
}

}  // namespace detail

void write_chrome_trace(std::ostream& os) {
  detail::write_trace_json(os, trace_snapshot(), trace_dropped(), "");
}

bool write_chrome_trace_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "obs: cannot write trace to " << path << "\n";
    return false;
  }
  write_chrome_trace(out);
  return out.good();
}

}  // namespace mp::obs

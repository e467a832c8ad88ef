#pragma once
/// \file metrics.hpp
/// Lane-level metrics: a process-wide registry of counters and gauges,
/// plus a dedicated per-lane aggregator that turns the ThreadPool's
/// lane/barrier timings into the paper's load-balance numbers —
/// max/min/mean lane wall-time and the max/mean imbalance ratio Section V
/// argues about.
///
/// Everything here is cheap enough to stay always-compiled: recording is a
/// handful of relaxed atomic adds, and the ThreadPool only takes clock
/// readings while lane metrics are armed (one relaxed flag load per lane
/// otherwise). Reports render as JSON (machine-readable, see
/// scripts/check_trace.py) or as a text table via util/table.hpp.

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/table.hpp"

namespace mp::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t v) { value_.fetch_add(v, std::memory_order_relaxed); }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Name → instrument registry. Registration takes a mutex (cold);
/// returned references are stable for the process lifetime, so callers
/// cache them and record lock-free.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);

  /// Zeroes every registered instrument (registrations survive).
  void reset();

  /// {"counters":{...},"gauges":{...}}
  void write_json(std::ostream& os) const;
  /// Prometheus text exposition of every registered instrument.
  void write_prometheus(std::ostream& os) const;
  Table to_table() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
};

// ---------------------------------------------------------------------------
// Per-lane aggregation.

/// Hard cap on tracked lane indices; higher lanes fold into the last slot
/// (the library's practical lane counts are <= hardware threads, far
/// below this).
inline constexpr unsigned kMaxMetricLanes = 256;

namespace detail {
/// Armed flag for lane metrics, read inline by the ThreadPool hot path.
inline std::atomic<bool> g_lane_metrics_armed{false};
}  // namespace detail

inline bool lane_metrics_armed() {
  return detail::g_lane_metrics_armed.load(std::memory_order_acquire);
}

/// Snapshot of the per-lane aggregates plus the derived balance summary.
struct LaneReport {
  struct Row {
    unsigned lane = 0;
    std::uint64_t runs = 0;      ///< times this lane index executed
    std::uint64_t lane_ns = 0;   ///< wall time inside lane bodies
  };
  std::vector<Row> lanes;  ///< only lanes that ran

  std::uint64_t jobs = 0;           ///< parallel_for_lanes invocations
  std::uint64_t barrier_waits = 0;  ///< caller-side barrier waits
  std::uint64_t barrier_ns = 0;     ///< total caller barrier-wait time
  std::uint64_t checkouts = 0;      ///< worker check-out lock acquisitions
  std::uint64_t checkout_ns = 0;    ///< total worker check-out time

  // Lane wall-time balance over `lanes`.
  std::uint64_t lane_ns_max = 0;
  std::uint64_t lane_ns_min = 0;
  double lane_ns_mean = 0.0;
  /// max/mean lane time; 1.0 = the paper's perfect balance.
  double imbalance = 0.0;

  void write_json(std::ostream& os) const;

  /// One row per lane plus a summary footer, via util/table.hpp. Inline so
  /// the obs library itself carries no link dependency on mp_util.
  Table to_table() const {
    Table table({"lane", "runs", "time_ms"});
    for (const Row& row : lanes) {
      table.add_row({std::to_string(row.lane), std::to_string(row.runs),
                     fmt_double(static_cast<double>(row.lane_ns) / 1e6, 3)});
    }
    return table;
  }
};

/// Process-wide per-lane accumulator. Fixed-size atomic slots: recording
/// is lock-free and allocation-free from any thread.
class LaneMetrics {
 public:
  static LaneMetrics& instance();

  /// Starts collection (resets all aggregates).
  void arm();
  void disarm();

  void record_lane(unsigned lane, std::uint64_t ns);
  void record_job(unsigned lanes);
  void record_barrier_wait(std::uint64_t ns);
  void record_checkout(std::uint64_t ns);

  void reset();
  LaneReport snapshot() const;

 private:
  struct Slot {
    std::atomic<std::uint64_t> runs{0};
    std::atomic<std::uint64_t> lane_ns{0};
  };
  std::array<Slot, kMaxMetricLanes> slots_{};
  std::atomic<std::uint64_t> jobs_{0};
  std::atomic<std::uint64_t> barrier_waits_{0};
  std::atomic<std::uint64_t> barrier_ns_{0};
  std::atomic<std::uint64_t> checkouts_{0};
  std::atomic<std::uint64_t> checkout_ns_{0};
};

/// Convenience: {"lane_report":...,"registry":...,"span_stats":[...]} — the
/// machine-readable metrics artifact `mpsort --metrics-json` and the bench
/// harness emit. span_stats carries the online per-span-name duration
/// percentiles (percentiles.hpp); empty unless span stats were armed.
void write_metrics_json(std::ostream& os);
bool write_metrics_json_file(const std::string& path);

/// Prometheus text exposition of the registry (counters, gauges) plus
/// per-span-name duration percentiles as summary-style series:
/// mergepath_span_duration_ns{span="...",quantile="0.5"} etc.
/// Metric and label names are sanitised to [a-zA-Z0-9_:].
void export_prometheus(std::ostream& os);
bool export_prometheus_file(const std::string& path);

}  // namespace mp::obs

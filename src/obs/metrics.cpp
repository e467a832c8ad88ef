#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <ostream>

#include "obs/percentiles.hpp"

namespace mp::obs {

namespace {

void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
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

/// JSON numbers lose integer precision past 2^53 in common consumers;
/// metric magnitudes stay far below that, so plain emission is fine.
void write_double(std::ostream& os, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  os << buf;
}

}  // namespace

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry* registry = new MetricsRegistry;
  return *registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mutex_);
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, gauge] : gauges_) gauge->reset();
}

void MetricsRegistry::write_json(std::ostream& os) const {
  std::lock_guard lock(mutex_);
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) os << ',';
    first = false;
    write_json_string(os, name);
    os << ':' << counter->value();
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!first) os << ',';
    first = false;
    write_json_string(os, name);
    os << ':' << gauge->value();
  }
  os << "}}";
}

Table MetricsRegistry::to_table() const {
  std::lock_guard lock(mutex_);
  Table table({"metric", "kind", "value"});
  for (const auto& [name, counter] : counters_)
    table.add_row({name, "counter", fmt_count(counter->value())});
  for (const auto& [name, gauge] : gauges_)
    table.add_row({name, "gauge", std::to_string(gauge->value())});
  return table;
}

// ---------------------------------------------------------------------------

LaneMetrics& LaneMetrics::instance() {
  static LaneMetrics* metrics = new LaneMetrics;
  return *metrics;
}

void LaneMetrics::arm() {
  reset();
  detail::g_lane_metrics_armed.store(true, std::memory_order_release);
}

void LaneMetrics::disarm() {
  detail::g_lane_metrics_armed.store(false, std::memory_order_release);
}

void LaneMetrics::record_lane(unsigned lane, std::uint64_t ns) {
  Slot& slot = slots_[std::min(lane, kMaxMetricLanes - 1)];
  slot.runs.fetch_add(1, std::memory_order_relaxed);
  slot.lane_ns.fetch_add(ns, std::memory_order_relaxed);
}

void LaneMetrics::record_job(unsigned lanes) {
  jobs_.fetch_add(1, std::memory_order_relaxed);
  static_cast<void>(lanes);
}

void LaneMetrics::record_barrier_wait(std::uint64_t ns) {
  barrier_waits_.fetch_add(1, std::memory_order_relaxed);
  barrier_ns_.fetch_add(ns, std::memory_order_relaxed);
}

void LaneMetrics::record_checkout(std::uint64_t ns) {
  checkouts_.fetch_add(1, std::memory_order_relaxed);
  checkout_ns_.fetch_add(ns, std::memory_order_relaxed);
}

void LaneMetrics::reset() {
  for (Slot& slot : slots_) {
    slot.runs.store(0, std::memory_order_relaxed);
    slot.lane_ns.store(0, std::memory_order_relaxed);
  }
  jobs_.store(0, std::memory_order_relaxed);
  barrier_waits_.store(0, std::memory_order_relaxed);
  barrier_ns_.store(0, std::memory_order_relaxed);
  checkouts_.store(0, std::memory_order_relaxed);
  checkout_ns_.store(0, std::memory_order_relaxed);
}

LaneReport LaneMetrics::snapshot() const {
  LaneReport report;
  for (unsigned lane = 0; lane < kMaxMetricLanes; ++lane) {
    const Slot& slot = slots_[lane];
    LaneReport::Row row;
    row.lane = lane;
    row.runs = slot.runs.load(std::memory_order_relaxed);
    row.lane_ns = slot.lane_ns.load(std::memory_order_relaxed);
    if (row.runs == 0) continue;
    report.lanes.push_back(row);
  }
  report.jobs = jobs_.load(std::memory_order_relaxed);
  report.barrier_waits = barrier_waits_.load(std::memory_order_relaxed);
  report.barrier_ns = barrier_ns_.load(std::memory_order_relaxed);
  report.checkouts = checkouts_.load(std::memory_order_relaxed);
  report.checkout_ns = checkout_ns_.load(std::memory_order_relaxed);

  if (report.lanes.empty()) return report;
  std::uint64_t total_ns = 0;
  report.lane_ns_min = report.lanes.front().lane_ns;
  for (const LaneReport::Row& row : report.lanes) {
    total_ns += row.lane_ns;
    report.lane_ns_max = std::max(report.lane_ns_max, row.lane_ns);
    report.lane_ns_min = std::min(report.lane_ns_min, row.lane_ns);
  }
  report.lane_ns_mean = static_cast<double>(total_ns) /
                        static_cast<double>(report.lanes.size());
  report.imbalance = report.lane_ns_mean > 0.0
                         ? static_cast<double>(report.lane_ns_max) /
                               report.lane_ns_mean
                         : 1.0;
  return report;
}

void LaneReport::write_json(std::ostream& os) const {
  os << "{\"schema\":\"mergepath-lane-metrics-v2\",\"jobs\":" << jobs
     << ",\"barrier\":{\"waits\":" << barrier_waits
     << ",\"wait_ns\":" << barrier_ns << ",\"checkouts\":" << checkouts
     << ",\"checkout_ns\":" << checkout_ns << "},\"lanes\":[";
  bool first = true;
  for (const Row& row : lanes) {
    if (!first) os << ',';
    first = false;
    os << "\n{\"lane\":" << row.lane << ",\"runs\":" << row.runs
       << ",\"lane_ns\":" << row.lane_ns << '}';
  }
  os << "],\"lane_time\":{\"max_ns\":" << lane_ns_max
     << ",\"min_ns\":" << lane_ns_min << ",\"mean_ns\":";
  write_double(os, lane_ns_mean);
  os << ",\"imbalance\":";
  write_double(os, imbalance);
  os << "}}";
}

void write_metrics_json(std::ostream& os) {
  os << "{\"lane_report\":";
  LaneMetrics::instance().snapshot().write_json(os);
  os << ",\"registry\":";
  MetricsRegistry::instance().write_json(os);
  os << ",\"span_stats\":[";
  bool first = true;
  for (const SpanStat& stat : span_stats_snapshot()) {
    if (!first) os << ',';
    first = false;
    os << "\n{\"name\":";
    write_json_string(os, stat.name);
    os << ",\"count\":" << stat.count << ",\"sum_ns\":" << stat.sum_ns
       << ",\"p50_ns\":" << stat.p50_ns << ",\"p95_ns\":" << stat.p95_ns
       << ",\"p99_ns\":" << stat.p99_ns << ",\"max_ns\":" << stat.max_ns
       << '}';
  }
  os << "],\"span_stats_dropped\":" << span_stats_dropped() << "}\n";
}

bool write_metrics_json_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "obs: cannot write metrics to " << path << "\n";
    return false;
  }
  write_metrics_json(out);
  return out.good();
}

// ---------------------------------------------------------------------------
// Prometheus text exposition.

namespace {

/// Prometheus metric names allow [a-zA-Z0-9_:]; our dotted registry names
/// ("pool.lane_faults") become underscored ("mergepath_pool_lane_faults").
std::string prom_name(const std::string& name) {
  std::string out = "mergepath_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9');
    out += ok ? c : '_';
  }
  return out;
}

/// Label values only need quote/backslash escaping.
std::string prom_label_value(const std::string& value) {
  std::string out;
  for (const char c : value) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

}  // namespace

void export_prometheus(std::ostream& os) {
  MetricsRegistry::instance().write_prometheus(os);

  // Span-duration percentiles as summary-style series.
  const std::vector<SpanStat> stats = span_stats_snapshot();
  if (!stats.empty()) {
    os << "# TYPE mergepath_span_duration_ns summary\n";
    for (const SpanStat& stat : stats) {
      const std::string label = prom_label_value(stat.name);
      os << "mergepath_span_duration_ns{span=\"" << label
         << "\",quantile=\"0.5\"} " << stat.p50_ns << '\n'
         << "mergepath_span_duration_ns{span=\"" << label
         << "\",quantile=\"0.95\"} " << stat.p95_ns << '\n'
         << "mergepath_span_duration_ns{span=\"" << label
         << "\",quantile=\"0.99\"} " << stat.p99_ns << '\n'
         << "mergepath_span_duration_ns_sum{span=\"" << label << "\"} "
         << stat.sum_ns << '\n'
         << "mergepath_span_duration_ns_count{span=\"" << label << "\"} "
         << stat.count << '\n';
    }
    os << "# TYPE mergepath_span_duration_ns_max gauge\n";
    for (const SpanStat& stat : stats) {
      os << "mergepath_span_duration_ns_max{span=\""
         << prom_label_value(stat.name) << "\"} " << stat.max_ns << '\n';
    }
  }
}

void MetricsRegistry::write_prometheus(std::ostream& os) const {
  std::lock_guard lock(mutex_);
  for (const auto& [name, counter] : counters_) {
    const std::string pname = prom_name(name) + "_total";
    os << "# TYPE " << pname << " counter\n"
       << pname << ' ' << counter->value() << '\n';
  }
  for (const auto& [name, gauge] : gauges_) {
    const std::string pname = prom_name(name);
    os << "# TYPE " << pname << " gauge\n"
       << pname << ' ' << gauge->value() << '\n';
  }
}

bool export_prometheus_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "obs: cannot write prometheus metrics to " << path << "\n";
    return false;
  }
  export_prometheus(out);
  return out.good();
}

}  // namespace mp::obs

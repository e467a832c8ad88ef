#pragma once
/// \file harness_common.hpp
/// Shared plumbing for the experiment harnesses: banner, --csv switch,
/// unknown-flag rejection, and size-scaling conventions.
///
/// Conventions, applied uniformly:
///   --csv          emit CSV instead of the aligned table
///   --full         paper-scale sizes (slow, memory-hungry); default is a
///                  scaled-down sweep that keeps the whole bench directory
///                  runnable in seconds
///   --seed N       workload seed (default 42)
///   --trace F      write a Chrome/Perfetto trace of the whole run to F
///   --lane-metrics F  write the per-lane metrics report (JSON) to F;
///                  also arms per-span duration percentiles (included in
///                  the JSON and printed as a table at exit)
///   --flight-dump F  keep the flight recorder armed and snapshot it to F
///                  at exit (without this flag the harness disables the
///                  recorder so measured numbers carry no recording cost)
///   --kernel K     force the per-lane merge kernel
///                  (kernels::kernel_names()); unknown or unsupported
///                  names exit 2. The banner always names the kernel in
///                  effect and the detected ISA.
/// Every harness exits non-zero on unknown flags so sweep typos surface.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "kernels/kernels.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/percentiles.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"
#include "util/hw.hpp"
#include "util/table.hpp"

namespace mp::bench {

/// Parses argv, prints the experiment banner, and rejects unknown flags at
/// scope exit (call `finish` after all get()s).
struct Harness {
  Cli cli;
  bool csv = false;
  bool full = false;
  std::uint64_t seed = 42;
  std::string trace_path;
  std::string lane_metrics_path;
  std::string flight_dump_path;
  /// Set when --kernel forced a dispatch choice (harnesses that sweep
  /// kernels, like table_overhead, restrict their sweep to it).
  std::optional<kernels::Kernel> forced_kernel;
  bool flight_was_enabled = false;

  Harness(int argc, const char* const* argv, const char* experiment_id,
          const char* title)
      : cli(argc, argv) {
    if (!cli.ok()) {
      std::cerr << "error: " << cli.error() << "\n";
      std::exit(2);
    }
    csv = cli.get_bool("csv");
    full = cli.get_bool("full");
    seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
    trace_path = cli.get("trace", "");
    lane_metrics_path = cli.get("lane-metrics", "");
    const std::string kernel_name = cli.get("kernel", "");
    if (!kernel_name.empty()) {
      const auto kernel = kernels::parse_kernel(kernel_name);
      if (!kernel) {
        std::cerr << "error: unknown --kernel '" << kernel_name << "' ("
                  << kernels::kernel_names() << ")\n";
        std::exit(2);
      }
      if (!kernels::set_kernel(*kernel)) {
        std::cerr << "error: --kernel " << kernel_name
                  << " is not supported on this host/build ("
                  << isa_string(cpu_features())
                  << (kernels::kSimdCompiledIn ? "" : ", SIMD compiled out")
                  << ")\n";
        std::exit(2);
      }
      forced_kernel = *kernel;
    }
    flight_dump_path = cli.get("flight-dump", "");
    // Benches measure; the always-on flight recorder would tax every span
    // edge of every timed region. Disable it for the harness lifetime
    // unless the run explicitly asks for a dump (BM_SpanOverhead prices
    // the recorder's cost instead).
    flight_was_enabled = obs::flight_enabled();
    if (flight_dump_path.empty())
      obs::set_flight_enabled(false);
    else
      obs::set_flight_enabled(true);
    if (!trace_path.empty()) obs::arm_tracing();
    if (!lane_metrics_path.empty()) {
      obs::LaneMetrics::instance().arm();
      obs::reset_span_stats();
      obs::arm_span_stats();
    }
    if (!csv) {
      std::cout << "== " << experiment_id << ": " << title << " ==\n"
                << "host: " << describe(host_info()) << "\n"
                << kernels::kernel_banner() << "\n";
    }
  }

  /// Writes the requested observability artifacts once the harness (and
  /// hence every instrumented region) has finished.
  ~Harness() {
    if (!trace_path.empty()) {
      obs::disarm_tracing();
      if (obs::write_chrome_trace_file(trace_path))
        std::cerr << "trace written to " << trace_path << "\n";
    }
    if (!lane_metrics_path.empty()) {
      obs::LaneMetrics::instance().disarm();
      obs::disarm_span_stats();
      if (obs::write_metrics_json_file(lane_metrics_path))
        std::cerr << "lane metrics written to " << lane_metrics_path << "\n";
      const std::vector<obs::SpanStat> stats = obs::span_stats_snapshot();
      if (!stats.empty()) {
        Table table({"span", "count", "p50_us", "p95_us", "p99_us",
                     "max_us", "total_ms"});
        for (const obs::SpanStat& stat : stats)
          table.add_row(
              {stat.name, std::to_string(stat.count),
               fmt_double(static_cast<double>(stat.p50_ns) / 1e3, 2),
               fmt_double(static_cast<double>(stat.p95_ns) / 1e3, 2),
               fmt_double(static_cast<double>(stat.p99_ns) / 1e3, 2),
               fmt_double(static_cast<double>(stat.max_ns) / 1e3, 2),
               fmt_double(static_cast<double>(stat.sum_ns) / 1e6, 3)});
        table.print(std::cerr);
      }
    }
    if (!flight_dump_path.empty()) {
      obs::set_flight_dump_path(flight_dump_path);
      obs::flight_write_pending(/*force=*/true);
    }
    obs::set_flight_enabled(flight_was_enabled);
  }

  /// Call after the last flag read; aborts on malformed values and on
  /// unconsumed (typo'd) flags.
  void check_flags() const {
    if (!cli.ok()) {
      std::cerr << "error: " << cli.error() << "\n";
      std::exit(2);
    }
    const auto leftover = cli.unconsumed();
    if (!leftover.empty()) {
      std::cerr << "error: unknown flag(s):";
      for (const auto& f : leftover) std::cerr << " --" << f;
      std::cerr << "\n";
      std::exit(2);
    }
  }

  void emit(const Table& table) const {
    if (csv)
      table.print_csv(std::cout);
    else
      table.print(std::cout);
  }
};

}  // namespace mp::bench

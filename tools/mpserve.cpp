/// \file mpserve.cpp
/// Merge-as-a-service driver: runs the closed-loop load generator against
/// an `mp::serve::Server` and reports throughput + tail latency, with the
/// full observability surface behind flags. This is the binary CI uses
/// for the serving smoke (trace + metrics validated by
/// scripts/check_trace.py) and the fault SLO drill (lane faults at a
/// given rate; the flight recorder snapshots the degrade; the exit code
/// proves every accepted request was answered).
///
/// Usage: mpserve [flags]
///   workload
///     --requests N          total closed-loop requests (default 512)
///     --sessions N          concurrent sessions (default 16)
///     --window N            per-session outstanding window (default 4)
///     --seed N              workload seed (default 42)
///     --min-elements N      smallest request (default 4096)
///     --max-elements N      largest request (default 65536)
///     --skew S              size skew; higher = smaller requests dominate
///                           (default 4)
///     --merge-fraction F    fraction of merge requests (default 0.10)
///     --width64-fraction F  fraction of 64-bit-key requests (default 0.25)
///   server
///     --threads N           executor lanes (default 8)
///     --queue-capacity N    bounded queue size (default 1024)
///     --no-batch            disable cross-request coalescing
///   faults (SLO drill)
///     --lane-fault-rate R   inject lane faults at rate R (default 0)
///     --fault-seed N        fault plan seed (default 1)
///   observability
///     --trace FILE          Chrome/Perfetto trace of the run
///     --metrics-json FILE   metrics + span-percentile report
///     --prometheus FILE     Prometheus text exposition of the counters
///     --flight-dump FILE    flight-recorder snapshot, written only if the
///                           run actually degraded (the SLO drill asserts
///                           both the file and the 100%-answered line)
///
/// Exits 0 only when every accepted request was answered kOk and the
/// load generator's conservation/ordering/payload checks all pass; exits
/// 2 on a usage error (an unknown flag, a malformed number, a negative
/// count, --sessions/--window/--queue-capacity 0, a --threads value that
/// does not fit an int, or a fraction or fault rate outside [0, 1]).

#include <cstdint>
#include <iostream>
#include <limits>
#include <optional>
#include <string>

#include "fault/fault.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/percentiles.hpp"
#include "obs/trace.hpp"
#include "serve/loadgen.hpp"
#include "serve/serve.hpp"
#include "util/cli.hpp"
#include "util/threading.hpp"

int main(int argc, char** argv) {
  using namespace mp;

  Cli cli(argc, argv);
  // Counts land in unsigned fields, where a negative one would wrap (a
  // --requests -1 asks for ~1.8e19 requests), the thread count ends in
  // ThreadPool's int, and the load generator and the server check their
  // minimums by aborting. So a count outside its range or a fraction
  // outside [0, 1] is a usage error, reported before any pool or server
  // is built.
  std::string bad;
  using Limit = std::numeric_limits<std::int64_t>;
  const auto count = [&](const char* flag, std::int64_t fallback,
                         std::int64_t min, std::int64_t max = Limit::max()) {
    const std::int64_t v = cli.get_int(flag, fallback);
    if ((v < min || v > max) && bad.empty())
      bad = std::string("--") + flag + " expects an integer " +
            (max == Limit::max() ? ">= " + std::to_string(min)
                                 : "in [" + std::to_string(min) + ", " +
                                       std::to_string(max) + "]") +
            ", got " + std::to_string(v);
    return static_cast<std::size_t>(v);
  };
  const auto fraction = [&](const char* flag, double fallback) {
    const double v = cli.get_double(flag, fallback);
    if (!(v >= 0.0 && v <= 1.0) && bad.empty())
      bad = std::string("--") + flag + " expects a fraction in [0, 1], got " +
            std::to_string(v);
    return v;
  };
  serve::LoadGenConfig lg;
  lg.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  lg.requests = count("requests", 512, 0);
  lg.sessions = count("sessions", 16, 1);
  lg.window = count("window", 4, 1);
  lg.mix.min_elements = count("min-elements", 4096, 0);
  lg.mix.max_elements = count("max-elements", 65536, 0);
  lg.mix.size_skew = cli.get_double("skew", 4.0);
  lg.mix.merge_fraction = fraction("merge-fraction", 0.10);
  lg.mix.width64_fraction = fraction("width64-fraction", 0.25);
  const auto threads = static_cast<unsigned>(
      count("threads", 8, 0, std::numeric_limits<int>::max()));
  const std::size_t queue_capacity = count("queue-capacity", 1024, 1);
  const bool no_batch = cli.get_bool("no-batch");
  const double fault_rate = fraction("lane-fault-rate", 0.0);
  const auto fault_seed =
      static_cast<std::uint64_t>(cli.get_int("fault-seed", 1));
  const std::string trace_path = cli.get("trace", "");
  const std::string metrics_path = cli.get("metrics-json", "");
  const std::string prometheus_path = cli.get("prometheus", "");
  const std::string flight_path = cli.get("flight-dump", "");
  if (!cli.ok()) {
    std::cerr << "error: " << cli.error() << "\n";
    return 2;
  }
  if (const auto leftover = cli.unconsumed(); !leftover.empty()) {
    std::cerr << "error: unknown flag(s):";
    for (const auto& f : leftover) std::cerr << " --" << f;
    std::cerr << "\n";
    return 2;
  }
  if (!bad.empty()) {
    std::cerr << "error: " << bad << "\n";
    return 2;
  }

  // Observability arming mirrors the bench-harness conventions: the
  // flight recorder stays enabled only when a dump path is given, the
  // metrics report implies lane metrics + span percentiles.
  if (!flight_path.empty()) {
    obs::set_flight_enabled(true);
    obs::set_flight_dump_path(flight_path);
  } else {
    obs::set_flight_enabled(false);
  }
  if (!trace_path.empty()) obs::arm_tracing();
  const bool want_metrics = !metrics_path.empty() || !prometheus_path.empty();
  if (want_metrics) {
    obs::LaneMetrics::instance().arm();
    obs::reset_span_stats();
    obs::arm_span_stats();
  }

  ThreadPool pool(threads);
  fault::FaultPlan plan(fault::FaultConfig{
      fault_seed, fault_rate, /*latency_us=*/250.0, /*lane_delay_us=*/200.0});
  std::optional<fault::ScopedInjector<ThreadPool>> injector;
  if (fault_rate > 0.0) injector.emplace(pool, plan);

  serve::ServerConfig cfg;
  cfg.exec = Executor{&pool, threads};
  cfg.queue_capacity = queue_capacity;
  cfg.batching = !no_batch;

  serve::LoadGenReport rep;
  serve::ServerStats stats;
  {
    serve::Server server(cfg);
    rep = serve::run_closed_loop(server, lg);
    server.shutdown();
    stats = server.stats();
  }

  std::cout << "mode: " << (cfg.batching ? "batched" : "unbatched")
            << "  threads: " << threads << "  seed: " << lg.seed << "\n"
            << "submitted: " << rep.submitted << "  accepted: " << rep.accepted
            << "  rejected: " << rep.rejected << "\n"
            << "completed: " << rep.completed << "  failed: " << rep.failed
            << "  cancelled: " << rep.cancelled << "\n"
            << "batches: " << stats.batches
            << "  batched_responses: " << rep.batched
            << "  degraded_responses: " << rep.degraded << "\n"
            << "throughput_rps: " << rep.throughput_rps()
            << "  elems_per_s: " << rep.throughput_elems_s() << "\n"
            << "p50_us: " << rep.latency_ns(0.50) / 1e3
            << "  p99_us: " << rep.latency_ns(0.99) / 1e3
            << "  p999_us: " << rep.latency_ns(0.999) / 1e3 << "\n";
  if (fault_rate > 0.0)
    std::cout << "fault_rate: " << fault_rate
              << "  injected: " << plan.stats().injected
              << "  schedule_hash: " << plan.schedule_hash() << "\n";

  // Artifacts after the run so they capture everything.
  if (!trace_path.empty()) {
    obs::disarm_tracing();
    if (obs::write_chrome_trace_file(trace_path))
      std::cerr << "trace written to " << trace_path << "\n";
  }
  if (want_metrics) {
    obs::LaneMetrics::instance().disarm();
    obs::disarm_span_stats();
  }
  if (!metrics_path.empty() && obs::write_metrics_json_file(metrics_path))
    std::cerr << "metrics written to " << metrics_path << "\n";
  if (!prometheus_path.empty() && obs::export_prometheus_file(prometheus_path))
    std::cerr << "prometheus exposition written to " << prometheus_path
              << "\n";
  // Written only when a degrade actually fired (flight_report_degraded),
  // which is exactly what the SLO drill wants to prove happened.
  if (!flight_path.empty() && obs::flight_write_pending(/*force=*/false))
    std::cerr << "flight snapshot written to " << flight_path << "\n";

  const bool all_answered = rep.completed == rep.accepted && rep.failed == 0 &&
                            rep.cancelled == 0;
  std::cout << "answered: " << rep.completed << "/" << rep.accepted << "\n";
  if (!rep.ok() || !all_answered) {
    std::cerr << "SLO FAIL: conservation=" << rep.conservation_ok
              << " ordering=" << rep.ordering_ok
              << " payload=" << rep.payload_ok << " failed=" << rep.failed
              << "\n";
    return 1;
  }
  return 0;
}

// Tests of the observability subsystem (src/obs/): the lock-free trace
// recorder (ring wraparound, snapshot ordering, Chrome-trace export), the
// monotonic clock, online span percentiles, the flight recorder
// (including the fault-injected degrade path), the metrics registry, and
// the per-lane aggregation including the imbalance summary. The
// multi-threaded stress cases double as the TSan coverage for the
// recorder's quiescence contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <string>
#include <vector>

#include "core/instrument.hpp"
#include "core/merge_sort.hpp"
#include "core/parallel_merge.hpp"
#include "fault/fault.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/percentiles.hpp"
#include "obs/trace.hpp"
#include "util/data_gen.hpp"
#include "util/recovery.hpp"
#include "util/threading.hpp"

namespace {

using namespace mp;

// Every test arms/disarms its own window; the fixture guarantees a clean
// slate even if an assertion fails mid-test. The flight recorder is kept
// OFF by default so the exact-count trace assertions stay independent of
// it; flight tests enable it themselves.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::disarm_tracing();
    obs::reset_tracing();
    obs::disarm_span_stats();
    obs::reset_span_stats();
    obs::set_flight_enabled(false);
    obs::set_flight_capacity(obs::kDefaultFlightCapacity);
    obs::reset_flight();
    obs::LaneMetrics::instance().disarm();
    obs::LaneMetrics::instance().reset();
  }
  void TearDown() override {
    obs::disarm_tracing();
    obs::disarm_span_stats();
    obs::reset_span_stats();
    obs::set_flight_enabled(false);
    obs::set_flight_capacity(obs::kDefaultFlightCapacity);
    obs::reset_flight();
    obs::set_flight_dump_path("");
    obs::LaneMetrics::instance().disarm();
  }
};

std::vector<obs::TraceEvent> events_named(
    const std::vector<obs::TraceEvent>& events, const std::string& name) {
  std::vector<obs::TraceEvent> out;
  for (const auto& e : events)
    if (e.name && name == e.name) out.push_back(e);
  return out;
}

TEST_F(ObsTest, SpanRecordsNameArgAndDuration) {
  obs::arm_tracing();
  {
    obs::Span span("test.span", "value", 7);
  }
  obs::disarm_tracing();
  const auto spans = events_named(obs::trace_snapshot(), "test.span");
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].kind, obs::EventKind::kSpan);
  EXPECT_STREQ(spans[0].arg_name, "value");
  EXPECT_EQ(spans[0].arg, 7u);
}

TEST_F(ObsTest, NothingRecordedWhileDisarmed) {
  {
    obs::Span span("test.unarmed");
    obs::Span::counter("test.counter", 1);
    obs::Span::instant("test.instant");
  }
  EXPECT_TRUE(obs::trace_snapshot().empty());
}

TEST_F(ObsTest, SpanOpenAcrossDisarmIsStillRecorded) {
  // The armed check happens at construction; a span alive at disarm time
  // completes into its (still registered) buffer.
  obs::arm_tracing();
  {
    obs::Span span("test.straddle");
    obs::disarm_tracing();
  }
  EXPECT_EQ(events_named(obs::trace_snapshot(), "test.straddle").size(), 1u);
}

TEST_F(ObsTest, CounterAndInstantEvents) {
  obs::arm_tracing();
  obs::Span::counter("test.gauge", 41);
  obs::Span::counter("test.gauge", 42);
  obs::Span::instant("test.mark", "round", 3);
  obs::disarm_tracing();
  const auto events = obs::trace_snapshot();
  const auto counters = events_named(events, "test.gauge");
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].kind, obs::EventKind::kCounter);
  EXPECT_EQ(counters[0].arg, 41u);
  EXPECT_EQ(counters[1].arg, 42u);
  const auto instants = events_named(events, "test.mark");
  ASSERT_EQ(instants.size(), 1u);
  EXPECT_EQ(instants[0].kind, obs::EventKind::kInstant);
  EXPECT_EQ(instants[0].arg, 3u);
}

TEST_F(ObsTest, RingWrapsKeepingNewestAndCountsDropped) {
  obs::arm_tracing(/*events_per_thread=*/8);
  for (std::uint64_t k = 0; k < 20; ++k) {
    obs::Span::instant("test.seq", "k", k);
  }
  obs::disarm_tracing();
  const auto events = events_named(obs::trace_snapshot(), "test.seq");
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(obs::trace_dropped(), 12u);
  // Oldest events were evicted: the survivors are exactly k = 12..19, in
  // order.
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_EQ(events[i].arg, 12 + i);
}

TEST_F(ObsTest, SnapshotIsSortedByTimestamp) {
  obs::arm_tracing();
  for (int k = 0; k < 100; ++k) obs::Span::instant("test.tick");
  obs::disarm_tracing();
  const auto events = obs::trace_snapshot();
  EXPECT_TRUE(std::is_sorted(
      events.begin(), events.end(),
      [](const auto& x, const auto& y) { return x.ts_ns < y.ts_ns; }));
}

TEST_F(ObsTest, RearmResetsPreviousWindow) {
  obs::arm_tracing();
  obs::Span::instant("test.old");
  obs::arm_tracing();  // re-arm: old window must be gone
  obs::Span::instant("test.new");
  obs::disarm_tracing();
  const auto events = obs::trace_snapshot();
  EXPECT_TRUE(events_named(events, "test.old").empty());
  EXPECT_EQ(events_named(events, "test.new").size(), 1u);
}

TEST_F(ObsTest, ResetClearsEventsAndDropCounts) {
  obs::arm_tracing(4);
  for (int k = 0; k < 10; ++k) obs::Span::instant("test.tick");
  obs::disarm_tracing();
  obs::reset_tracing();
  EXPECT_TRUE(obs::trace_snapshot().empty());
  EXPECT_EQ(obs::trace_dropped(), 0u);
}

// Minimal structural JSON scan: verifies brace/bracket balance outside
// string literals and the presence of the required top-level keys. Full
// parse validation lives in scripts/check_trace.py (run in CI).
void expect_balanced_json(const std::string& text) {
  int depth_obj = 0, depth_arr = 0;
  bool in_string = false, escaped = false;
  for (const char c : text) {
    if (in_string) {
      if (escaped)
        escaped = false;
      else if (c == '\\')
        escaped = true;
      else if (c == '"')
        in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++depth_obj; break;
      case '}': --depth_obj; break;
      case '[': ++depth_arr; break;
      case ']': --depth_arr; break;
      default: break;
    }
    EXPECT_GE(depth_obj, 0);
    EXPECT_GE(depth_arr, 0);
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(depth_obj, 0);
  EXPECT_EQ(depth_arr, 0);
}

TEST_F(ObsTest, ChromeTraceExportIsStructurallyValidJson) {
  obs::arm_tracing();
  {
    obs::Span outer("test.outer", "n", 2);
    obs::Span inner("test.inner");
    obs::Span::counter("test.count", 5);
    obs::Span::instant("test.mark");
  }
  obs::disarm_tracing();
  std::ostringstream os;
  obs::write_chrome_trace(os);
  const std::string json = os.str();
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\""), std::string::npos);
  EXPECT_NE(json.find("\"test.outer\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
}

TEST_F(ObsTest, ThreadPoolJobEmitsLaneSpans) {
  obs::arm_tracing();
  ThreadPool pool(3);
  pool.parallel_for_lanes(4, [](unsigned) {});
  obs::disarm_tracing();
  const auto events = obs::trace_snapshot();
  EXPECT_EQ(events_named(events, "pool.job").size(), 1u);
  const auto lanes = events_named(events, "pool.lane");
  ASSERT_EQ(lanes.size(), 4u);
  std::set<std::uint64_t> seen;
  for (const auto& e : lanes) seen.insert(e.arg);
  EXPECT_EQ(seen, (std::set<std::uint64_t>{0, 1, 2, 3}));
  EXPECT_EQ(events_named(events, "pool.barrier").size(), 1u);
}

TEST_F(ObsTest, ParallelMergeEmitsPartitionAndSegmentSpans) {
  std::vector<int> a(4096), b(4096), out(8192);
  for (int i = 0; i < 4096; ++i) {
    a[static_cast<std::size_t>(i)] = 2 * i;
    b[static_cast<std::size_t>(i)] = 2 * i + 1;
  }
  obs::arm_tracing();
  ThreadPool pool(3);
  parallel_merge(a.data(), a.size(), b.data(), b.size(), out.data(),
                 Executor{&pool, 4});
  obs::disarm_tracing();
  const auto events = obs::trace_snapshot();
  EXPECT_EQ(events_named(events, "merge").size(), 1u);
  EXPECT_EQ(events_named(events, "merge.partition").size(), 4u);
  EXPECT_EQ(events_named(events, "merge.segment").size(), 4u);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
}

TEST_F(ObsTest, SequentialRecordSortEmitsLayerSpans) {
  // One 1 Mi-record sequential_merge_sort: its run formation, its blocked
  // passes and each whole-range pass are spans, and there are few of them.
  constexpr std::size_t n = std::size_t{1} << 20;
  std::vector<KeyedRecord> data(n);
  std::uint64_t state = 0x5eed;
  for (std::size_t k = 0; k < n; ++k) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    data[k] = KeyedRecord{static_cast<std::int32_t>(state >> 48),
                          static_cast<std::uint32_t>(k)};
  }
  obs::arm_tracing();
  sequential_merge_sort(std::span<KeyedRecord>(data));
  obs::disarm_tracing();
  const auto events = obs::trace_snapshot();
  EXPECT_EQ(events_named(events, "sort.runs").size(), 1u);
  EXPECT_EQ(events_named(events, "sort.chunks").size(), 1u);
  // A whole-range pass exists whenever the L2 chunk is shorter than n.
  if (sort_chunk_elems(sizeof(KeyedRecord)) < n) {
    EXPECT_GE(events_named(events, "sort.pass").size(), 1u);
  }
  EXPECT_LE(events.size(), 25u);
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
}

TEST_F(ObsTest, MultiThreadedRecordingStress) {
  // Many short spans from many threads into small rings: the TSan preset
  // runs this to prove the hot path and the arm/snapshot control plane
  // (under the quiescence contract) are race-free.
  obs::arm_tracing(/*events_per_thread=*/128);
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for_lanes(8, [](unsigned lane) {
      obs::Span span("stress.lane", "lane", lane);
      obs::Span::counter("stress.count", lane);
    });
  }
  obs::disarm_tracing();
  const auto events = obs::trace_snapshot();
  EXPECT_FALSE(events.empty());
  EXPECT_GE(obs::trace_thread_count(), 1u);
  std::ostringstream os;
  obs::write_chrome_trace(os);
  expect_balanced_json(os.str());
}

TEST_F(ObsTest, ExitedThreadsHandTheirBufferToTheNextThread) {
  // One short-lived recording thread after another (the workers of a
  // ThreadPool built per call) must reuse one buffer, not register a new
  // ring each time; both threads' spans stay in the trace.
  obs::arm_tracing(/*events_per_thread=*/64);
  auto record_on_new_thread = [] {
    std::thread([] { obs::Span span("reuse.thread"); }).join();
  };
  record_on_new_thread();
  const std::size_t threads = obs::trace_thread_count();
  for (int i = 0; i < 8; ++i) record_on_new_thread();
  obs::disarm_tracing();
  EXPECT_EQ(obs::trace_thread_count(), threads);
  EXPECT_EQ(events_named(obs::trace_snapshot(), "reuse.thread").size(), 9u);
}

// ---------------------------------------------------------------------------
// The clock.

TEST_F(ObsTest, MonotonicClockNeverStepsBackAndExportsSteadySource) {
  // Every timestamp in obs, the pool and serve is one monotonic_ns() read,
  // and the recorder subtracts them unsigned: a backwards step on any
  // thread would wrap a duration to ~1.8e19 ns.
  constexpr int kThreads = 4;
  std::vector<int> backwards(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&backwards, t] {
      std::uint64_t prev = obs::monotonic_ns();
      for (int k = 0; k < 10000; ++k) {
        const std::uint64_t now = obs::monotonic_ns();
        if (now < prev) ++backwards[t];
        prev = now;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(backwards[t], 0) << t;

  const std::string kSource = R"("clock":{"source":"steady"})";
  std::ostringstream trace;
  obs::write_chrome_trace(trace);
  EXPECT_NE(trace.str().find(kSource), std::string::npos) << trace.str();
  std::ostringstream flight;
  obs::write_flight_trace(flight);
  EXPECT_NE(flight.str().find(kSource), std::string::npos) << flight.str();
}

// ---------------------------------------------------------------------------
// Online span-duration percentiles.

TEST_F(ObsTest, DurationBucketBoundsRoundTrip) {
  // Exact unit buckets below 8 ns.
  for (std::uint64_t ns = 0; ns < 8; ++ns) {
    EXPECT_EQ(obs::duration_bucket(ns), ns);
    const auto [lo, hi] = obs::duration_bucket_bounds(ns);
    EXPECT_EQ(lo, ns);
    EXPECT_EQ(hi, ns + 1);
  }
  // Every sampled value falls inside its bucket's bounds, and the mapping
  // is monotone.
  std::size_t prev_bucket = 0;
  for (std::uint64_t ns = 1; ns < (std::uint64_t{1} << 62);
       ns += 1 + ns / 3) {
    const std::size_t bucket = obs::duration_bucket(ns);
    ASSERT_LT(bucket, obs::kSpanHistBuckets);
    EXPECT_GE(bucket, prev_bucket);
    prev_bucket = bucket;
    const auto [lo, hi] = obs::duration_bucket_bounds(bucket);
    EXPECT_LE(lo, ns);
    EXPECT_GT(hi, ns);
    // Bounds round-trip: both edges map back to the same bucket.
    EXPECT_EQ(obs::duration_bucket(lo), bucket);
    EXPECT_EQ(obs::duration_bucket(hi - 1), bucket);
  }
}

TEST_F(ObsTest, PercentilesWithinDocumentedErrorBound) {
  // Deterministic pseudo-random durations across several scales, checked
  // against exact order statistics. The histogram reports the bucket
  // midpoint, so the estimate must land within kSpanStatsRelativeError
  // of the exact quantile (plus 1 ns of integer slack).
  std::vector<std::uint64_t> samples;
  std::uint64_t x = 0x243f6a8885a308d3ull;
  for (int k = 0; k < 20000; ++k) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    samples.push_back(x % 2'000'000 + 1);  // 1 ns .. 2 ms
  }
  obs::arm_span_stats();
  for (const std::uint64_t ns : samples)
    obs::record_span_duration("test.quantile", ns);
  obs::disarm_span_stats();

  const auto stats = obs::span_stats_snapshot();
  ASSERT_EQ(stats.size(), 1u);
  const obs::SpanStat& stat = stats[0];
  EXPECT_EQ(stat.name, "test.quantile");
  EXPECT_EQ(stat.count, samples.size());
  std::sort(samples.begin(), samples.end());
  EXPECT_EQ(stat.max_ns, samples.back());
  const auto exact = [&](double q) {
    const auto rank = static_cast<std::size_t>(
        static_cast<double>(samples.size()) * q + 0.999999);
    return samples[std::max<std::size_t>(rank, 1) - 1];
  };
  const auto check = [&](std::uint64_t est, double q) {
    const double truth = static_cast<double>(exact(q));
    EXPECT_NEAR(static_cast<double>(est), truth,
                truth * obs::kSpanStatsRelativeError + 1.0)
        << "quantile " << q;
  };
  check(stat.p50_ns, 0.50);
  check(stat.p95_ns, 0.95);
  check(stat.p99_ns, 0.99);
  // Estimates never exceed the observed maximum (clamped).
  EXPECT_LE(stat.p99_ns, stat.max_ns);
}

TEST_F(ObsTest, SpanStatsFromRealPoolSpans) {
  obs::arm_span_stats();
  ThreadPool pool(3);
  pool.parallel_for_lanes(4, [](unsigned) {});
  obs::disarm_span_stats();
  const auto stats = obs::span_stats_snapshot();
  bool found = false;
  for (const obs::SpanStat& stat : stats) {
    if (stat.name != "pool.lane") continue;
    found = true;
    EXPECT_EQ(stat.count, 4u);
    EXPECT_GE(stat.max_ns, stat.p99_ns);
    EXPECT_GE(stat.p99_ns, stat.p50_ns);
    EXPECT_GE(stat.sum_ns, stat.max_ns);
  }
  EXPECT_TRUE(found) << "no pool.lane percentile row";
}

TEST_F(ObsTest, SpanStatsMergeAcrossThreads) {
  // The same name recorded from every lane merges into one row whose
  // count sums across per-thread histograms.
  obs::arm_span_stats();
  ThreadPool pool(3);
  for (int round = 0; round < 5; ++round) {
    pool.parallel_for_lanes(4, [](unsigned lane) {
      obs::record_span_duration("test.cross", 100 + lane);
    });
  }
  obs::disarm_span_stats();
  const auto stats = obs::span_stats_snapshot();
  // The pool's own spans are excluded: stats were armed, so pool.lane etc.
  // also recorded — find our row.
  bool found = false;
  for (const obs::SpanStat& stat : stats) {
    if (stat.name != "test.cross") continue;
    found = true;
    EXPECT_EQ(stat.count, 20u);
  }
  EXPECT_TRUE(found);
}

TEST_F(ObsTest, SpanStatsResetAndRearmStartClean) {
  obs::arm_span_stats();
  obs::record_span_duration("test.old", 5);
  obs::disarm_span_stats();
  EXPECT_FALSE(obs::span_stats_armed());
  obs::reset_span_stats();
  EXPECT_TRUE(obs::span_stats_snapshot().empty());
  obs::arm_span_stats();
  EXPECT_TRUE(obs::span_stats_armed());
  obs::record_span_duration("test.new", 7);
  obs::disarm_span_stats();
  const auto stats = obs::span_stats_snapshot();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].name, "test.new");
}

TEST_F(ObsTest, MetricsJsonCarriesSpanStats) {
  obs::arm_span_stats();
  obs::record_span_duration("test.json_stat", 1000);
  obs::disarm_span_stats();
  std::ostringstream os;
  obs::write_metrics_json(os);
  const std::string json = os.str();
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"span_stats\""), std::string::npos);
  EXPECT_NE(json.find("\"span_stats_dropped\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json_stat\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_ns\""), std::string::npos);
}

TEST_F(ObsTest, PrometheusExportSanitizesNamesAndEmitsQuantiles) {
  obs::MetricsRegistry::instance().reset();
  obs::MetricsRegistry::instance().counter("test.prom-ops").add(3);
  obs::MetricsRegistry::instance().gauge("test.prom.level").set(-2);
  obs::arm_span_stats();
  for (int k = 1; k <= 100; ++k)
    obs::record_span_duration("test.prom.span", 100 * k);
  obs::disarm_span_stats();
  std::ostringstream os;
  obs::export_prometheus(os);
  const std::string text = os.str();
  // Dots and dashes sanitize to underscores in metric names; span names
  // survive verbatim as label values.
  EXPECT_NE(text.find("mergepath_test_prom_ops_total 3"), std::string::npos);
  EXPECT_NE(text.find("mergepath_test_prom_level -2"), std::string::npos);
  EXPECT_NE(text.find("mergepath_span_duration_ns{span=\"test.prom.span\","
                      "quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.95\""), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);
  EXPECT_NE(
      text.find("mergepath_span_duration_ns_count{span=\"test.prom.span\""),
      std::string::npos);
  EXPECT_NE(
      text.find("mergepath_span_duration_ns_max{span=\"test.prom.span\""),
      std::string::npos);
  obs::MetricsRegistry::instance().reset();
}

// ---------------------------------------------------------------------------
// Flight recorder.

TEST_F(ObsTest, FlightRecordsWhileTraceDisarmed) {
  obs::set_flight_enabled(true);
  EXPECT_TRUE(obs::flight_enabled());
  {
    obs::Span span("test.flight");
  }
  // The trace ring saw nothing (disarmed); the flight ring kept the span.
  EXPECT_TRUE(events_named(obs::trace_snapshot(), "test.flight").empty());
  EXPECT_EQ(events_named(obs::flight_snapshot(), "test.flight").size(), 1u);
}

TEST_F(ObsTest, FlightRingBoundedKeepsNewest) {
  obs::set_flight_enabled(true);
  obs::set_flight_capacity(8);
  for (std::uint64_t k = 0; k < 20; ++k)
    obs::Span::instant("test.fseq", "k", k);
  obs::set_flight_enabled(false);
  const auto events = events_named(obs::flight_snapshot(), "test.fseq");
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_EQ(events[i].arg, 12 + i);
}

TEST_F(ObsTest, FlightSnapshotNormalizesTimestamps) {
  obs::set_flight_enabled(true);
  obs::Span::instant("test.fnorm");
  obs::Span::instant("test.fnorm");
  obs::set_flight_enabled(false);
  const auto events = obs::flight_snapshot();
  ASSERT_GE(events.size(), 2u);
  // Absolute steady_clock stamps are rebased to the earliest retained event.
  EXPECT_EQ(events.front().ts_ns, 0u);
  EXPECT_TRUE(std::is_sorted(
      events.begin(), events.end(),
      [](const auto& x, const auto& y) { return x.ts_ns < y.ts_ns; }));
}

TEST_F(ObsTest, WriteFlightTraceMarksRecorderAndReason) {
  obs::set_flight_enabled(true);
  {
    obs::Span span("test.fdump");
  }
  std::ostringstream os;
  obs::write_flight_trace(os);
  const std::string json = os.str();
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"flight_recorder\":true"), std::string::npos);
  EXPECT_NE(json.find("\"reason\":\"\""), std::string::npos);

  obs::flight_report_degraded("test.reason");
  EXPECT_TRUE(obs::flight_degraded());
  std::ostringstream os2;
  obs::write_flight_trace(os2);
  EXPECT_NE(os2.str().find("\"reason\":\"test.reason\""), std::string::npos);
  EXPECT_NE(os2.str().find("\"flight.degraded\""), std::string::npos);
}

TEST_F(ObsTest, FlightWritePendingNeedsDegradeOrForce) {
  obs::set_flight_enabled(true);
  const std::string path =
      ::testing::TempDir() + "obs_flight_pending.json";
  obs::set_flight_dump_path(path);
  EXPECT_EQ(obs::flight_dump_path(), path);
  // Healthy run: nothing to write.
  EXPECT_FALSE(obs::flight_write_pending());
  // Forced (mpsort --flight-dump): writes once, then the latch holds.
  EXPECT_TRUE(obs::flight_write_pending(/*force=*/true));
  EXPECT_FALSE(obs::flight_write_pending(/*force=*/true));
}

TEST_F(ObsTest, FlightSnapshotOnDegrade) {
  // Every lane op faults permanently: retries exhaust, the recovery engine
  // reports degraded and falls back to sequential execution — and the
  // always-armed flight recorder must then auto-write its snapshot from
  // the quiescent finalisation call, without force.
  obs::set_flight_enabled(true);
  const std::string path =
      ::testing::TempDir() + "obs_flight_degrade.json";
  obs::set_flight_dump_path(path);

  std::vector<int> data(4096);
  for (std::size_t k = 0; k < data.size(); ++k)
    data[k] = static_cast<int>(data.size() - k);
  {
    ThreadPool pool(3);
    fault::FaultConfig config;
    config.seed = 7;
    config.lane_delay_us = 50.0;
    fault::FaultPlan plan(config);
    plan.fail_from(0, fault::FaultKind::kLaneThrow);
    fault::ScopedInjector injector(pool, plan);
    LaneRecovery recovery;
    parallel_merge_sort(data.data(), data.size(),
                        Executor{&pool, 4, &recovery});
    EXPECT_GT(recovery.report.fallback_lanes, 0u);
  }
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
  EXPECT_TRUE(obs::flight_degraded());
  EXPECT_STREQ(obs::flight_degraded_reason(), "pool.fallback");

  ASSERT_TRUE(obs::flight_write_pending());
  EXPECT_FALSE(obs::flight_write_pending());  // one dump per degrade
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"flight_recorder\":true"), std::string::npos);
  EXPECT_NE(json.find("\"reason\":\"pool.fallback\""), std::string::npos);
  EXPECT_NE(json.find("\"flight.degraded\""), std::string::npos);
  EXPECT_NE(json.find("\"pool.lane\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Metrics registry.

TEST(MetricsRegistry, CounterGaugeRoundTrip) {
  auto& registry = obs::MetricsRegistry::instance();
  registry.reset();
  auto& counter = registry.counter("test.ops");
  counter.add();
  counter.add(9);
  EXPECT_EQ(counter.value(), 10u);
  EXPECT_EQ(&registry.counter("test.ops"), &counter);  // stable reference

  auto& gauge = registry.gauge("test.level");
  gauge.set(-5);
  gauge.add(2);
  EXPECT_EQ(gauge.value(), -3);

  std::ostringstream os;
  registry.write_json(os);
  const std::string json = os.str();
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"test.ops\":10"), std::string::npos);
  EXPECT_NE(json.find("\"test.level\":-3"), std::string::npos);

  registry.reset();
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(gauge.value(), 0);
}

TEST(LaneMetrics, ImbalanceSummaryFromKnownTimes) {
  auto& metrics = obs::LaneMetrics::instance();
  metrics.reset();
  metrics.record_job(2);
  metrics.record_lane(0, 100);
  metrics.record_lane(1, 300);
  metrics.record_barrier_wait(40);
  metrics.record_checkout(7);
  const obs::LaneReport report = metrics.snapshot();
  ASSERT_EQ(report.lanes.size(), 2u);
  EXPECT_EQ(report.jobs, 1u);
  EXPECT_EQ(report.barrier_waits, 1u);
  EXPECT_EQ(report.barrier_ns, 40u);
  EXPECT_EQ(report.checkouts, 1u);
  EXPECT_EQ(report.checkout_ns, 7u);
  EXPECT_EQ(report.lane_ns_max, 300u);
  EXPECT_EQ(report.lane_ns_min, 100u);
  EXPECT_DOUBLE_EQ(report.lane_ns_mean, 200.0);
  EXPECT_DOUBLE_EQ(report.imbalance, 1.5);
  metrics.reset();
}

TEST(LaneMetrics, LaneIndexAboveCapFoldsIntoLastSlot) {
  auto& metrics = obs::LaneMetrics::instance();
  metrics.reset();
  metrics.record_lane(obs::kMaxMetricLanes + 50, 10);
  const obs::LaneReport report = metrics.snapshot();
  ASSERT_EQ(report.lanes.size(), 1u);
  EXPECT_EQ(report.lanes[0].lane, obs::kMaxMetricLanes - 1);
  metrics.reset();
}

TEST(LaneMetrics, ArmedPoolRunRecordsLaneTimesAndBarrier) {
  auto& metrics = obs::LaneMetrics::instance();
  metrics.arm();
  ThreadPool pool(3);
  std::atomic<unsigned> ran{0};
  pool.parallel_for_lanes(4, [&](unsigned) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  metrics.disarm();
  EXPECT_EQ(ran.load(), 4u);
  const obs::LaneReport report = metrics.snapshot();
  EXPECT_EQ(report.jobs, 1u);
  EXPECT_EQ(report.barrier_waits, 1u);
  ASSERT_EQ(report.lanes.size(), 4u);
  for (const auto& row : report.lanes) EXPECT_EQ(row.runs, 1u);
  EXPECT_GE(report.imbalance, 1.0);

  std::ostringstream os;
  report.write_json(os);
  const std::string json = os.str();
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"schema\":\"mergepath-lane-metrics-v2\""),
            std::string::npos);
  EXPECT_NE(json.find("\"imbalance\""), std::string::npos);
  metrics.reset();
}

TEST(LaneMetrics, CombinedMetricsJsonHasBothSections) {
  std::ostringstream os;
  obs::write_metrics_json(os);
  const std::string json = os.str();
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"lane_report\""), std::string::npos);
  EXPECT_NE(json.find("\"registry\""), std::string::npos);
}

}  // namespace

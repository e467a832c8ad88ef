// Compile-time no-op guarantee for the tracing gate: this translation unit
// is built with MP_TRACE=0 (see tests/CMakeLists.txt) while the libraries
// it links against keep their default MP_TRACE=1. That is exactly the
// mixed-gate configuration the distinct RecordingSpan/NullSpan class names
// exist for: templates instantiated HERE carry no tracing call sites at
// all, while spans inside the prebuilt libraries still record.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/parallel_merge.hpp"
#include "obs/flight.hpp"
#include "obs/percentiles.hpp"
#include "obs/trace.hpp"
#include "util/threading.hpp"

static_assert(!mp::obs::kTraceCompiledIn,
              "this TU must be compiled with MP_TRACE=0");
static_assert(std::is_empty_v<mp::obs::Span>,
              "the no-op span must carry zero bytes of state");
static_assert(sizeof(mp::obs::Span) == 1,
              "the no-op span must be an empty class");

namespace {

using namespace mp;

bool has_event(const std::vector<obs::TraceEvent>& events, const char* name) {
  for (const auto& e : events)
    if (e.name && std::string_view(name) == e.name) return true;
  return false;
}

TEST(ObsNoop, SpanCallSitesCompileToNothing) {
  obs::arm_tracing();
  {
    obs::Span span("noop.span", "k", 1);
    obs::Span::counter("noop.counter", 2);
    obs::Span::instant("noop.instant");
  }
  obs::disarm_tracing();
  const auto events = obs::trace_snapshot();
  EXPECT_FALSE(has_event(events, "noop.span"));
  EXPECT_FALSE(has_event(events, "noop.counter"));
  EXPECT_FALSE(has_event(events, "noop.instant"));
}

TEST(ObsNoop, TemplatesInstantiatedHereRecordNoMergeSpans) {
  // unsigned short keeps this instantiation unique to this TU, so the
  // linker cannot substitute a traced instantiation from another object.
  std::vector<unsigned short> a(2048), b(2048), out(4096);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<unsigned short>(2 * i);
    b[i] = static_cast<unsigned short>(2 * i + 1);
  }
  obs::arm_tracing();
  // Whether the *libraries* trace is invisible to this TU's MP_TRACE=0
  // macro; probe it at runtime — the real control plane reports armed,
  // the compiled-out stub never does.
  const bool lib_traces = obs::tracing_armed();
  ThreadPool pool(3);
  parallel_merge(a.data(), a.size(), b.data(), b.size(), out.data(),
                 Executor{&pool, 4});
  obs::disarm_tracing();
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));

  const auto events = obs::trace_snapshot();
  // The merge templates were instantiated in this MP_TRACE=0 TU: their
  // spans are gone regardless of the library gate.
  EXPECT_FALSE(has_event(events, "merge"));
  EXPECT_FALSE(has_event(events, "merge.partition"));
  EXPECT_FALSE(has_event(events, "merge.segment"));
  // When mp_util kept MP_TRACE=1 (the default build), the ThreadPool's
  // spans still record — mixed-gate behaviour working as designed. In a
  // -DMERGEPATH_TRACE=OFF build the whole binary records nothing.
  EXPECT_EQ(has_event(events, "pool.job"), lib_traces);
  EXPECT_EQ(has_event(events, "pool.lane"), lib_traces);
}

TEST(ObsNoop, NoopSpansReachNeitherStatsNorFlight) {
  // The state byte routes a RecordingSpan to every armed consumer — but
  // this TU's spans are NullSpan, so with percentiles armed and the flight
  // recorder on, nothing from here may appear in either.
  const bool flight_was = obs::flight_enabled();
  obs::set_flight_enabled(true);
  obs::reset_flight();
  obs::reset_span_stats();
  obs::arm_span_stats();
  {
    obs::Span span("noop.stat_span");
    obs::Span::instant("noop.flight_instant");
  }
  obs::disarm_span_stats();
  for (const obs::SpanStat& stat : obs::span_stats_snapshot())
    EXPECT_NE(stat.name, "noop.stat_span");
  EXPECT_FALSE(has_event(obs::flight_snapshot(), "noop.stat_span"));
  EXPECT_FALSE(has_event(obs::flight_snapshot(), "noop.flight_instant"));
  obs::reset_span_stats();
  obs::reset_flight();
  obs::set_flight_enabled(flight_was);
}

TEST(ObsNoop, PercentileAndFlightControlPlanesStayCallable) {
  // Arm/snapshot/reset and the exporters must work (possibly empty) so
  // tools keep their flags in an MP_TRACE=0 build.
  obs::reset_span_stats();
  obs::arm_span_stats();
  obs::disarm_span_stats();
  EXPECT_EQ(obs::span_stats_dropped(), 0u);
  std::ostringstream flight_os;
  obs::write_flight_trace(flight_os);
  EXPECT_NE(flight_os.str().find("\"flight_recorder\":true"),
            std::string::npos);
  EXPECT_FALSE(obs::flight_write_pending());  // no degrade, no dump path
}

TEST(ObsNoop, ControlPlaneDegradesGracefully) {
  // Even with call sites compiled out here, arm/disarm/export must be
  // callable so `mpsort --trace` in an MP_TRACE=0 build writes a valid
  // (possibly empty) trace instead of failing.
  obs::reset_tracing();
  obs::arm_tracing(16);
  // tracing_armed() means "spans will record": true only when the library
  // was built with MP_TRACE=1. The compiled-out stub stays false, which is
  // exactly how mpsort detects the gate to warn about an empty trace.
  const bool lib_traces = obs::tracing_armed();
  obs::disarm_tracing();
  EXPECT_FALSE(obs::tracing_armed());
  if (!lib_traces) {
    EXPECT_EQ(obs::trace_thread_count(), 0u);
  }
  std::ostringstream os;
  obs::write_chrome_trace(os);
  EXPECT_NE(os.str().find("\"traceEvents\""), std::string::npos);
}

}  // namespace

#pragma once
/// \file percentiles.hpp
/// Online per-span-name duration percentiles.
///
/// Each recording thread folds finished span durations into a streaming
/// log-bucketed histogram keyed by span name (storage lives in
/// detail::ThreadBuffer, trace.hpp, so the hot path stays lock-free and
/// owner-thread-only). Snapshots merge the per-thread histograms by name
/// string and report p50/p95/p99 + max per span name — the latency view
/// the merge-as-a-service SLO work needs, without keeping raw samples.
///
/// Bucket geometry: durations below 8 ns get exact unit buckets; above
/// that, each power of two is split into 8 sub-buckets (3 mantissa bits),
/// 496 buckets total covering the full uint64 range. Reporting the bucket
/// midpoint bounds the relative error of any quantile estimate by
/// 1/16 = 6.25% (kSpanStatsRelativeError); values below 16 ns are exact.
///
/// Arming/snapshotting follows the trace control-plane contract: call only
/// while no instrumented work is in flight.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace mp::obs {

/// Worst-case relative error of a percentile estimate (values >= 8 ns).
inline constexpr double kSpanStatsRelativeError = 1.0 / 16.0;

/// Maps a duration to its histogram bucket (monotone in `ns`).
inline std::size_t duration_bucket(std::uint64_t ns) {
  if (ns < 8) return static_cast<std::size_t>(ns);
  const int k = std::bit_width(ns);  // 4..64 here
  const std::uint64_t sub = (ns >> (k - 4)) & 7u;
  return 8 + static_cast<std::size_t>(k - 4) * 8 +
         static_cast<std::size_t>(sub);
}

/// Inclusive-lo / exclusive-hi bounds of a bucket (hi saturates at
/// UINT64_MAX for the top bucket).
std::pair<std::uint64_t, std::uint64_t> duration_bucket_bounds(
    std::size_t bucket);

/// Merged per-span-name statistics, one entry per distinct name.
struct SpanStat {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;
  std::uint64_t max_ns = 0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p95_ns = 0;
  std::uint64_t p99_ns = 0;
};

/// Starts folding span durations into per-thread histograms.
void arm_span_stats();

/// Stops recording (already-recorded histograms are kept for snapshot).
void disarm_span_stats();

/// True between arm_span_stats() and disarm_span_stats().
bool span_stats_armed();

/// Clears all histograms and the dropped-name counters.
void reset_span_stats();

/// Histograms merged by span name across all threads, sorted by descending
/// total time (sum_ns). Non-destructive.
std::vector<SpanStat> span_stats_snapshot();

/// Distinct names that could not be tracked (per-thread table full).
std::uint64_t span_stats_dropped();

/// Programmatic sample entry point (same path span destructors use), for
/// callers measuring something that is not a Span — and for the error-bound
/// tests. `name` must have static storage duration. Requires armed stats.
void record_span_duration(const char* name, std::uint64_t dur_ns);

}  // namespace mp::obs

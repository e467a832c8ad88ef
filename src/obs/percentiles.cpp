#include "obs/percentiles.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <mutex>

namespace mp::obs {
namespace {

/// All-threads histogram for one span name, merged under the registry
/// mutex at snapshot time.
struct MergedHist {
  std::array<std::uint64_t, kSpanHistBuckets> counts{};
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;
  std::uint64_t max_ns = 0;
};

/// Midpoint estimate for a bucket, the value quantiles report.
std::uint64_t bucket_estimate(std::size_t bucket) {
  const auto [lo, hi] = duration_bucket_bounds(bucket);
  return lo + (hi - lo) / 2;
}

/// Smallest estimate v such that at least ceil(q * count) samples are <= v's
/// bucket. Clamped to the observed max (the top bucket's midpoint can
/// overshoot it).
std::uint64_t quantile(const MergedHist& hist, double q) {
  if (hist.count == 0) return 0;
  const std::uint64_t target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             q * static_cast<double>(hist.count) + 0.999999));
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < kSpanHistBuckets; ++b) {
    cum += hist.counts[b];
    if (cum >= target) return std::min(bucket_estimate(b), hist.max_ns);
  }
  return hist.max_ns;
}

}  // namespace

std::pair<std::uint64_t, std::uint64_t> duration_bucket_bounds(
    std::size_t bucket) {
  if (bucket < 8) return {bucket, bucket + 1};
  const std::size_t g = (bucket - 8) / 8;  // 0..60 → bit width g + 4
  const std::size_t sub = (bucket - 8) % 8;
  const int k = static_cast<int>(g) + 4;
  const std::uint64_t width = std::uint64_t{1} << (k - 4);
  const std::uint64_t lo = (std::uint64_t{1} << (k - 1)) + sub * width;
  // The very top bucket's hi would be 2^64; saturate instead of wrapping.
  const std::uint64_t hi =
      lo + width < lo ? ~std::uint64_t{0} : lo + width;
  return {lo, hi};
}

namespace detail {

void record_span_stat(ThreadBuffer& buffer, const char* name,
                      std::uint64_t dur_ns) {
  // Open-addressed probe over the fixed name table, keyed by pointer
  // identity (names are static strings; duplicates across TUs merge at
  // snapshot time by strcmp).
  const auto hash = reinterpret_cast<std::uintptr_t>(name);
  std::size_t slot = (hash >> 4) % kSpanStatSlots;
  for (std::size_t probes = 0; probes < kSpanStatSlots; ++probes) {
    ThreadBuffer::StatSlot& entry = buffer.stats[slot];
    if (entry.name == name) break;
    if (entry.name == nullptr) {
      entry.name = name;
      break;
    }
    slot = slot + 1 == kSpanStatSlots ? 0 : slot + 1;
  }
  ThreadBuffer::StatSlot& entry = buffer.stats[slot];
  if (entry.name != name) {
    ++buffer.stats_dropped;  // table full
    return;
  }
  if (!entry.hist) entry.hist = std::make_unique<SpanHist>();
  SpanHist& hist = *entry.hist;
  ++hist.counts[duration_bucket(dur_ns)];
  ++hist.count;
  hist.sum_ns += dur_ns;
  hist.max_ns = std::max(hist.max_ns, dur_ns);
}

}  // namespace detail

void arm_span_stats() {
  detail::g_span_state.fetch_or(detail::kSpanStatsBit,
                                std::memory_order_release);
}

void disarm_span_stats() {
  detail::g_span_state.fetch_and(
      static_cast<std::uint8_t>(~detail::kSpanStatsBit),
      std::memory_order_release);
}

bool span_stats_armed() {
  return (detail::g_span_state.load(std::memory_order_acquire) &
          detail::kSpanStatsBit) != 0;
}

void reset_span_stats() {
  detail::TraceRegistry& registry = detail::TraceRegistry::instance();
  std::lock_guard lock(registry.mutex);
  for (auto& buffer : registry.buffers) {
    for (auto& slot : buffer->stats) {
      slot.name = nullptr;
      slot.hist.reset();
    }
    buffer->stats_dropped = 0;
  }
}

std::vector<SpanStat> span_stats_snapshot() {
  detail::TraceRegistry& registry = detail::TraceRegistry::instance();
  std::lock_guard lock(registry.mutex);

  // Merge by name *string* (not pointer): the same literal in two TUs may
  // have two addresses.
  std::map<std::string, MergedHist> merged;
  for (const auto& buffer : registry.buffers) {
    for (const auto& slot : buffer->stats) {
      if (!slot.name || !slot.hist || slot.hist->count == 0) continue;
      MergedHist& m = merged[slot.name];
      for (std::size_t b = 0; b < kSpanHistBuckets; ++b)
        m.counts[b] += slot.hist->counts[b];
      m.count += slot.hist->count;
      m.sum_ns += slot.hist->sum_ns;
      m.max_ns = std::max(m.max_ns, slot.hist->max_ns);
    }
  }

  std::vector<SpanStat> stats;
  stats.reserve(merged.size());
  for (const auto& [name, hist] : merged) {
    SpanStat stat;
    stat.name = name;
    stat.count = hist.count;
    stat.sum_ns = hist.sum_ns;
    stat.max_ns = hist.max_ns;
    stat.p50_ns = quantile(hist, 0.50);
    stat.p95_ns = quantile(hist, 0.95);
    stat.p99_ns = quantile(hist, 0.99);
    stats.push_back(std::move(stat));
  }
  std::sort(stats.begin(), stats.end(),
            [](const SpanStat& x, const SpanStat& y) {
              if (x.sum_ns != y.sum_ns) return x.sum_ns > y.sum_ns;
              return x.name < y.name;
            });
  return stats;
}

std::uint64_t span_stats_dropped() {
  detail::TraceRegistry& registry = detail::TraceRegistry::instance();
  std::lock_guard lock(registry.mutex);
  std::uint64_t total = 0;
  for (const auto& buffer : registry.buffers) total += buffer->stats_dropped;
  return total;
}

void record_span_duration(const char* name, std::uint64_t dur_ns) {
  if (!span_stats_armed()) return;
  detail::record_span_stat(*detail::local_buffer(), name, dur_ns);
}

}  // namespace mp::obs

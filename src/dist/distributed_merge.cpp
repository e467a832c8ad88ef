#include "dist/distributed_merge.hpp"

#include <algorithm>

#include "core/merge_path.hpp"
#include "core/sequential_merge.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace mp::dist {
namespace {

constexpr std::uint64_t kElem = sizeof(std::int32_t);

/// Owner shard and in-shard offset of global element index g for an array
/// of `total` elements block-distributed over `ranks`.
struct Location {
  unsigned rank;
  std::size_t offset;
};

Location locate(std::size_t g, std::size_t total, unsigned ranks) {
  // Block distribution boundaries are floor(r*total/ranks); find r with
  // begin(r) <= g < begin(r+1).
  unsigned lo = 0, hi = ranks - 1;
  while (lo < hi) {
    const unsigned mid = (lo + hi + 1) / 2;
    if (static_cast<std::size_t>(mid) * total / ranks <= g)
      lo = mid;
    else
      hi = mid - 1;
  }
  return {lo, g - static_cast<std::size_t>(lo) * total / ranks};
}

/// Copies global range [lo, hi) out of a block-distributed array,
/// recording one message per touched source shard. Transfers run under
/// the recovery protocol; throws NetError on a persistent partition.
std::vector<std::int32_t> fetch_range(const DistArray& src, std::size_t lo,
                                      std::size_t hi, unsigned dst_rank,
                                      RankNetwork& net) {
  std::vector<std::int32_t> out;
  out.reserve(hi - lo);
  const std::size_t total = src.total();
  const auto ranks = static_cast<unsigned>(src.shards.size());
  std::size_t g = lo;
  while (g < hi) {
    const Location at = locate(g, total, ranks);
    const std::size_t shard_end =
        static_cast<std::size_t>(at.rank + 1) * total / ranks;
    const std::size_t take = std::min(hi, shard_end) - g;
    net.reliable_send(at.rank, dst_rank, take * kElem);
    const auto& shard = src.shards[at.rank];
    out.insert(out.end(),
               shard.begin() + static_cast<std::ptrdiff_t>(at.offset),
               shard.begin() + static_cast<std::ptrdiff_t>(at.offset + take));
    g += take;
  }
  return out;
}

/// Publishes the run's fault/recovery counters into the metrics registry
/// (all-zero stats publish nothing, keeping fault-free runs silent).
void flush_net_metrics(const NetStats& net) {
  auto& registry = obs::MetricsRegistry::instance();
  if (net.faults_injected > 0)
    registry.counter("dist.faults").add(net.faults_injected);
  if (net.resends > 0) registry.counter("dist.resends").add(net.resends);
  if (net.dedup_discards > 0)
    registry.counter("dist.dedup_discards").add(net.dedup_discards);
}

}  // namespace

std::vector<std::int32_t> DistArray::gathered() const {
  std::vector<std::int32_t> out;
  out.reserve(total());
  for (const auto& s : shards) out.insert(out.end(), s.begin(), s.end());
  return out;
}

DistArray distribute(const std::vector<std::int32_t>& values,
                     unsigned ranks) {
  MP_CHECK(ranks >= 1);
  DistArray out;
  out.shards.resize(ranks);
  for (unsigned r = 0; r < ranks; ++r) {
    const std::size_t lo = static_cast<std::size_t>(r) * values.size() / ranks;
    const std::size_t hi =
        static_cast<std::size_t>(r + 1) * values.size() / ranks;
    out.shards[r].assign(values.begin() + static_cast<std::ptrdiff_t>(lo),
                         values.begin() + static_cast<std::ptrdiff_t>(hi));
  }
  return out;
}

DistMergeResult merge_path_exchange(const DistArray& a, const DistArray& b,
                                    const NetConfig& config) {
  MP_CHECK(a.shards.size() == b.shards.size());
  const auto ranks = static_cast<unsigned>(a.shards.size());
  obs::Span span("dist.exchange", "ranks", ranks);
  RankNetwork net(ranks, config);
  const auto flat_a = a.gathered();  // stands in for remote probe reads
  const auto flat_b = b.gathered();
  const std::size_t m = flat_a.size(), n = flat_b.size();
  const std::size_t total = m + n;

  // Round 1: every rank's two boundary searches. Each probe is a tiny
  // remote read from the owner of the probed element; charge 8 bytes per
  // probe (index+value). Rank 0's lower bound is free.
  std::vector<PathPoint> cuts(ranks + 1);
  cuts[0] = PathPoint{0, 0};
  cuts[ranks] = PathPoint{m, n};
  for (unsigned r = 1; r < ranks; ++r) {
    OpCounts probes;
    cuts[r] = path_point_on_diagonal(flat_a.data(), m, flat_b.data(), n,
                                     static_cast<std::size_t>(r) * total /
                                         ranks,
                                     std::less<>{}, &probes);
    for (std::uint64_t s = 0; s < probes.search_steps; ++s) {
      // Probe touches one element of A and one of B at data-dependent
      // owners; charge from a representative owner (probe position is
      // data-dependent; owner spread does not change totals).
      net.reliable_send((r + static_cast<unsigned>(s)) % ranks, r, 2 * 8);
    }
  }
  net.end_round();

  // Round 2: the single personalized exchange — rank r pulls exactly the
  // A and B fragments its output slice needs, then merges locally. A
  // NetError inside one rank's pull retries that rank's WHOLE segment
  // (Theorem 14: segments are disjoint, so the re-fetch touches no other
  // rank's output); a partition outliving segment_retries propagates.
  DistMergeResult result;
  result.merged.shards.resize(ranks);
  for (unsigned r = 0; r < ranks; ++r) {
    const PathPoint lo = cuts[r];
    const PathPoint hi = cuts[r + 1];
    for (unsigned attempt = 0;; ++attempt) {
      try {
        const auto frag_a = fetch_range(a, lo.i, hi.i, r, net);
        const auto frag_b = fetch_range(b, lo.j, hi.j, r, net);
        auto& out = result.merged.shards[r];
        out.resize(frag_a.size() + frag_b.size());
        std::size_t i = 0, j = 0;
        merge_steps(frag_a.data(), frag_a.size(), frag_b.data(),
                    frag_b.size(), &i, &j, out.data(), out.size());
        break;
      } catch (const NetError&) {
        if (attempt >= net.config().segment_retries) {
          obs::flight_report_degraded("dist.permanent");
          throw;
        }
        obs::Span::instant("dist.segment_retry", "rank", r);
        result.merged.shards[r].clear();
      }
    }
  }
  net.end_round();
  result.net = net.stats();
  flush_net_metrics(result.net);
  return result;
}

DistMergeResult tree_merge(const DistArray& a, const DistArray& b,
                           const NetConfig& config) {
  MP_CHECK(a.shards.size() == b.shards.size());
  const auto ranks = static_cast<unsigned>(a.shards.size());
  obs::Span span("dist.tree", "ranks", ranks);
  RankNetwork net(ranks, config);

  // Each rank first merges its local A and B shards (no traffic). Note
  // these per-rank runs are NOT aligned between A and B, which is exactly
  // why a naive distributed merge needs the full tree.
  std::vector<std::vector<std::int32_t>> runs(ranks);
  for (unsigned r = 0; r < ranks; ++r) {
    runs[r].resize(a.shards[r].size() + b.shards[r].size());
    std::size_t i = 0, j = 0;
    merge_steps(a.shards[r].data(), a.shards[r].size(), b.shards[r].data(),
                b.shards[r].size(), &i, &j, runs[r].data(), runs[r].size());
  }

  // log2(p) rounds: rank r + 2^d ships its run to rank r, which merges.
  for (unsigned stride = 1; stride < ranks; stride <<= 1) {
    for (unsigned r = 0; r + stride < ranks; r += 2 * stride) {
      const unsigned src = r + stride;
      net.reliable_send(src, r, runs[src].size() * kElem);
      std::vector<std::int32_t> merged(runs[r].size() + runs[src].size());
      std::size_t i = 0, j = 0;
      merge_steps(runs[r].data(), runs[r].size(), runs[src].data(),
                  runs[src].size(), &i, &j, merged.data(), merged.size());
      runs[r] = std::move(merged);
      runs[src].clear();
    }
    net.end_round();
  }

  // Scatter the result back into block distribution.
  DistMergeResult result;
  result.merged.shards.resize(ranks);
  const std::size_t total = runs[0].size();
  for (unsigned r = 0; r < ranks; ++r) {
    const std::size_t lo = static_cast<std::size_t>(r) * total / ranks;
    const std::size_t hi = static_cast<std::size_t>(r + 1) * total / ranks;
    result.merged.shards[r].assign(
        runs[0].begin() + static_cast<std::ptrdiff_t>(lo),
        runs[0].begin() + static_cast<std::ptrdiff_t>(hi));
    net.reliable_send(0, r, (hi - lo) * kElem);
  }
  net.end_round();
  result.net = net.stats();
  flush_net_metrics(result.net);
  return result;
}

DistMergeResult gather_at_root(const DistArray& a, const DistArray& b,
                               const NetConfig& config) {
  MP_CHECK(a.shards.size() == b.shards.size());
  const auto ranks = static_cast<unsigned>(a.shards.size());
  obs::Span span("dist.gather", "ranks", ranks);
  RankNetwork net(ranks, config);

  for (unsigned r = 1; r < ranks; ++r) {
    net.reliable_send(r, 0, (a.shards[r].size() + b.shards[r].size()) * kElem);
  }
  net.end_round();

  const auto flat_a = a.gathered();
  const auto flat_b = b.gathered();
  std::vector<std::int32_t> merged(flat_a.size() + flat_b.size());
  std::size_t i = 0, j = 0;
  merge_steps(flat_a.data(), flat_a.size(), flat_b.data(), flat_b.size(),
              &i, &j, merged.data(), merged.size());

  DistMergeResult result;
  result.merged = distribute(merged, ranks);
  for (unsigned r = 1; r < ranks; ++r)
    net.reliable_send(0, r, result.merged.shards[r].size() * kElem);
  net.end_round();
  result.net = net.stats();
  flush_net_metrics(result.net);
  return result;
}

}  // namespace mp::dist

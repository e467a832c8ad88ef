#pragma once
/// \file distributed_merge.hpp
/// Distributed-memory merging on the simulated rank network (experiment
/// E16): three algorithms for merging two sorted arrays that start
/// block-distributed across p ranks and must end block-distributed.
///
///  - merge-path exchange: every rank computes its output slice's
///    co-ranks (the paper's diagonal search — in MPI terms a handful of
///    remote probes), then a single personalized exchange ships each rank
///    exactly the input fragments its slice needs. Receive volume is
///    perfectly balanced at ~N/p per rank and total traffic is <= N
///    elements, in ONE round.
///  - tree merge: the classic log p rounds of pairwise merges; each round
///    ships one partner's whole run to the other, so total traffic is
///    ~(N/2)·log p and the later rounds concentrate load on few ranks.
///  - gather at root: ship everything to rank 0, merge, scatter — 2N
///    traffic with an N-byte hotspot at the root.
///
/// All three really move the data between per-rank vectors (correctness is
/// testable), with every transfer priced by the RankNetwork.
///
/// Fault behaviour: when the NetConfig carries a fault::FaultPlan, every
/// transfer goes through RankNetwork::reliable_send — drops are resent,
/// duplicates discarded by sequence number, reordering absorbed — so the
/// merged result is byte-identical to the fault-free run. merge_path
/// additionally retries a whole rank segment after a NetError (up to
/// NetConfig::segment_retries): output segments are disjoint (the paper's
/// Theorem 14), so re-fetching one rank's fragments cannot corrupt any
/// other rank's output. A partition that outlives every retry surfaces as
/// the typed NetError, never an abort.

#include <cstdint>
#include <vector>

#include "dist/netsim.hpp"

namespace mp::dist {

/// A block-distributed sorted array: shard r holds the global range
/// [r*n/p, (r+1)*n/p) of the (conceptually concatenated, globally sorted)
/// array.
struct DistArray {
  std::vector<std::vector<std::int32_t>> shards;

  std::size_t total() const {
    std::size_t t = 0;
    for (const auto& s : shards) t += s.size();
    return t;
  }
  /// Flat copy (for verification).
  std::vector<std::int32_t> gathered() const;
};

/// Splits a sorted vector into p balanced shards.
DistArray distribute(const std::vector<std::int32_t>& values,
                     unsigned ranks);

/// The result of a distributed merge: the merged array, block-distributed,
/// plus the traffic it cost.
struct DistMergeResult {
  DistArray merged;
  NetStats net;
};

DistMergeResult merge_path_exchange(const DistArray& a, const DistArray& b,
                                    const NetConfig& config = {});

DistMergeResult tree_merge(const DistArray& a, const DistArray& b,
                           const NetConfig& config = {});

DistMergeResult gather_at_root(const DistArray& a, const DistArray& b,
                               const NetConfig& config = {});

}  // namespace mp::dist

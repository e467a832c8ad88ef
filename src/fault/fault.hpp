#pragma once
/// \file fault.hpp
/// Deterministic fault injection for the fallible substrates (the extmem
/// block device and the dist rank network).
///
/// Why this belongs in a Merge Path repository: the paper's Theorem 14
/// guarantees that cross-diagonal partitioning yields disjoint,
/// independently mergeable output segments. That independence is what
/// makes *segment-level retry* safe — re-running one rank's exchange or
/// re-writing one spilled block can never corrupt a neighbouring
/// segment's output. This subsystem supplies the failure model that lets
/// the tests and benches prove it: every merge over fallible media must
/// either complete with a byte-exact (and stable) result, or surface a
/// typed error — never abort, never corrupt.
///
/// Design:
///  - A FaultPlan is a *schedule*, not a dice roll: decisions come from a
///    seeded xoshiro stream indexed by the plan's own operation counter,
///    optionally overridden by explicit scripts ("fail op #k", "fail
///    everything from op #k", "partition link src->dst for ops [a, b)").
///    The consumers are deterministic, so the op stream — and hence the
///    whole fault schedule — is a pure function of the seed. A failure
///    seen in CI replays locally from one seed flag.
///  - Injection is pull-based: a target (BlockDevice, RankNetwork) holds a
///    FaultPlan* and consults it per operation. The RAII ScopedInjector
///    attaches a plan for a scope and detaches on exit, so no fault state
///    outlives the test that armed it.
///  - Off is a run-time state: a target with no plan attached pays one
///    null-pointer check per operation and behaves exactly like the
///    pre-fault library.
///
/// Note on retries and scripted indices: a retry issues a *new* operation
/// and consumes the next schedule position, so scripted op indices count
/// attempts, not logical operations. This is what keeps the schedule a
/// function of the seed alone.

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace mp::fault {

enum class FaultKind : std::uint8_t {
  kNone = 0,
  // Storage faults (block device).
  kTransient,  ///< EINTR-style: the attempt fails outright; retry may succeed
  kShort,      ///< short read/write: a partial transfer, the op must be redone
  kLatency,    ///< the attempt succeeds but costs extra modeled time
  kNoSpace,    ///< ENOSPC: allocation fails (permanent)
  kMedia,      ///< EIO: the transfer fails (permanent once scripted)
  // Network faults (rank network).
  kDrop,       ///< message vanishes in transit
  kDuplicate,  ///< message delivered twice (receiver must dedup by sequence)
  kReorder,    ///< message arrives late / out of order
  kPartition,  ///< link down for a scripted window of operations
  // Compute faults (ThreadPool lanes).
  kLaneThrow,    ///< the lane throws before running its task (crash model)
  kLaneAbandon,  ///< the lane never runs its task (dead-worker model)
  kLaneDelay,    ///< the lane stalls before its task (straggler model)
  // Process faults (pipeline step boundaries).
  kCrash,  ///< the whole process dies at a step boundary (resume via manifest)
  kKindCount,  // sentinel for stats arrays
};

const char* to_string(FaultKind kind);

/// Operation classes an injector can interpose on. kStep is the pipeline's
/// checkpoint-step boundary: the only class that can draw kCrash.
enum class OpClass : std::uint8_t {
  kRead, kWrite, kAllocate, kSend, kLane, kStep,
};

/// Counts of what a plan actually injected (deterministic in the seed).
struct FaultStats {
  std::uint64_t decisions = 0;  ///< operations inspected
  std::uint64_t injected = 0;   ///< total faults injected
  std::uint64_t by_kind[static_cast<std::size_t>(FaultKind::kKindCount)] = {};

  std::uint64_t count(FaultKind kind) const {
    return by_kind[static_cast<std::size_t>(kind)];
  }
  friend bool operator==(const FaultStats& x, const FaultStats& y) {
    if (x.decisions != y.decisions || x.injected != y.injected) return false;
    for (std::size_t k = 0; k < static_cast<std::size_t>(FaultKind::kKindCount);
         ++k)
      if (x.by_kind[k] != y.by_kind[k]) return false;
    return true;
  }
};

struct FaultConfig {
  std::uint64_t seed = 0;
  /// Per-operation probability of a randomly drawn recoverable fault.
  /// Reads/writes draw from {transient, short, latency}; sends from
  /// {drop, duplicate, reorder}. Allocations never fault randomly
  /// (ENOSPC is scripted or capacity-driven), keeping random schedules
  /// recoverable by construction.
  double rate = 0.0;
  /// Modeled cost of one kLatency fault (and the unit for backoff math).
  double latency_us = 250.0;
  /// Real wall-time stall of one kLaneDelay fault. Lanes run on live
  /// threads, so — unlike the modeled substrates — the straggler actually
  /// sleeps; the ThreadPool's hedger can cancel the sleep early.
  double lane_delay_us = 2000.0;
};

/// Bounded retry-with-backoff policy shared by the fault-aware consumers.
struct RetryPolicy {
  unsigned max_attempts = 8;  ///< total tries per operation (1 = no retry)
  double backoff_us = 50.0;   ///< modeled wait before a retry; doubles each time
  /// Jitter fraction in [0, 1]: each backoff is scaled by a seeded uniform
  /// draw from [1 - jitter, 1] so synchronized retries de-stampede. The
  /// draws come from FaultPlan::jitter01() — a stream independent of the
  /// decision stream — so arming jitter never perturbs the fault schedule
  /// or `schedule_hash`. With no plan attached the backoff is unjittered.
  double jitter = 0.0;
};

/// Base class of the typed errors fault-aware subsystems surface
/// (extmem::IoError, dist::NetError). Operations that exhaust their
/// retries or hit a permanent fault throw one of these — they never abort
/// and never return corrupt data.
class FaultError : public std::runtime_error {
 public:
  FaultError(FaultKind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}
  FaultKind kind() const { return kind_; }

 private:
  FaultKind kind_;
};

/// Typed compute fault: an injected lane failure surfaced by the
/// ThreadPool (kLaneThrow thrown from the lane itself; kLaneAbandon
/// synthesized when a report consumer asks for the first error of a job
/// whose lane never ran). Fires *before* the lane's task executes, so a
/// recovered lane re-runs its disjoint output segment from scratch —
/// exactly the re-execution Theorem 14 makes safe.
class LaneFault : public FaultError {
 public:
  LaneFault(FaultKind kind, unsigned lane)
      : FaultError(kind, std::string("injected lane fault: ") +
                             to_string(kind) + " on lane " +
                             std::to_string(lane)),
        lane_(lane) {}
  unsigned lane() const { return lane_; }

 private:
  unsigned lane_;
};

/// A deterministic fault schedule. Default-constructed plans are inert
/// (never inject); seeded plans draw per-op; scripts override the draw.
class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(const FaultConfig& config);

  const FaultConfig& config() const { return config_; }

  /// Scripted fault: op number `index` (0-based across all decide calls on
  /// this plan, attempts included) fails with `kind`.
  void fail_op(std::uint64_t index, FaultKind kind);

  /// Permanent outage: every op with number >= `index` fails with `kind`.
  void fail_from(std::uint64_t index, FaultKind kind);

  /// Link partition: sends src->dst decided while the op number is in
  /// [from, from + length) fail with kPartition (length 0 = forever).
  void partition_link(unsigned src, unsigned dst, std::uint64_t from,
                      std::uint64_t length = 0);

  /// The schedule: which fault (if any) op number ops_seen() suffers.
  FaultKind decide(OpClass op);
  /// Send-specific variant that also consults link-partition scripts.
  FaultKind decide_send(unsigned src, unsigned dst);
  /// Step-boundary variant for pipeline crash points. Randomly drawn
  /// crashes are honored only at *durable* points (consulted right after a
  /// checkpoint landed), which keeps rate-driven crash schedules
  /// terminating by construction: every incarnation completes at least one
  /// new unit of work before the next crash can fire. Scripted crashes
  /// (fail_op / fail_from) are honored at every point, so tests can kill
  /// the pipeline between a unit's work and its checkpoint too. Either way
  /// the call consumes exactly one schedule position.
  FaultKind decide_step(bool durable);

  /// Fraction of a kShort transfer that completes, in [0, 1). Deterministic
  /// in the schedule position (consumes one draw).
  double short_fraction();

  /// Uniform draw in [0, 1) from a second RNG stream derived from the same
  /// seed. Used for RetryPolicy jitter: consuming jitter draws leaves the
  /// decision stream (and thus schedule_hash) untouched, preserving replay.
  double jitter01();

  double latency_us() const { return config_.latency_us; }
  std::uint64_t ops_seen() const { return next_op_; }
  const FaultStats& stats() const { return stats_; }

  /// Rolling hash over (op index, decision) pairs: two runs with the same
  /// seed produce byte-identical schedules iff their hashes agree. This is
  /// the determinism acceptance check in tests/property/test_property_faults.
  std::uint64_t schedule_hash() const { return schedule_hash_; }

 private:
  struct Partition {
    unsigned src, dst;
    std::uint64_t from, length;  // length 0 = forever
  };

  FaultKind resolve(OpClass op, const Partition* hit, bool durable);
  FaultKind random_draw(OpClass op);

  FaultConfig config_;
  Xoshiro256 rng_;
  Xoshiro256 jitter_rng_;
  bool seeded_ = false;
  std::uint64_t next_op_ = 0;
  std::map<std::uint64_t, FaultKind> script_;
  std::uint64_t permanent_from_ = ~0ull;
  FaultKind permanent_kind_ = FaultKind::kNone;
  std::vector<Partition> partitions_;
  FaultStats stats_;
  std::uint64_t schedule_hash_ = 0x9e3779b97f4a7c15ULL;
};

/// RAII attachment of a plan to any target exposing set_fault_plan().
template <typename Target>
class ScopedInjector {
 public:
  ScopedInjector(Target& target, FaultPlan& plan) : target_(&target) {
    target_->set_fault_plan(&plan);
  }
  ~ScopedInjector() { target_->set_fault_plan(nullptr); }
  ScopedInjector(const ScopedInjector&) = delete;
  ScopedInjector& operator=(const ScopedInjector&) = delete;

 private:
  Target* target_;
};

}  // namespace mp::fault

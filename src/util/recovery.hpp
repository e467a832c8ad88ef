#pragma once
/// \file recovery.hpp
/// Lane-level fault recovery: the executor's second way of running lanes.
///
/// Why this is cheap and safe: Theorem 14 of the paper guarantees that
/// cross-diagonal partitioning yields disjoint, independently recomputable
/// output segments. A failed lane therefore names exactly the output span
/// that is missing, and re-running just that lane — on the pool, or
/// sequentially on the caller when the pool is degraded — reconstructs it
/// without touching any neighbour. This is the same argument
/// distributed_merge already exploits per rank (dist/) and run_file uses
/// per block (extmem/); here it is applied to the ThreadPool lanes
/// themselves.
///
/// Recovery is not a second copy of any algorithm. Every fork in the
/// library goes through Executor::run_lanes; pointing the executor at a
/// caller-owned LaneRecovery makes each of those forks run under
/// run_lanes_with_recovery instead of ThreadPool::parallel_for_lanes:
///
///   LaneRecovery recovery;              // config + accumulated report
///   recovery.config.hedge.enabled = true;
///   parallel_merge_sort(data, n, Executor{&pool, 4, &recovery});
///   if (recovery.report.degraded()) ...
///
/// A sort then recovers per phase (block sorts, each flattened round,
/// copy-back): a fault in one phase is healed before the next begins, and
/// the phases submit the same pool jobs in the same order as a plain run,
/// so a seed replays the same fault schedule.
///
/// The engine, run_lanes_with_recovery(), submits a job through
/// ThreadPool::try_parallel_for_lanes (barrier always completes; per-lane
/// outcomes in a LaneReport), re-submits only the failed lanes as a
/// smaller job — bounded by fault::RetryPolicy::max_attempts, each retry
/// consuming fresh fault-schedule positions — and finally runs any still-
/// failed lanes sequentially on the caller, outside the pool ("the pool is
/// degraded; finish the span sequentially"). Genuine task exceptions (a
/// throwing comparator) are rethrown immediately, not retried: the
/// recovery loop is for injected/environmental faults, and a deterministic
/// bug would burn the whole budget reproducing itself. Straggler hedging
/// rides on RecoveryConfig::hedge: lanes exceeding HedgePolicy::factor x
/// the median completed lane wall-time are speculatively re-executed,
/// MapReduce-style; first-claimer-wins via the pool's per-lane ticket
/// makes the race benign.
///
/// A lane body never runs twice once it has started: injected throws and
/// abandons fire *before* the task, a delayed lane runs its task exactly
/// once (or is hedged away before it starts), and a task that throws on
/// its own is rethrown rather than retried. So even in-place block sorts
/// and moving copy-backs are safe to recover.
///
/// Counters: each recovery publishes pool.lane_faults / pool.retries /
/// pool.hedges / pool.fallbacks into the MetricsRegistry (cold path), and
/// brackets itself in a pool.recover span — see docs/OBSERVABILITY.md.
///
/// Under MP_FAULT=0 nothing here is dead weight: the engine still provides
/// hedging and typed reports; there are simply no injected faults to
/// recover from.

#include <functional>

#include "fault/fault.hpp"
#include "util/threading.hpp"

namespace mp {

/// Knobs of the recovery engine: the retry budget (attempts are whole
/// submissions, first try included) and the straggler-hedging policy
/// applied to every submission. Unlike the extmem run-file layer, where
/// backoff_us is modeled device latency, here it is a REAL wall-clock
/// sleep before each re-submission (doubling per retry); the default is 0
/// so compute retries stay immediate — in-memory lane faults are not
/// congestion, so waiting is opt-in for callers pacing a shared pool.
struct RecoveryConfig {
  fault::RetryPolicy retry{/*max_attempts=*/8, /*backoff_us=*/0.0};
  HedgePolicy hedge{};
};

/// What a recovered job (or every job of a recovering executor) went
/// through. All counts accumulate across jobs.
struct RecoveryReport {
  unsigned lanes = 0;            ///< lane executions submitted (all jobs)
  unsigned injected_faults = 0;  ///< lanes whose schedule drew a fault
  unsigned retried_lanes = 0;    ///< lane re-submissions to the pool
  unsigned hedges = 0;           ///< lanes completed by the straggler hedge
  unsigned fallback_lanes = 0;   ///< lanes finished sequentially on the caller
  unsigned attempts = 0;         ///< pool submissions (>= 1 per job)

  /// True when the retry budget ran out and the sequential fallback had to
  /// finish part of the span — the "pool is degraded" signal.
  bool degraded() const { return fallback_lanes > 0; }

  void absorb(const RecoveryReport& other) {
    lanes += other.lanes;
    injected_faults += other.injected_faults;
    retried_lanes += other.retried_lanes;
    hedges += other.hedges;
    fallback_lanes += other.fallback_lanes;
    attempts += other.attempts;
  }
};

/// The caller-owned context an Executor points at to run its lanes under
/// recovery: the policy, and the report every job run through it
/// accumulates into. Not thread-safe — one algorithm call at a time.
struct LaneRecovery {
  RecoveryConfig config{};
  RecoveryReport report{};
};

/// Runs task(lane) for every lane in [0, lanes) to completion, surviving
/// injected lane faults: failed lanes are re-submitted (smaller jobs, fresh
/// schedule positions) up to cfg.retry.max_attempts total submissions, then
/// finished sequentially on the caller. Rethrows the first genuine (non-
/// injected) task exception. The task must tolerate re-execution of a lane
/// whose previous attempt never ran its body — which injected faults
/// guarantee by firing pre-task.
RecoveryReport run_lanes_with_recovery(
    ThreadPool& pool, unsigned lanes,
    const std::function<void(unsigned)>& task, const RecoveryConfig& cfg = {});

}  // namespace mp

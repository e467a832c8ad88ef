#pragma once
/// \file recovery.hpp
/// Lane-level fault recovery for the in-memory algorithms.
///
/// Why this is cheap and safe: Theorem 14 of the paper guarantees that
/// cross-diagonal partitioning yields disjoint, independently recomputable
/// output segments. A failed lane therefore names exactly the output span
/// that is missing, and re-running just that lane — on the pool, or
/// sequentially on the caller when the pool is degraded — reconstructs it
/// without touching any neighbour. This is the same argument
/// distributed_merge already exploits per rank (dist/) and run_file uses
/// per block (extmem/); here it is applied to the ThreadPool lanes
/// themselves, closing the last fault-blind execution path.
///
/// Components:
///  - run_lanes_with_recovery(): the generic engine. Submits a job through
///    ThreadPool::try_parallel_for_lanes (barrier always completes; per-lane
///    outcomes in a LaneReport), re-submits only the failed lanes as a
///    smaller job — bounded by fault::RetryPolicy::max_attempts, each retry
///    consuming fresh fault-schedule positions — and finally runs any still-
///    failed lanes sequentially on the caller, outside the pool ("the pool
///    is degraded; finish the span sequentially"). Genuine task exceptions
///    (a throwing comparator) are rethrown immediately, not retried: the
///    recovery loop is for injected/environmental faults, and a
///    deterministic bug would burn the whole budget reproducing itself.
///  - Straggler hedging rides on RecoveryConfig::hedge: lanes exceeding
///    HedgePolicy::factor x the median completed lane wall-time (PR 2's
///    LaneMetrics-style timing, taken per job) are speculatively re-executed
///    by the caller, MapReduce-style; first-claimer-wins via the pool's
///    per-lane ticket makes the race benign.
///  - resilient_parallel_merge / resilient_parallel_merge_sort /
///    resilient_parallel_multiway_merge: fault-aware entry points sharing
///    the exact partition math and lane bodies of the plain algorithms.
///    The merge-sort variant recovers per phase (block sorts, each flattened
///    round, copy-back); its copy-back copies instead of moving so a
///    re-executed lane re-reads intact sources (resilient entry points
///    require copyable T).
///
/// Injected lane faults fire *before* a lane's task runs (see
/// fault::LaneFault), so even the in-place block sorts are safe to retry:
/// a faulted lane never started mutating its block.
///
/// Counters: each recovery publishes pool.lane_faults / pool.retries /
/// pool.hedges / pool.fallbacks into the MetricsRegistry (cold path), and
/// brackets itself in a pool.recover span — see docs/OBSERVABILITY.md.
///
/// Under MP_FAULT=0 nothing here is dead weight: the engine still provides
/// hedging and typed reports; there are simply no injected faults to
/// recover from.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <span>
#include <thread>
#include <vector>

#include "core/merge_sort.hpp"
#include "core/multiway_merge.hpp"
#include "core/parallel_merge.hpp"
#include "fault/fault.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
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

/// What a recovered job (or a multi-phase resilient algorithm) went
/// through. All counts accumulate across phases.
struct RecoveryReport {
  unsigned lanes = 0;            ///< lane executions submitted (all phases)
  unsigned injected_faults = 0;  ///< lanes whose schedule drew a fault
  unsigned retried_lanes = 0;    ///< lane re-submissions to the pool
  unsigned hedges = 0;           ///< lanes completed by the straggler hedge
  unsigned fallback_lanes = 0;   ///< lanes finished sequentially on the caller
  unsigned attempts = 0;         ///< pool submissions (>= 1 per phase)

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

/// Runs task(lane) for every lane in [0, lanes) to completion, surviving
/// injected lane faults: failed lanes are re-submitted (smaller jobs, fresh
/// schedule positions) up to cfg.retry.max_attempts total submissions, then
/// finished sequentially on the caller. Rethrows the first genuine (non-
/// injected) task exception. The task must tolerate re-execution of a lane
/// whose previous attempt never ran its body — which injected faults
/// guarantee by firing pre-task.
inline RecoveryReport run_lanes_with_recovery(
    ThreadPool& pool, unsigned lanes,
    const std::function<void(unsigned)>& task, const RecoveryConfig& cfg = {}) {
  RecoveryReport report;
  report.lanes = lanes;
  if (lanes == 0) return report;
  obs::Span recover_span("pool.recover", "lanes", lanes);

  // Fold one submission's outcomes into the report and the failed-lane
  // worklist, mapping sub-job indices back to absolute lane ids. Genuine
  // task exceptions (no injected fault on that lane) propagate immediately.
  std::vector<unsigned> failed;
  const auto harvest = [&](const LaneReport& sub,
                           const std::vector<unsigned>* map) {
    report.injected_faults += sub.injected_faults;
    report.hedges += sub.hedges;
    failed.clear();
    for (std::size_t i = 0; i < sub.lanes.size(); ++i) {
      const LaneOutcome& outcome = sub.lanes[i];
      if (outcome.status == LaneStatus::kOk) continue;
      if (outcome.status == LaneStatus::kThrew &&
          outcome.injected == fault::FaultKind::kNone && outcome.error)
        std::rethrow_exception(outcome.error);
      failed.push_back(map ? (*map)[i] : static_cast<unsigned>(i));
    }
  };

  ++report.attempts;
  harvest(pool.try_parallel_for_lanes(lanes, task, cfg.hedge), nullptr);

  const unsigned budget = std::max(1u, cfg.retry.max_attempts);
  double backoff_us = cfg.retry.backoff_us;
  while (!failed.empty() && report.attempts < budget) {
    if (backoff_us > 0.0) {
      // Pay the configured backoff before re-submitting, doubling per
      // retry like the extmem layer — except this one is real time.
      // Jitter (when configured and a plan is attached) is drawn from the
      // plan's independent jitter stream, so concurrent recoveries armed
      // with the same schedule don't re-submit in lockstep and the
      // decision stream / schedule_hash stay untouched.
      double wait = backoff_us;
      if (cfg.retry.jitter > 0.0) {
        if (fault::FaultPlan* plan = pool.fault_plan())
          wait *= 1.0 - cfg.retry.jitter * plan->jitter01();
      }
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::micro>(wait));
      backoff_us *= 2.0;
    }
    // Re-submit only the failed lanes' disjoint segments as one smaller
    // job. Retries draw fresh schedule positions, so a lane can be hit
    // again; the attempt budget keeps that finite.
    const std::vector<unsigned> current = failed;
    report.retried_lanes += static_cast<unsigned>(current.size());
    ++report.attempts;
    const std::function<void(unsigned)> sub = [&](unsigned i) {
      task(current[i]);
    };
    harvest(pool.try_parallel_for_lanes(
                static_cast<unsigned>(current.size()), sub, cfg.hedge),
            &current);
  }

  // Budget exhausted: treat the pool as degraded and finish the remaining
  // segments sequentially on the caller, outside the pool — no workers
  // needed, no injection points in the way. Disjoint outputs make the
  // partial re-merge byte-equivalent to a clean run.
  if (!failed.empty()) obs::flight_report_degraded("pool.fallback");
  for (const unsigned lane : failed) {
    obs::Span::instant("pool.fallback", "lane", lane);
    ++report.fallback_lanes;
    task(lane);
  }

  if (report.injected_faults || report.retried_lanes || report.hedges ||
      report.fallback_lanes) {
    auto& registry = obs::MetricsRegistry::instance();
    if (report.injected_faults)
      registry.counter("pool.lane_faults").add(report.injected_faults);
    if (report.retried_lanes)
      registry.counter("pool.retries").add(report.retried_lanes);
    if (report.hedges) registry.counter("pool.hedges").add(report.hedges);
    if (report.fallback_lanes)
      registry.counter("pool.fallbacks").add(report.fallback_lanes);
  }
  return report;
}

/// Fault-aware Algorithm 1: parallel_merge's exact partition math and lane
/// body, driven through the recovery engine. Output is byte-identical to
/// the plain merge whatever the fault schedule injects (or an exception
/// surfaces — never silent corruption).
template <typename IterA, typename IterB, typename OutIter,
          typename Comp = std::less<>>
RecoveryReport resilient_parallel_merge(IterA a, std::size_t m, IterB b,
                                        std::size_t n, OutIter out,
                                        Executor exec = {}, Comp comp = {},
                                        const RecoveryConfig& cfg = {}) {
  const unsigned lanes = exec.resolve_threads();
  obs::Span merge_span("merge", "n", m + n);
  if (lanes == 1 || m + n <= lanes) {
    RecoveryReport report;
    report.lanes = 1;
    sequential_merge(a, m, b, n, out, comp);
    return report;
  }
  return run_lanes_with_recovery(
      exec.resolve_pool(), lanes,
      [&](unsigned lane) {
        MergeSlice slice;
        {
          obs::Span span("merge.partition", "lane", lane);
          slice = merge_slice_for_lane(a, m, b, n, lane, lanes, comp);
        }
        obs::Span span("merge.segment", "lane", lane);
        std::size_t i = slice.a_begin;
        std::size_t j = slice.b_begin;
        // Same dispatched kernel as the plain merge: a recovered run stays
        // byte-identical to a clean one whichever kernel is selected.
        kernels::merge_steps_auto(
            a, m, b, n, &i, &j,
            out + static_cast<std::ptrdiff_t>(slice.out_begin), slice.steps,
            comp);
      },
      cfg);
}

/// Convenience vector front-end of the resilient merge.
template <typename T, typename Comp = std::less<>>
std::vector<T> resilient_parallel_merge(const std::vector<T>& a,
                                        const std::vector<T>& b,
                                        Executor exec = {}, Comp comp = {},
                                        const RecoveryConfig& cfg = {}) {
  std::vector<T> out(a.size() + b.size());
  resilient_parallel_merge(a.data(), a.size(), b.data(), b.size(), out.data(),
                           exec, comp, cfg);
  return out;
}

/// Fault-aware Section III sort: every phase (block sorts, each flattened
/// merge round, copy-back) runs under the recovery engine, so a fault in
/// one phase is healed before the next begins. Block sorts are in-place
/// but safe to retry because injected faults fire pre-task and the hedge
/// ticket admits at most one execution; rounds and copy-back are disjoint
/// src->dst and hence idempotent. Requires copyable T.
template <typename T, typename Comp = std::less<>>
RecoveryReport resilient_parallel_merge_sort(T* data, std::size_t n,
                                             Executor exec = {},
                                             Comp comp = {},
                                             const RecoveryConfig& cfg = {}) {
  RecoveryReport report;
  const unsigned lanes = exec.resolve_threads();
  if (n <= 1) return report;
  obs::Span sort_span("sort", "n", n);
  std::vector<T> scratch(n);
  if (lanes == 1 || n <= lanes * detail::kInsertionSortThreshold) {
    report.lanes = 1;
    sequential_merge_sort(data, scratch.data(), n, comp);
    return report;
  }
  ThreadPool& pool = exec.resolve_pool();

  // Phase 1: p block sorts.
  std::vector<Run> runs(lanes);
  report.absorb(run_lanes_with_recovery(
      pool, lanes,
      [&](unsigned lane) {
        obs::Span span("sort.block", "lane", lane);
        const std::size_t begin = lane * n / lanes;
        const std::size_t end = (lane + 1ull) * n / lanes;
        runs[lane] = Run{begin, end};
        sequential_merge_sort(data + begin, scratch.data() + begin,
                              end - begin, comp);
      },
      cfg));

  // Phase 2: flattened merge rounds through the shared round engine, one
  // recovery scope per round.
  T* src = data;
  T* dst = scratch.data();
  std::uint64_t round = 0;
  while (runs.size() > 1) {
    obs::Span::counter("sort.round_index", round++);
    runs = detail::merge_round_impl(
        src, dst, runs, lanes, comp, std::span<NoInstrument>{},
        [&](unsigned l, const std::function<void(unsigned)>& fn) {
          report.absorb(run_lanes_with_recovery(pool, l, fn, cfg));
        });
    std::swap(src, dst);
  }
  if (src != data) {
    report.absorb(run_lanes_with_recovery(
        pool, lanes,
        [&](unsigned lane) {
          obs::Span span("sort.copyback", "lane", lane);
          const std::size_t begin = lane * n / lanes;
          const std::size_t end = (lane + 1ull) * n / lanes;
          // Copy (not move): a re-executed lane must find its source
          // intact.
          for (std::size_t i = begin; i < end; ++i) data[i] = src[i];
        },
        cfg));
  }
  return report;
}

/// Span front-end of the resilient sort.
template <typename T, typename Comp = std::less<>>
RecoveryReport resilient_parallel_merge_sort(std::span<T> data,
                                             Executor exec = {},
                                             Comp comp = {},
                                             const RecoveryConfig& cfg = {}) {
  return resilient_parallel_merge_sort(data.data(), data.size(), exec, comp,
                                       cfg);
}

/// Fault-aware k-way merge: parallel_multiway_merge's lane body (rank
/// slice, multiway selection, multiway_merge) under the recovery engine. Lanes
/// read const runs and write disjoint [r0, r1) output spans — the Theorem
/// 14 argument generalised to k inputs.
template <typename T, typename Comp = std::less<>>
RecoveryReport resilient_parallel_multiway_merge(
    std::span<const std::span<const T>> runs, T* out, Executor exec = {},
    Comp comp = {}, const RecoveryConfig& cfg = {}) {
  RecoveryReport report;
  std::size_t total = 0;
  for (const auto& r : runs) total += r.size();
  if (total == 0) return report;
  const unsigned lanes = exec.resolve_threads();
  obs::Span mwm_span("mwm", "n", total);
  return run_lanes_with_recovery(
      exec.resolve_pool(), lanes,
      [&, total](unsigned lane) {
        detail::multiway_merge_lane(runs, total, lanes, lane, out, comp,
                                    static_cast<NoInstrument*>(nullptr));
      },
      cfg);
}

}  // namespace mp

#include "util/recovery.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mp {

RecoveryReport run_lanes_with_recovery(
    ThreadPool& pool, unsigned lanes,
    const std::function<void(unsigned)>& task, const RecoveryConfig& cfg) {
  RecoveryReport report;
  report.lanes = lanes;
  if (lanes == 0) return report;
  obs::Span recover_span("pool.recover", "lanes", lanes);

  // Fold one submission's outcomes into the report and the failed-lane
  // worklist, mapping sub-job indices back to absolute lane ids. A lane
  // that threw counts as an injected fault only when the schedule made it
  // throw; any other thrown lane (including one that was merely delayed
  // and then ran its task) is a genuine exception and propagates now.
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
          outcome.injected != fault::FaultKind::kLaneThrow && outcome.error)
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

void Executor::run_lanes(unsigned lanes,
                         const std::function<void(unsigned)>& fn) const {
  if (recovery == nullptr) {
    resolve_pool().parallel_for_lanes(lanes, fn);
    return;
  }
  recovery->report.absorb(
      run_lanes_with_recovery(resolve_pool(), lanes, fn, recovery->config));
}

}  // namespace mp

#pragma once
/// \file threading.hpp
/// Fork-join execution used by all parallel algorithms in this repository.
///
/// The paper's algorithms are pure fork-join: partition, run p independent
/// lanes, barrier (Algorithm 1's trailing "Barrier"). We provide a reusable
/// pool of blocking workers rather than spawning std::thread per call —
/// correctness tests run thousands of small parallel merges at thread counts
/// far above the host's core count, and spawn cost would dominate.
///
/// Exceptions thrown by a lane are captured and rethrown on the calling
/// thread after every lane has finished, so a failing comparator cannot
/// leave the pool wedged.
///
/// Fault tolerance (src/fault): a fault::FaultPlan attached via
/// set_fault_plan() (or the RAII fault::ScopedInjector) gives every lane a
/// seeded chance to throw, be abandoned, or stall before its task runs —
/// the compute-fault surface mirroring the extmem/dist injectors. The
/// try_parallel_for_lanes() entry point reports per-lane outcomes in a
/// LaneReport instead of throwing, completes the barrier no matter what
/// the lanes did, and (optionally) hedges stragglers: a lane whose
/// elapsed time exceeds HedgePolicy::factor x the median completed lane
/// wall-time, and whose task has not started yet, is re-claimed and run by
/// a dedicated hedger thread — MapReduce-style speculative re-execution,
/// safe because exactly one thread ever runs a lane's task (a claim
/// "ticket" under the pool mutex) and lane output segments are disjoint
/// (Theorem 14). parallel_for_lanes is the same job path plus a rethrow;
/// under MP_FAULT=0 the injection points do not exist at all.

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

namespace mp::fault {
// Forward declarations (fault/fault.hpp): the pool only stores a plan
// pointer and per-lane decisions; only threading.cpp needs the full types.
enum class FaultKind : std::uint8_t;
class FaultPlan;
}  // namespace mp::fault

namespace mp {

/// What ultimately happened to one lane of a try_parallel_for_lanes job.
enum class LaneStatus : std::uint8_t {
  kOk,         ///< task ran to completion (possibly by the hedger)
  kThrew,      ///< task (or the injector) threw; error holds the exception
  kAbandoned,  ///< injected dead worker: the task never ran
};

const char* to_string(LaneStatus status);

/// Per-lane record of a try_parallel_for_lanes job.
struct LaneOutcome {
  LaneStatus status = LaneStatus::kOk;
  bool hedged = false;  ///< task was run by the pool's hedger thread
  /// Injected fault decided for this lane (kNone when the schedule spared
  /// it — a kThrew lane with kNone means the task itself threw).
  fault::FaultKind injected = {};
  std::exception_ptr error;    ///< set when status == kThrew
  std::uint64_t wall_ns = 0;   ///< lane wall time incl. any injected stall
};

/// What a whole fork-join job did, lane by lane. The barrier always
/// completes; failures are data, not control flow.
struct LaneReport {
  std::vector<LaneOutcome> lanes;
  unsigned failures = 0;        ///< lanes with status != kOk
  unsigned injected_faults = 0; ///< lanes whose schedule drew a fault
  unsigned hedges = 0;          ///< lanes completed by the straggler hedge

  bool all_ok() const { return failures == 0; }
  /// First failed lane's exception; synthesizes a fault::LaneFault for
  /// abandoned lanes (which have no exception of their own). Null when
  /// all_ok().
  std::exception_ptr first_error() const;
};

/// Straggler-hedging knobs for try_parallel_for_lanes. Disabled by
/// default: hedging pays a periodic wakeup of a dedicated hedger thread
/// (spawned lazily, one per pool), so it is opt-in (the recovery layer and
/// benches turn it on). Because the scan runs off the caller's thread, a
/// stall on the caller's own claimed lane is hedgeable too — including on
/// a 0-worker pool, where lanes run inline on the caller.
struct HedgePolicy {
  bool enabled = false;
  /// Hedge a lane once its elapsed time exceeds `factor` x the median
  /// wall-time of the job's already-completed lanes.
  double factor = 4.0;
  /// Never hedge before this much elapsed time (guards tiny jobs where
  /// the median is noise).
  double min_lane_us = 200.0;
  /// Hedger wakeup period while a hedge-enabled job is outstanding.
  double check_interval_us = 100.0;
};

/// Fixed-size pool of worker threads executing fork-join lane tasks.
///
/// Thread-safety: any thread may call parallel_for_lanes and
/// try_parallel_for_lanes at any time.
///  - A call made while the calling thread is running a lane of this pool
///    (on the caller, a worker or the hedger thread) is nested: it runs its
///    lanes inline, in lane order, draws no fault decisions (the enclosing
///    lane drew one) and is never hedged. Its exceptions propagate into the
///    enclosing lane.
///  - Any other call made while a job is in flight waits until the pool is
///    free, then runs normally. The pool runs one job at a time, so fault
///    schedules and hedging keep their per-job meaning.
/// A cycle across two pools can deadlock: a lane of pool A waiting on
/// pool B while a lane of B waits on A. set_fault_plan must not race a job.
class ThreadPool {
 public:
  /// Creates `workers` persistent worker threads. Negative means "use
  /// std::thread::hardware_concurrency() - 1" (the calling thread is the
  /// extra lane runner). Zero creates no workers: every lane then runs
  /// inline on the calling thread, in lane order — the deterministic mode
  /// the PRAM cost-model simulator relies on.
  explicit ThreadPool(int workers = -1);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (excluding the caller).
  unsigned workers() const;

  /// Runs task(lane) for every lane in [0, lanes). Lane 0 executes on the
  /// calling thread; remaining lanes are distributed over the workers (a
  /// worker runs multiple lanes when lanes > workers+1). Returns after all
  /// lanes complete; rethrows the lowest-indexed failing lane's exception
  /// (LaneReport::first_error), if any.
  void parallel_for_lanes(unsigned lanes,
                          const std::function<void(unsigned)>& task);

  /// Fault-tolerant variant: runs task(lane) for every lane, captures
  /// every outcome (including injected faults from an attached FaultPlan)
  /// and returns them instead of throwing. The barrier always completes —
  /// a throwing, abandoned or stalled lane can not wedge the pool. With
  /// `hedge.enabled`, the hedger thread speculatively re-executes lanes that
  /// straggle past factor x the median completed lane wall-time and whose
  /// task has not started (first-claimer-wins via a per-lane ticket).
  LaneReport try_parallel_for_lanes(unsigned lanes,
                                    const std::function<void(unsigned)>& task,
                                    const HedgePolicy& hedge = {});

  /// Attaches (or detaches, with nullptr) a compute-fault schedule: each
  /// subsequent job draws one decision per lane (OpClass::kLane) at fork
  /// time on the calling thread, so the schedule stays a pure function of
  /// the seed regardless of worker interleaving. Prefer the RAII
  /// fault::ScopedInjector over calling this directly. Must not be called
  /// while a job is in flight.
  void set_fault_plan(fault::FaultPlan* plan);
  fault::FaultPlan* fault_plan() const;

  /// Process-wide default pool, sized to the host, created on first use.
  /// Suitable for the public convenience entry points.
  static ThreadPool& shared();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

struct LaneRecovery;  // util/recovery.hpp

/// Execution context handed to the parallel algorithms: a pool, the
/// number of lanes ("p" in the paper) to use, and how those lanes run.
struct Executor {
  ThreadPool* pool = nullptr;  ///< nullptr => ThreadPool::shared()
  unsigned threads = 0;        ///< 0 => workers()+1 of the pool
  /// Caller-owned recovery context (util/recovery.hpp). nullptr runs lanes
  /// plainly; otherwise every job runs under the lane-recovery engine and
  /// accumulates into recovery->report.
  LaneRecovery* recovery = nullptr;

  /// Resolved lane count, >= 1.
  unsigned resolve_threads() const;
  /// Pool to submit to (shared pool if unset).
  ThreadPool& resolve_pool() const;
  /// The one fork-join point of every algorithm: fn(lane) for each lane in
  /// [0, lanes). Without a recovery context this is exactly
  /// resolve_pool().parallel_for_lanes(lanes, fn); with one, it is
  /// run_lanes_with_recovery (defined in util/recovery.cpp).
  void run_lanes(unsigned lanes,
                 const std::function<void(unsigned)>& fn) const;
};

}  // namespace mp

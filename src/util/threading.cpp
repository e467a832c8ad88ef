#include "util/threading.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace mp {

const char* to_string(LaneStatus status) {
  switch (status) {
    case LaneStatus::kOk: return "ok";
    case LaneStatus::kThrew: return "threw";
    case LaneStatus::kAbandoned: return "abandoned";
  }
  return "?";
}

std::exception_ptr LaneReport::first_error() const {
  for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
    const LaneOutcome& outcome = lanes[lane];
    if (outcome.status == LaneStatus::kThrew) return outcome.error;
    if (outcome.status == LaneStatus::kAbandoned)
      return std::make_exception_ptr(fault::LaneFault(
          fault::FaultKind::kLaneAbandon, static_cast<unsigned>(lane)));
  }
  return nullptr;
}

struct ThreadPool::Impl {
  // Claim state of one lane. Written and read under `mutex`: the claimer
  // and the hedger thread both touch it.
  struct LaneSlot {
    bool started = false;  ///< a claimer reached this lane
    bool ticket = false;   ///< someone owns the right to run the task
    bool done = false;     ///< the lane's outcome is final
    std::uint64_t start_ns = 0;
  };

  // One fork-join job. It lives on the forking caller's stack; the pool
  // points at it while it is in flight, and the caller's barrier returns
  // only once no other thread can still touch it. Outcomes are written
  // under `mutex`, except each outcome's `injected` fault decision, which
  // the caller writes before the job is published.
  struct Job {
    Job(const std::function<void(unsigned)>& fn, unsigned n)
        : task(fn), lanes(n), lanes_remaining(n), slots(n) {
      report.lanes.resize(n);
    }

    bool quiescent() const {
      return lanes_remaining == 0 && workers_in == 0 && !hedger_running;
    }

    const std::function<void(unsigned)>& task;
    const unsigned lanes;
    const bool timed = obs::lane_metrics_armed();
    bool forked = false;  ///< workers may claim lanes
    HedgePolicy hedge{};
    std::chrono::microseconds delay{0};  ///< injected kLaneDelay stall
    std::atomic<unsigned> next_lane{0};
    unsigned lanes_remaining;
    unsigned workers_in = 0;
    bool hedger_running = false;  ///< the hedger is running a stolen lane
    std::vector<LaneSlot> slots;
    LaneReport report;
  };

  // The pool whose lane this thread is running, if any. A fork from inside
  // such a lane runs inline: the pool is busy with the enclosing job.
  static inline thread_local const Impl* lane_pool = nullptr;

  std::mutex mutex;
  std::condition_variable wake_workers;
  std::condition_variable job_done;
  std::condition_variable pool_free;  ///< `current` went back to nullptr
  // Wakes lanes sleeping off an injected kLaneDelay stall: the hedger
  // notifies after claiming a straggler's ticket so the cancelled sleeper
  // returns immediately instead of finishing its nap.
  std::condition_variable delay_cv;
  Job* current = nullptr;  ///< the job in flight
  std::uint64_t job_id = 0;  ///< bumped per forked job
  bool shutting_down = false;
  fault::FaultPlan* plan = nullptr;
  std::vector<std::thread> threads;

  // Dedicated hedger thread (spawned lazily on the first hedged job, one
  // per pool). Running the straggler scan off the caller's thread is what
  // lets a stall on the *caller's own* lane be hedged: the caller sleeps
  // in its lane's cancellable delay wait while the hedger claims the
  // ticket from outside.
  std::condition_variable wake_hedger;
  bool hedger_spawned = false;
  std::thread hedger_thread;

  bool hedging() const { return current != nullptr && current->hedge.enabled; }

  // Waits for the pool to be free, draws the job's fault schedule and
  // publishes the job to the workers and the hedger.
  void begin(Job& job, const HedgePolicy& hedge) {
    std::unique_lock lock(mutex);
    pool_free.wait(lock, [&] { return current == nullptr; });
    // Draw the whole job's fault schedule up front on the calling thread:
    // one decision per lane, in lane order. Concurrent claimers would
    // consult the (single-stream) plan in a nondeterministic order; drawing
    // at fork time keeps the schedule — and schedule_hash — a pure function
    // of the seed and the job sequence.
    if (plan != nullptr) {
      for (LaneOutcome& outcome : job.report.lanes)
        outcome.injected = plan->decide(fault::OpClass::kLane);
      job.delay = std::chrono::microseconds(
          static_cast<std::int64_t>(plan->config().lane_delay_us));
    }
    if (hedge.enabled && !hedger_spawned) {
      hedger_thread = std::thread([this] { hedger_main(); });
      hedger_spawned = true;
    }
    job.hedge = hedge;
    job.forked = job.lanes > 1 && !threads.empty();
    current = &job;
    if (job.forked) {
      ++job_id;
      wake_workers.notify_all();
    }
    if (hedge.enabled) wake_hedger.notify_one();
  }

  // Runs lane `lane` of `job` on this thread, with `decision` injected
  // instead of the task when it is a throw or an abandon.
  std::pair<LaneStatus, std::exception_ptr> run_task(
      const Job& job, unsigned lane, fault::FaultKind decision) {
    obs::Span span("pool.lane", "lane", lane);
    if (decision == fault::FaultKind::kLaneThrow) {
      obs::Span::instant("pool.lane_fault", "lane", lane);
      return {LaneStatus::kThrew,
              std::make_exception_ptr(fault::LaneFault(decision, lane))};
    }
    if (decision == fault::FaultKind::kLaneAbandon) {
      obs::Span::instant("pool.lane_fault", "lane", lane);
      return {LaneStatus::kAbandoned, nullptr};
    }
    const Impl* const outer = std::exchange(lane_pool, this);
    std::pair<LaneStatus, std::exception_ptr> result{LaneStatus::kOk,
                                                     nullptr};
    try {
      job.task(lane);
    } catch (...) {
      result = {LaneStatus::kThrew, std::current_exception()};
    }
    lane_pool = outer;
    return result;
  }

  // Must be called with `mutex` held.
  void finish_lane(Job& job, unsigned lane, LaneStatus status,
                   std::exception_ptr error) {
    LaneOutcome& outcome = job.report.lanes[lane];
    outcome.wall_ns = obs::monotonic_ns() - job.slots[lane].start_ns;
    outcome.status = status;
    outcome.error = std::move(error);
    job.slots[lane].done = true;
    if (job.timed)
      obs::LaneMetrics::instance().record_lane(lane, outcome.wall_ns);
  }

  // The one claim loop: the caller and every checked-in worker claim lane
  // indices from `next_lane` until the job is exhausted, so imbalanced
  // lanes do not idle the others, then report the lanes they completed.
  void run_lanes(Job& job) {
    unsigned completed = 0;
    for (;;) {
      const unsigned lane =
          job.next_lane.fetch_add(1, std::memory_order_relaxed);
      if (lane >= job.lanes) break;
      execute_lane(job, lane);
      ++completed;
    }
    if (completed == 0) return;
    std::lock_guard lock(mutex);
    job.lanes_remaining -= completed;
    if (job.quiescent()) job_done.notify_all();
  }

  // Runs (or injects into) one claimed lane. The claimer still owns the
  // lane's barrier accounting even when the hedger stole the task: the
  // ticket decides who *runs*, the claim decides who *reports*.
  void execute_lane(Job& job, unsigned lane) {
    const fault::FaultKind decision = job.report.lanes[lane].injected;
    {
      std::unique_lock lock(mutex);
      LaneSlot& slot = job.slots[lane];
      slot.started = true;
      slot.start_ns = obs::monotonic_ns();
      if (decision == fault::FaultKind::kLaneDelay && job.delay.count() > 0) {
        // Injected straggler: a real stall, but cancellable — the hedger
        // claims the ticket and notifies, so the barrier never waits out
        // the full nap once the work has been re-executed elsewhere.
        delay_cv.wait_for(lock, job.delay,
                          [&] { return slot.ticket || shutting_down; });
      }
      if (slot.ticket) return;  // hedged away: outcome recorded by the hedger
      slot.ticket = true;
    }
    auto [status, error] = run_task(job, lane, decision);
    std::lock_guard lock(mutex);
    finish_lane(job, lane, status, std::move(error));
  }

  void hedger_main() {
    std::unique_lock lock(mutex);
    for (;;) {
      wake_hedger.wait(lock, [&] { return shutting_down || hedging(); });
      if (shutting_down) return;
      const auto interval = std::chrono::microseconds(static_cast<
          std::int64_t>(std::max(1.0, current->hedge.check_interval_us)));
      wake_hedger.wait_for(lock, interval,
                           [&] { return shutting_down || !hedging(); });
      if (shutting_down) return;
      // Re-read the job after the sleep: the one we slept on may have
      // finished and another begun.
      if (!hedging()) continue;
      Job& job = *current;
      const int victim = find_straggler(job);
      if (victim < 0) continue;
      // Claim the straggler's ticket: from here exactly one thread (us)
      // will ever run its task, so speculative re-execution is safe for
      // in-place tasks too, not just disjoint-output merges. Wake the
      // sleeping claimer so the barrier is not held hostage by its nap.
      const auto lane = static_cast<unsigned>(victim);
      job.slots[lane].ticket = true;
      job.report.lanes[lane].hedged = true;
      job.hedger_running = true;  // the caller's barrier waits for this
      delay_cv.notify_all();
      lock.unlock();

      obs::Span::instant("pool.hedge", "lane", lane);
      auto [status, error] = run_task(job, lane, fault::FaultKind::kNone);
      lock.lock();
      finish_lane(job, lane, status, std::move(error));
      job.hedger_running = false;
      job_done.notify_all();
    }
  }

  // Straggler scan (holding `mutex`): a started lane whose ticket is
  // unclaimed and whose elapsed time exceeds the hedge threshold is a hedge
  // candidate. Returns the lane index or -1.
  static int find_straggler(const Job& job) {
    std::vector<std::uint64_t> walls;
    walls.reserve(job.lanes);
    for (unsigned lane = 0; lane < job.lanes; ++lane)
      if (job.slots[lane].done) walls.push_back(job.report.lanes[lane].wall_ns);
    std::uint64_t threshold_ns =
        static_cast<std::uint64_t>(job.hedge.min_lane_us * 1000.0);
    if (!walls.empty()) {
      const auto mid = walls.begin() + static_cast<std::ptrdiff_t>(
                                           walls.size() / 2);
      std::nth_element(walls.begin(), mid, walls.end());
      threshold_ns = std::max(
          threshold_ns,
          static_cast<std::uint64_t>(job.hedge.factor *
                                     static_cast<double>(*mid)));
    }
    const std::uint64_t now = obs::monotonic_ns();
    for (unsigned lane = 0; lane < job.lanes; ++lane) {
      const LaneSlot& slot = job.slots[lane];
      if (slot.started && !slot.ticket && now - slot.start_ns > threshold_ns)
        return static_cast<int>(lane);
    }
    return -1;
  }

  void worker_main() {
    std::uint64_t last_seen_job = 0;
    std::unique_lock lock(mutex);
    for (;;) {
      wake_workers.wait(lock, [&] {
        return shutting_down ||
               (current != nullptr && current->forked &&
                job_id != last_seen_job);
      });
      if (shutting_down) return;
      last_seen_job = job_id;
      Job& job = *current;
      // Check in: the caller's barrier must not return (and destroy the
      // job) while this worker can still claim lanes. Without this a worker
      // that picked up job N but lost the race for its lanes could survive
      // into job N+1 and claim a lane of job N's destroyed task.
      ++job.workers_in;
      lock.unlock();
      run_lanes(job);
      {
        // Check out. The time spent acquiring this lock is the per-worker
        // share of the fork-join teardown cost; it is timed (when lane
        // metrics are armed) and traced.
        obs::Span span("pool.checkout");
        const std::uint64_t t0 = job.timed ? obs::monotonic_ns() : 0;
        lock.lock();
        if (job.timed)
          obs::LaneMetrics::instance().record_checkout(
              obs::monotonic_ns() - t0);
        // ~Span pushes into this worker's trace ring HERE, while the pool
        // mutex is still held: the push must happen-before the caller
        // observes quiescence, or a trace_snapshot() taken right after
        // parallel_for_lanes returns races with it.
      }
      --job.workers_in;
      if (job.quiescent()) job_done.notify_all();
    }
  }
};

ThreadPool::ThreadPool(int workers) : impl_(std::make_unique<Impl>()) {
  unsigned count;
  if (workers < 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    count = hw > 1 ? hw - 1 : 0;
  } else {
    count = static_cast<unsigned>(workers);
  }
  impl_->threads.reserve(count);
  for (unsigned i = 0; i < count; ++i)
    impl_->threads.emplace_back([this] { impl_->worker_main(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(impl_->mutex);
    impl_->shutting_down = true;
  }
  impl_->wake_workers.notify_all();
  impl_->delay_cv.notify_all();
  impl_->wake_hedger.notify_all();
  for (auto& t : impl_->threads) t.join();
  if (impl_->hedger_spawned) impl_->hedger_thread.join();
}

unsigned ThreadPool::workers() const {
  return static_cast<unsigned>(impl_->threads.size());
}

void ThreadPool::set_fault_plan(fault::FaultPlan* plan) {
  std::lock_guard lock(impl_->mutex);
  MP_CHECK(impl_->current == nullptr);  // quiescent control plane
  impl_->plan = plan;
}

fault::FaultPlan* ThreadPool::fault_plan() const { return impl_->plan; }

void ThreadPool::parallel_for_lanes(
    unsigned lanes, const std::function<void(unsigned)>& task) {
  // Injected faults surface as fault::LaneFault, the task's own exception
  // otherwise — always the lowest-indexed failing lane's.
  if (auto error = try_parallel_for_lanes(lanes, task).first_error())
    std::rethrow_exception(error);
}

LaneReport ThreadPool::try_parallel_for_lanes(
    unsigned lanes, const std::function<void(unsigned)>& task,
    const HedgePolicy& hedge) {
  if (lanes == 0) return {};
  Impl& pool = *impl_;
  obs::Span job_span("pool.job", "lanes", lanes);
  Impl::Job job(task, lanes);
  if (job.timed) obs::LaneMetrics::instance().record_job(lanes);

  // A nested job runs its lanes inline on this thread, draws no fault
  // decisions (the enclosing lane already drew one) and is never hedged.
  const bool nested = Impl::lane_pool == &pool;
  if (!nested) pool.begin(job, hedge);

  // The caller claims lanes too, so lanes <= workers+1 all run
  // concurrently and excess lanes are work-shared. Unforked jobs run every
  // lane here, in lane order.
  pool.run_lanes(job);

  {
    // Caller-side barrier: how long the caller idles after its own lanes
    // are done is the join half of the fork-join overhead.
    std::optional<obs::Span> barrier_span;
    if (job.forked) barrier_span.emplace("pool.barrier", "lanes", lanes);
    const std::uint64_t b0 =
        job.forked && job.timed ? obs::monotonic_ns() : 0;
    std::unique_lock lock(pool.mutex);
    // Wait for every lane to finish, every checked-in worker to leave the
    // claim loop and the hedger to finish any stolen lane: a hedged lane's
    // claimer retires as soon as its ticket is stolen.
    pool.job_done.wait(lock, [&] { return job.quiescent(); });
    if (!nested) {
      pool.current = nullptr;
      pool.pool_free.notify_one();
      if (hedge.enabled) pool.wake_hedger.notify_one();
    }
    if (job.forked && job.timed)
      obs::LaneMetrics::instance().record_barrier_wait(
          obs::monotonic_ns() - b0);
  }

  LaneReport& report = job.report;
  for (const LaneOutcome& outcome : report.lanes) {
    if (outcome.status != LaneStatus::kOk) ++report.failures;
    if (outcome.injected != fault::FaultKind::kNone) ++report.injected_faults;
    if (outcome.hedged) ++report.hedges;
  }
  return std::move(report);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

unsigned Executor::resolve_threads() const {
  if (threads > 0) return threads;
  return resolve_pool().workers() + 1;
}

ThreadPool& Executor::resolve_pool() const {
  return pool ? *pool : ThreadPool::shared();
}

}  // namespace mp

#include "inmem.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <memory>
#include <string>

#include "check.hpp"
#include "core/merge_path.hpp"
#include "core/merge_sort.hpp"
#include "core/parallel_merge.hpp"
#include "kernels/kernels.hpp"
#include "util/threading.hpp"

namespace pb {

namespace {

constexpr std::uint32_t kZipfRanks = 1u << 16;
constexpr unsigned kZipfTableBits = 20;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
/// Iterations a 30-second run is designed to reach; fixes the `*_tail`
/// percentile.
constexpr std::size_t kTailSamples = 40;
constexpr int kForkJoinReps = 200;

/// Keeps timed pure calls from being optimised away.
volatile std::size_t g_sink = 0;

/// Inverse CDF of Zipf(s = 1) over kZipfRanks ranks, quantized to
/// 2^kZipfTableBits equiprobable cells: a table lookup per draw. Ranks map
/// to keys through an odd multiplier (a bijection on 32 bits) so heavy
/// keys are spread over the key range.
std::vector<std::int32_t> zipf_table() {
  double total = 0;
  for (std::uint32_t r = 1; r <= kZipfRanks; ++r) total += 1.0 / r;
  const std::size_t cells = std::size_t{1} << kZipfTableBits;
  std::vector<std::int32_t> table(cells);
  std::uint32_t rank = 1;
  double cdf = 1.0 / total;
  for (std::size_t j = 0; j < cells; ++j) {
    const double u = (static_cast<double>(j) + 0.5) / static_cast<double>(cells);
    while (cdf < u && rank < kZipfRanks) cdf += 1.0 / (++rank * total);
    table[j] = static_cast<std::int32_t>(rank * 0x9E3779B1u);
  }
  return table;
}

std::vector<std::int32_t> sorted_run(Rng rng, std::size_t n) {
  // Cumulative increments keep the run sorted without sorting it; the step
  // bound keeps the largest value inside int32.
  const auto step = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(256, (std::uint64_t{1} << 32) / (n + 1)));
  std::vector<std::int32_t> run(n);
  std::int64_t v = INT32_MIN;
  for (auto& x : run) {
    v += rng.below(step);
    x = static_cast<std::int32_t>(v);
  }
  return run;
}

/// Everything a timed iteration touches, built by one set-up.
struct State {
  InmemInputs in;
  std::vector<std::int32_t> work_i32;
  std::vector<Rec> work_rec;
  std::vector<std::int32_t> out;
  std::unique_ptr<mp::ThreadPool> pool;
  mp::Executor exec;
};

void sort_i32(State& s) {
  mp::parallel_merge_sort(s.work_i32.data(), s.work_i32.size(), s.exec);
}
void sort_rec(State& s) {
  mp::parallel_merge_sort(s.work_rec.data(), s.work_rec.size(), s.exec,
                          KeyLess{});
}
void merge(State& s) {
  mp::parallel_merge(s.in.a.data(), s.in.a.size(), s.in.b.data(),
                     s.in.b.size(), s.out.data(), s.exec);
}

/// Runs fn(begin, end) for every lane's slice of [0, n) on the pool. The
/// untimed copies and checks between operations run this way so that every
/// lane's CPU is still busy when the next timed operation forks: on a
/// virtual machine an idle CPU can take milliseconds to wake, which would
/// otherwise enter every timing as host noise.
template <typename Fn>
void on_lanes(const State& s, std::size_t n, Fn&& fn) {
  const unsigned p = s.exec.threads;
  s.pool->parallel_for_lanes(
      p, [&](unsigned lane) { fn(lane * n / p, (lane + 1ull) * n / p); });
}

/// Refills the work buffers from the inputs and poisons the merge output,
/// so that an operation which does nothing cannot pass its check.
void refill(State& s) {
  on_lanes(s, s.in.i32.size(), [&](std::size_t b, std::size_t e) {
    std::memcpy(&s.work_i32[b], &s.in.i32[b], (e - b) * sizeof(std::int32_t));
  });
  on_lanes(s, s.in.rec.size(), [&](std::size_t b, std::size_t e) {
    std::memcpy(&s.work_rec[b], &s.in.rec[b], (e - b) * sizeof(Rec));
  });
  on_lanes(s, s.out.size(), [&](std::size_t b, std::size_t e) {
    std::memset(&s.out[b], 0xA5, (e - b) * sizeof(std::int32_t));
  });
}

/// One set-up: inputs, buffers, pool, and one untimed pass of each
/// operation so lazy initialisation and first-touch faults are paid here.
std::unique_ptr<State> set_up(std::uint64_t seed, const InmemSizes& sizes,
                              unsigned lanes) {
  auto s = std::make_unique<State>();
  s->in = make_inmem_inputs(seed, sizes);
  s->work_i32.resize(sizes.i32);
  s->work_rec.resize(sizes.rec);
  s->out.resize(2 * sizes.half);
  s->pool = std::make_unique<mp::ThreadPool>(static_cast<int>(lanes) - 1);
  s->exec = mp::Executor{s->pool.get(), lanes};
  refill(*s);
  sort_i32(*s);
  sort_rec(*s);
  merge(*s);
  return s;
}

struct References {
  std::vector<std::int32_t> i32;
  std::vector<Rec> rec;
  std::vector<std::int32_t> merged;
  double std_sort_ms = 0;
  double stable_sort_ms = 0;
};

References make_references(const InmemInputs& in) {
  References ref;
  ref.i32 = in.i32;
  double t = now_s();
  std::sort(ref.i32.begin(), ref.i32.end());
  ref.std_sort_ms = (now_s() - t) * 1e3;
  ref.rec = in.rec;
  t = now_s();
  std::stable_sort(ref.rec.begin(), ref.rec.end(), KeyLess{});
  ref.stable_sort_ms = (now_s() - t) * 1e3;
  ref.merged.resize(in.a.size() + in.b.size());
  std::merge(in.a.begin(), in.a.end(), in.b.begin(), in.b.end(),
             ref.merged.begin());
  return ref;
}

template <typename Fn>
double time_ms(Fn&& fn) {
  const double t = now_s();
  fn();
  return (now_s() - t) * 1e3;
}

/// One checked operation: `got` must equal `want` byte for byte.
template <typename T>
void check(Result& result, const State& s, const std::vector<T>& got,
           const std::vector<T>& want, const char* what) {
  result.attempt();
  std::atomic<bool> same{true};
  on_lanes(s, want.size(), [&](std::size_t b, std::size_t e) {
    if (std::memcmp(&got[b], &want[b], (e - b) * sizeof(T)) != 0)
      same.store(false, std::memory_order_relaxed);
  });
  if (!same) result.fail(compare_bytes(got.data(), want.data(), want.size(), what));
}

/// Replays one parallel_merge_sort phase by phase on `work` (which holds
/// the unsorted input) and appends each phase's time to `acc`.
struct PhaseSamples {
  std::vector<double> e2e, block, block_phase, partition, busy;
  std::vector<std::vector<double>> rounds;
};

template <typename T, typename Comp>
void split_sort(T* work, T* scratch, T* side, std::size_t n,
                const mp::Executor& exec, Comp comp, PhaseSamples& acc) {
  const unsigned p = exec.resolve_threads();
  std::vector<mp::Run> runs(p);
  for (unsigned lane = 0; lane < p; ++lane)
    runs[lane] = mp::Run{lane * n / p, (lane + 1ull) * n / p};

  // Block 0 sorted alone (the other lanes idle), on a private copy.
  const std::size_t b0 = runs[0].size();
  std::memcpy(side, work, b0 * sizeof(T));
  acc.block.push_back(time_ms([&] {
    mp::sequential_merge_sort(side, side + b0, b0, comp);
  }));
  acc.block_phase.push_back(time_ms([&] {
    exec.resolve_pool().parallel_for_lanes(p, [&](unsigned lane) {
      const mp::Run r = runs[lane];
      mp::sequential_merge_sort(work + r.begin, scratch + r.begin, r.size(),
                                comp);
    });
  }));
  T* src = work;
  T* dst = scratch;
  for (std::size_t k = 0; runs.size() > 1; ++k) {
    if (runs.size() == 2) {
      // The last round's splitters: p-1 diagonal searches on its one pair.
      const mp::Run a = runs[0];
      const mp::Run b = runs[1];
      std::size_t sink = 0;
      const double us = time_ms([&] {
        for (unsigned lane = 1; lane < p; ++lane)
          sink += mp::path_point_on_diagonal(src + a.begin, a.size(),
                                             src + b.begin, b.size(),
                                             lane * n / p, comp)
                      .i;
      }) * 1e3;
      acc.partition.push_back(us);
      g_sink = sink;
    }
    if (acc.rounds.size() <= k) acc.rounds.emplace_back();
    std::vector<mp::Run> next;
    acc.rounds[k].push_back(time_ms([&] {
      next = mp::merge_round_balanced(src, dst, runs, exec, comp);
    }));
    runs = std::move(next);
    std::swap(src, dst);
  }
  if (src != work) std::memcpy(work, src, n * sizeof(T));
}

SortLayers summarize(const PhaseSamples& s) {
  SortLayers out;
  out.e2e_ms = median(s.e2e);
  out.e2e_iqr_ms = iqr(s.e2e);
  out.block_ms = median(s.block);
  out.block_phase_ms = median(s.block_phase);
  out.partition_us = median(s.partition);
  out.lane_busy_frac = median(s.busy);
  out.residual_ms = out.e2e_ms - out.block_phase_ms;
  for (const auto& r : s.rounds) {
    out.round_ms.push_back(median(r));
    out.residual_ms -= out.round_ms.back();
  }
  return out;
}

void emit_layers(Result& result, const std::string& tag, const SortLayers& l) {
  result.metric("core.block_ms." + tag, l.block_ms, "ms");
  result.metric("core.block_phase_ms." + tag, l.block_phase_ms, "ms");
  for (std::size_t k = 0; k < l.round_ms.size(); ++k)
    result.metric("core.round_ms." + tag + "." + std::to_string(k),
                  l.round_ms[k], "ms");
  result.metric("core.partition_us." + tag, l.partition_us, "us");
  result.metric("core.residual_ms." + tag, l.residual_ms, "ms");
  result.metric("core.lane_busy_frac." + tag, l.lane_busy_frac, "fraction");
}

}  // namespace

InmemInputs make_inmem_inputs(std::uint64_t seed, const InmemSizes& sizes) {
  InmemInputs in;
  Rng r1 = stream(seed, 1);
  in.i32.resize(sizes.i32);
  for (auto& v : in.i32) v = static_cast<std::int32_t>(r1.next() >> 32);

  const std::vector<std::int32_t> zipf = zipf_table();
  Rng r2 = stream(seed, 2);
  in.rec.resize(sizes.rec);
  for (std::size_t i = 0; i < sizes.rec; ++i)
    in.rec[i] = Rec{zipf[r2.next() >> (64 - kZipfTableBits)],
                    static_cast<std::uint32_t>(i)};

  in.a = sorted_run(stream(seed, 3), sizes.half);
  in.b = sorted_run(stream(seed, 4), sizes.half);
  return in;
}

void run_inmem(const Args& args, Result& result, const InmemSizes& sizes,
               InmemTrace* trace_out) {
  const unsigned lanes = nproc();
  result.meta("lanes", lanes);

  EndToEnd e2e;
  std::unique_ptr<State> s;
  // A traced run reports no set-up time and sets up once.
  for (int k = 0; k < (args.trace ? 1 : kSetups); ++k) {
    s.reset();
    s = timed_setup(e2e, [&] { return set_up(args.seed, sizes, lanes); });
  }
  const References ref = make_references(s->in);
  result.meta("host.std_sort_ms", ref.std_sort_ms);
  result.meta("host.stable_sort_ms", ref.stable_sort_ms);

  const StealMeter steal;
  unsigned max_threads = thread_count();
  const double deadline = now_s() + args.seconds;

  if (!args.trace) {
    // One operation is an iteration of the three: times add up over them,
    // and the refills and checks between them are not timed.
    std::vector<double> i32_ms, rec_ms, merge_ms, i32_cpu, rec_cpu, merge_cpu;
    struct Sum {
      double cpu = 0, busiest = 0, wall = 0;
    };
    const auto timed = [](Sum& sum, std::vector<double>& wall,
                          std::vector<double>& cpu, auto&& op) {
      const ThreadCpu threads;
      const double c = cpu_s();
      wall.push_back(time_ms(op));
      cpu.push_back((cpu_s() - c) * 1e3);
      sum.busiest += threads.busiest_ms();
      sum.cpu += cpu.back();
      sum.wall += wall.back();
    };
    while (now_s() < deadline) {
      refill(*s);
      reset_peak_rss();
      Sum sum;
      timed(sum, i32_ms, i32_cpu, [&] { sort_i32(*s); });
      check(result, *s, s->work_i32, ref.i32, "i32 sort");
      timed(sum, rec_ms, rec_cpu, [&] { sort_rec(*s); });
      check(result, *s, s->work_rec, ref.rec, "records sort");
      timed(sum, merge_ms, merge_cpu, [&] { merge(*s); });
      check(result, *s, s->out, ref.merged, "merge");
      e2e.peak_rss_mib.push_back(peak_rss_mib());
      e2e.cpu_ms.push_back(sum.cpu);
      e2e.busiest_ms.push_back(sum.busiest);
      e2e.wall_ms.push_back(sum.wall);
      max_threads = std::max(max_threads, thread_count());
    }
    e2e.tail_samples = kTailSamples;
    report(result, e2e);
    result.meta("i32_sort_ms_p50", median(i32_ms));
    result.meta("rec_sort_ms_p50", median(rec_ms));
    result.meta("merge_ms_p50", median(merge_ms));
    result.meta("i32_sort_cpu_ms_p50", median(i32_cpu));
    result.meta("rec_sort_cpu_ms_p50", median(rec_cpu));
    result.meta("merge_cpu_ms_p50", median(merge_cpu));
  } else {
    // Layer split: every iteration times the whole sort once, then replays
    // it phase by phase, so both see the same host conditions.
    PhaseSamples pi32, prec;
    std::vector<double> merge_ns, forkjoin_us;
    // side_* holds one block and its scratch.
    std::vector<std::int32_t> scratch_i32(sizes.i32),
        side_i32(2 * (sizes.i32 / lanes + 1));
    std::vector<Rec> scratch_rec(sizes.rec), side_rec(2 * (sizes.rec / lanes + 1));
    const auto busy = [&](auto&& op) {
      const double c = cpu_s();
      const double t = now_s();
      op();
      const double wall = now_s() - t;
      return std::pair((cpu_s() - c) / (lanes * wall), wall * 1e3);
    };
    while (now_s() < deadline) {
      refill(*s);
      auto [bi, ti] = busy([&] { sort_i32(*s); });
      pi32.busy.push_back(bi);
      pi32.e2e.push_back(ti);
      check(result, *s, s->work_i32, ref.i32, "i32 sort");
      auto [br, tr] = busy([&] { sort_rec(*s); });
      prec.busy.push_back(br);
      prec.e2e.push_back(tr);
      check(result, *s, s->work_rec, ref.rec, "records sort");

      refill(*s);
      split_sort(s->work_i32.data(), scratch_i32.data(), side_i32.data(),
                 sizes.i32, s->exec, std::less<>{}, pi32);
      check(result, *s, s->work_i32, ref.i32, "i32 phase replay");
      split_sort(s->work_rec.data(), scratch_rec.data(), side_rec.data(),
                 sizes.rec, s->exec, KeyLess{}, prec);
      check(result, *s, s->work_rec, ref.rec, "records phase replay");

      std::size_t i = 0, j = 0;
      const double ms = time_ms([&] {
        mp::kernels::merge_steps_auto(s->in.a.data(), s->in.a.size(),
                                      s->in.b.data(), s->in.b.size(), &i, &j,
                                      s->out.data(), s->out.size());
      });
      merge_ns.push_back(ms * 1e6 / static_cast<double>(s->out.size()));
      check(result, *s, s->out, ref.merged, "one-lane merge");

      const double fj = time_ms([&] {
        for (int r = 0; r < kForkJoinReps; ++r)
          s->exec.resolve_pool().parallel_for_lanes(lanes, [](unsigned) {});
      });
      forkjoin_us.push_back(fj * 1e3 / kForkJoinReps);
      max_threads = std::max(max_threads, thread_count());
    }
    InmemTrace trace;
    trace.i32 = summarize(pi32);
    trace.rec = summarize(prec);
    trace.merge_ns_per_elem = median(merge_ns);
    trace.forkjoin_us = median(forkjoin_us);
    result.metric("kernels.merge_ns_per_elem", trace.merge_ns_per_elem,
                  "ns");
    emit_layers(result, "i32", trace.i32);
    emit_layers(result, "rec", trace.rec);
    result.metric("threading.forkjoin_us", trace.forkjoin_us, "us");
    result.metric("host.std_sort_ms", ref.std_sort_ms, "ms");
    result.metric("host.stable_sort_ms", ref.stable_sort_ms, "ms");
    result.meta("samples", static_cast<double>(pi32.e2e.size()));
    if (trace_out) *trace_out = trace;
  }
  result.meta("max_threads", max_threads);
  result.meta("host_steal_frac", steal.steal_frac());
}

}  // namespace pb

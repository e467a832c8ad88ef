// Experiment E7 (balance half) — the Section V load-balance comparison:
//
//   "[Shiloach-Vishkin] does not feature perfect load balancing; ... a
//    processor may be assigned as many as 2N/p elements. ... such a load
//    imbalance can cause a 2X increase in latency!"
//
// For each partitioning scheme the harness reports max-assigned /
// mean-assigned across processors (1.00 = perfect) on several input
// shapes, plus the dependent-round count of the partition stage (Merge
// Path and Deo-Sarkar: 1 independent round; Akl-Santoro: log p dependent
// rounds).
//
// Flags: --elements N (per array, default 1Mi), --threads N (default 8),
//        --csv, --seed.
//
// Fault/recovery half (E7b): with --fault-rate R > 0 the harness also
// measures what lane-level recovery costs — the same merge and merge sort
// run clean on a dedicated pool and again with a seeded lane-fault
// schedule attached (--fault-seed), straggler hedging armed, and injected
// stalls of --straggler-delay microseconds. The overhead column is the
// honest price of surviving the schedule; outputs are verified identical
// to the clean run. With the default --fault-rate 0 this section is
// skipped entirely and the bench is byte-for-byte the pre-fault workload.

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <vector>

#include "baselines/baselines.hpp"
#include "core/mergepath.hpp"
#include "fault/fault.hpp"
#include "harness_common.hpp"
#include "util/data_gen.hpp"
#include "util/timer.hpp"

namespace {

using namespace mp;
using namespace mp::bench;
using namespace mp::baselines;

double ratio_of(const std::vector<std::size_t>& assigned) {
  std::size_t max_v = 0, sum = 0;
  for (std::size_t v : assigned) {
    max_v = std::max(max_v, v);
    sum += v;
  }
  return sum == 0 ? 1.0
                  : static_cast<double>(max_v) * assigned.size() /
                        static_cast<double>(sum);
}

/// The merged "pool.lane" percentile row from the armed span stats
/// (zero-count when tracing is compiled out).
obs::SpanStat lane_span_stat() {
  for (const obs::SpanStat& stat : obs::span_stats_snapshot())
    if (stat.name == "pool.lane") return stat;
  return {};
}

std::string fmt_lane_us(std::uint64_t ns, std::uint64_t count) {
  return count == 0 ? "-"
                    : mp::fmt_double(static_cast<double>(ns) / 1e3, 1);
}

}  // namespace

int main(int argc, char** argv) {
  Harness h(argc, argv, "E7/Section V", "partition load balance comparison");
  const std::size_t per_array =
      static_cast<std::size_t>(h.cli.get_int("elements", 1 << 20));
  const unsigned p = static_cast<unsigned>(h.cli.get_int("threads", 8));
  const double fault_rate = h.cli.get_double("fault-rate", 0.0);
  const auto fault_seed =
      static_cast<std::uint64_t>(h.cli.get_int("fault-seed", 1));
  const double straggler_delay_us =
      h.cli.get_double("straggler-delay", 2000.0);
  h.check_flags();

  Table table({"input_shape", "scheme", "max/mean", "partition_rounds"});
  for (Dist dist : {Dist::kUniform, Dist::kDisjointLow, Dist::kClustered,
                    Dist::kFewDuplicates}) {
    const auto input = make_merge_input(dist, per_array, per_array, h.seed);
    const std::size_t m = input.a.size(), n = input.b.size();
    std::vector<std::int32_t> out(m + n);
    const Executor exec{nullptr, p};

    // Merge Path: segment k covers diagonals [k·N/p, (k+1)·N/p).
    {
      const auto points =
          partition_merge_path(input.a.data(), m, input.b.data(), n, p);
      std::vector<std::size_t> assigned(p);
      for (unsigned k = 0; k < p; ++k)
        assigned[k] = points[k + 1].diagonal() - points[k].diagonal();
      table.add_row({to_string(dist), "merge_path",
                     fmt_double(ratio_of(assigned), 2), "1"});
    }
    // Deo-Sarkar: identical split points, also one independent round.
    {
      std::vector<std::size_t> assigned(p);
      for (unsigned k = 0; k < p; ++k) {
        const auto lo = kth_element_split(input.a.data(), m, input.b.data(),
                                          n, k * (m + n) / p);
        const auto hi = kth_element_split(input.a.data(), m, input.b.data(),
                                          n, (k + 1ull) * (m + n) / p);
        assigned[k] = (hi.i + hi.j) - (lo.i + lo.j);
      }
      table.add_row({to_string(dist), "deo_sarkar",
                     fmt_double(ratio_of(assigned), 2), "1"});
    }
    // Shiloach-Vishkin: fixed blocks in both arrays, two data-dependent
    // segments per processor (up to 2N/p).
    {
      const SvPartition part = shiloach_vishkin_merge(
          input.a.data(), m, input.b.data(), n, out.data(), exec);
      table.add_row({to_string(dist), "shiloach_vishkin",
                     fmt_double(ratio_of(part.assigned), 2), "1"});
    }
    // Akl-Santoro: recursive medians, log2(p) dependent rounds; with p a
    // power of two the leaves are equal, but the rounds serialise.
    {
      const auto segments = akl_santoro_merge(
          input.a.data(), m, input.b.data(), n, out.data(), exec);
      std::vector<std::size_t> assigned(p, 0);
      for (std::size_t s = 0; s < segments.size(); ++s)
        assigned[s % p] += segments[s].total();
      unsigned rounds = 0;
      while ((1u << rounds) < p) ++rounds;
      table.add_row({to_string(dist), "akl_santoro",
                     fmt_double(ratio_of(assigned), 2),
                     std::to_string(rounds) + " (dependent)"});
    }
  }
  h.emit(table);
  if (!h.csv)
    std::cout << "\npaper reference: Merge Path / [2] are perfectly "
                 "balanced (1.00); [6] can reach\n~2.00 on skewed inputs; "
                 "[5] balances but needs log p dependent partition rounds"
                 "\n(Section V).\n";

  if (fault_rate > 0.0) {
    // E7b: lane-fault recovery overhead. One dedicated pool so the armed
    // schedule cannot touch the shared pool; clean runs detach the plan.
    ThreadPool pool(static_cast<int>(p) - 1);
    const Executor rexec{&pool, p};
    const auto input =
        make_merge_input(Dist::kUniform, per_array, per_array, h.seed);
    const std::size_t m = input.a.size(), n = input.b.size();
    std::vector<std::int32_t> reference(m + n), out(m + n);
    parallel_merge(input.a.data(), m, input.b.data(), n, reference.data(),
                   rexec);
    std::vector<std::int32_t> sorted_reference = reference;

    fault::FaultConfig fault_config{fault_seed, fault_rate, 250.0,
                                    straggler_delay_us};
    RecoveryConfig recovery;
    recovery.hedge.enabled = true;

    // Span stats stay armed across clean AND faulty timings so both carry
    // the same (tiny) recording cost and the overhead column stays honest;
    // the lane percentile columns report the faulty run's distribution —
    // recovery's tail, which mean lane time hides.
    Table rt({"algorithm", "clean_ms", "faulty_ms", "overhead", "faults",
              "retries", "hedges", "fallbacks", "lane_p50_us",
              "lane_p99_us"});

    {  // Algorithm 1 under fire.
      obs::reset_span_stats();
      obs::arm_span_stats();
      const double clean_s = time_best_of([&] {
        parallel_merge(input.a.data(), m, input.b.data(), n, out.data(),
                       rexec);
      });
      fault::FaultPlan plan(fault_config);
      fault::ScopedInjector injector(pool, plan);
      // One recovery context per row: its report sums every repetition.
      LaneRecovery lanes{recovery};
      const RecoveryReport& report = lanes.report;
      const Executor fexec{&pool, p, &lanes};
      obs::reset_span_stats();
      const double faulty_s = time_best_of([&] {
        parallel_merge(input.a.data(), m, input.b.data(), n, out.data(),
                       fexec);
      });
      obs::disarm_span_stats();
      if (out != reference) {
        std::cerr << "E7b: recovered merge output diverged from clean run\n";
        return 1;
      }
      const obs::SpanStat lane = lane_span_stat();
      rt.add_row({"parallel_merge", fmt_double(clean_s * 1e3, 2),
                  fmt_double(faulty_s * 1e3, 2),
                  fmt_double((faulty_s / clean_s - 1.0) * 100.0, 1) + "%",
                  std::to_string(report.injected_faults),
                  std::to_string(report.retried_lanes),
                  std::to_string(report.hedges),
                  std::to_string(report.fallback_lanes),
                  fmt_lane_us(lane.p50_ns, lane.count),
                  fmt_lane_us(lane.p99_ns, lane.count)});
    }
    {  // Section III sort under fire.
      std::vector<std::int32_t> shuffled(m + n);
      std::copy(input.a.begin(), input.a.end(), shuffled.begin());
      std::copy(input.b.begin(), input.b.end(),
                shuffled.begin() + static_cast<std::ptrdiff_t>(m));
      std::vector<std::int32_t> work;
      obs::reset_span_stats();
      obs::arm_span_stats();
      const double clean_s = time_best_of([&] {
        work = shuffled;
        parallel_merge_sort(work.data(), work.size(), rexec);
      });
      std::sort(sorted_reference.begin(), sorted_reference.end());
      fault::FaultPlan plan(fault_config);
      fault::ScopedInjector injector(pool, plan);
      LaneRecovery lanes{recovery};
      const RecoveryReport& report = lanes.report;
      const Executor fexec{&pool, p, &lanes};
      obs::reset_span_stats();
      const double faulty_s = time_best_of([&] {
        work = shuffled;
        parallel_merge_sort(work.data(), work.size(), fexec);
      });
      obs::disarm_span_stats();
      if (work != sorted_reference) {
        std::cerr << "E7b: recovered sort output diverged from clean run\n";
        return 1;
      }
      const obs::SpanStat lane = lane_span_stat();
      rt.add_row({"parallel_merge_sort", fmt_double(clean_s * 1e3, 2),
                  fmt_double(faulty_s * 1e3, 2),
                  fmt_double((faulty_s / clean_s - 1.0) * 100.0, 1) + "%",
                  std::to_string(report.injected_faults),
                  std::to_string(report.retried_lanes),
                  std::to_string(report.hedges),
                  std::to_string(report.fallback_lanes),
                  fmt_lane_us(lane.p50_ns, lane.count),
                  fmt_lane_us(lane.p99_ns, lane.count)});
    }
    h.emit(rt);
    if (!h.csv)
      std::cout << "\nE7b: recovery overhead at lane-fault rate "
                << fault_rate << " (seed " << fault_seed
                << ", straggler delay " << straggler_delay_us
                << " us, hedging on). Outputs verified identical to the "
                   "clean runs.\n";
  }
  return 0;
}

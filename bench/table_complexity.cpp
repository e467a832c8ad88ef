// Experiment E3 — validating the Section III complexity claims with
// measured operation counts:
//
//   work(p)  = O(N + p·log N)    (total ops across lanes)
//   time(p)  = O(N/p + log N)    (critical path: slowest lane)
//
// For each (size, threads) cell the harness runs the counted Algorithm 1
// (pram::counted_parallel_merge), prints the measured totals next to the
// analytic bound, and flags any violation. Also prints the same for the
// Section IV.B segmented merge: work = O(N/C·p·log C + N).
//
// Flags: --full (larger sizes), --csv, --seed.

#include <cmath>
#include <iostream>
#include <vector>

#include "core/mergepath.hpp"
#include "harness_common.hpp"
#include "pram/simulate.hpp"
#include "util/data_gen.hpp"

int main(int argc, char** argv) {
  using namespace mp;
  using namespace mp::bench;

  Harness h(argc, argv, "E3/Section III",
            "measured op counts vs analytic work/time bounds");
  h.check_flags();

  std::vector<std::size_t> sizes{1u << 16, 1u << 20};
  if (h.full) sizes.push_back(1u << 24);
  const std::vector<unsigned> threads{1, 2, 4, 8, 12, 32};

  Table merge_table({"N_total", "p", "work_ops", "bound_N+2p·logN",
                     "crit_ops", "bound_2N/p+2logN", "ok"});
  for (std::size_t per_array : sizes) {
    const auto input =
        make_merge_input(Dist::kUniform, per_array, per_array, h.seed);
    const std::size_t total = 2 * per_array;
    const double log_n = std::log2(static_cast<double>(per_array));
    for (unsigned p : threads) {
      std::vector<OpCounts> counts(p);
      std::vector<std::int32_t> out(total);
      pram::counted_parallel_merge(input.a.data(), per_array, input.b.data(),
                                   per_array, out.data(), p, counts);
      std::uint64_t work = 0, crit = 0;
      for (const auto& c : counts) {
        work += c.total();
        crit = std::max(crit, c.total());
      }
      // Bounds with explicit constants: each output element costs at most
      // one compare + one move (2N work), plus p searches of <= log2+1
      // steps; a lane's critical path is 2·(N/p + 1) + (log2+1).
      const double work_bound =
          2.0 * static_cast<double>(total) +
          2.0 * static_cast<double>(p) * (log_n + 1.0);
      const double crit_bound =
          2.0 * (static_cast<double>(total) / p + 1.0) + 2.0 * (log_n + 1.0);
      const bool ok = static_cast<double>(work) <= work_bound &&
                      static_cast<double>(crit) <= crit_bound;
      merge_table.add_row({fmt_count(total), std::to_string(p),
                           fmt_count(work), fmt_count(static_cast<std::uint64_t>(
                                                work_bound)),
                           fmt_count(crit),
                           fmt_count(static_cast<std::uint64_t>(crit_bound)),
                           ok ? "yes" : "NO"});
    }
  }
  h.emit(merge_table);

  if (!h.csv)
    std::cout << "\nsegmented merge (Algorithm 2), work = O(N/C·p·logC + N), "
                 "C = 3L elements:\n";
  Table seg_table({"N_total", "p", "L", "work_ops", "bound", "ok"});
  const std::size_t per_array = sizes.back();
  const auto input =
      make_merge_input(Dist::kUniform, per_array, per_array, h.seed);
  const std::size_t total = 2 * per_array;
  for (unsigned p : {1u, 4u, 12u}) {
    for (std::size_t L : {std::size_t{1} << 10, std::size_t{1} << 13}) {
      ThreadPool serial(0);
      std::vector<OpCounts> counts(p);
      std::vector<std::int32_t> out(total);
      SegmentedConfig config;
      config.segment_length = L;
      segmented_parallel_merge(input.a.data(), per_array, input.b.data(),
                               per_array, out.data(), config,
                               Executor{&serial, p}, std::less<>{},
                               std::span<OpCounts>(counts));
      std::uint64_t work = 0;
      for (const auto& c : counts) work += c.total();
      const double log_l = std::log2(static_cast<double>(L)) + 1.0;
      // Per element: <= 1 stage + 1 compare + 2 moves (= 4N), plus per
      // segment p+1 searches of <= 2·log2(L)+2 steps.
      const double segments =
          std::ceil(static_cast<double>(total) / static_cast<double>(L));
      const double bound = 4.0 * static_cast<double>(total) +
                           segments * (p + 1.0) * 2.0 * log_l;
      seg_table.add_row({fmt_count(total), std::to_string(p), fmt_count(L),
                         fmt_count(work),
                         fmt_count(static_cast<std::uint64_t>(bound)),
                         static_cast<double>(work) <= bound ? "yes" : "NO"});
    }
  }
  h.emit(seg_table);
  return 0;
}

// Experiment E10 (scheduler half) — static slices vs dynamic tiles, modeled.
//
// Corollary 7's perfect balance assumes every merge step costs the same.
// With irregular costs (expensive comparators on some values, cold pages)
// the static partition's makespan is the slowest slice. The harness
// assigns a deterministic synthetic cost to every output element
// (expensive inside a value band), then computes each scheduler's
// makespan exactly:
//   static: cost-sum of each lane's contiguous slice, max over lanes;
//   tiled:  list-scheduling of the tile cost sequence onto p lanes
//           (greedy earliest-available, the behaviour of lanes that claim
//           fixed-size tiles of the merge path from an atomic counter).
// The dynamic scheduler exists only in this model; the library runs the
// static slices.
// No wall clock involved — exact, host-independent, reproducible.
//
// Flags: --elements N (per array, default 1Mi), --threads N (default 8),
//        --tile N (default 4096), --expensive-factor F (default 16), --csv,
//        --seed.

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "core/mergepath.hpp"
#include "harness_common.hpp"
#include "util/data_gen.hpp"

namespace {

using namespace mp;
using namespace mp::bench;

// Deterministic per-element cost: expensive when the merged value falls in
// a band (e.g. strings that need deep comparison, rows that decompress).
double element_cost(std::int32_t value, double expensive_factor) {
  const std::uint32_t u = static_cast<std::uint32_t>(value);
  return (u >> 27) == 5 ? expensive_factor : 1.0;  // 1/32 of the range
}

}  // namespace

int main(int argc, char** argv) {
  Harness h(argc, argv, "E10/scheduler",
            "static slices vs dynamic tiles (modeled makespan)");
  const std::size_t per_array =
      static_cast<std::size_t>(h.cli.get_int("elements", 1 << 20));
  const unsigned p = static_cast<unsigned>(h.cli.get_int("threads", 8));
  const std::size_t tile =
      static_cast<std::size_t>(h.cli.get_int("tile", 4096));
  const double factor = h.cli.get_double("expensive-factor", 16.0);
  h.check_flags();

  const auto input =
      make_merge_input(Dist::kUniform, per_array, per_array, h.seed);
  std::vector<std::int32_t> merged(2 * per_array);
  parallel_merge(input.a.data(), per_array, input.b.data(), per_array,
                 merged.data(), Executor{nullptr, p});

  // Prefix sums of element costs over the merged output.
  std::vector<double> prefix(merged.size() + 1, 0.0);
  for (std::size_t i = 0; i < merged.size(); ++i)
    prefix[i + 1] = prefix[i] + element_cost(merged[i], factor);
  const double total_cost = prefix.back();
  auto range_cost = [&](std::size_t lo, std::size_t hi) {
    return prefix[hi] - prefix[lo];
  };

  Table table({"scheduler", "makespan", "vs_ideal", "note"});
  const double ideal = total_cost / p;

  // Static: lane k owns output [k·N/p, (k+1)·N/p).
  {
    double makespan = 0.0;
    for (unsigned k = 0; k < p; ++k) {
      const std::size_t lo = k * merged.size() / p;
      const std::size_t hi = (k + 1ull) * merged.size() / p;
      makespan = std::max(makespan, range_cost(lo, hi));
    }
    table.add_row({"static slices (Alg.1)", fmt_double(makespan, 0),
                   fmt_ratio(makespan / ideal), "slowest slice stalls all"});
  }

  // Tiled: greedy list scheduling of the tile sequence (lane takes the
  // next tile the moment it frees up — what the atomic counter does).
  {
    std::vector<double> lane_time(p, 0.0);
    for (std::size_t lo = 0; lo < merged.size(); lo += tile) {
      const std::size_t hi = std::min(lo + tile, merged.size());
      auto next =
          std::min_element(lane_time.begin(), lane_time.end());
      *next += range_cost(lo, hi);
    }
    const double makespan =
        *std::max_element(lane_time.begin(), lane_time.end());
    table.add_row({"dynamic tiles", fmt_double(makespan, 0),
                   fmt_ratio(makespan / ideal),
                   "tile=" + std::to_string(tile)});
  }
  table.add_row({"(ideal)", fmt_double(ideal, 0), "1.00x",
                 "perfect cost split"});
  h.emit(table);
  if (!h.csv)
    std::cout << "\nwith uniform costs both schedulers are 1.00x (that is "
                 "Corollary 7); the band\nskew above is where the tiled "
                 "variant earns its extra per-tile search.\n";
  return 0;
}

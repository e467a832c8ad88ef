// Experiment E13 (extension) — the I/O-model view the paper reaches for
// when citing Aggarwal & Vitter [10]: external merge sort's block
// transfers versus memory size and fan-in, against the
// O(N/B · log_{M/B}(N/M)) bound. The sort is the pipeline (src/pipeline)
// with one shard, checkpoints off and a bounded fan-in; each row counts
// the transfers of start().run() alone.
//
// Flags: --elements N (default 1Mi; --full 8Mi), --csv, --seed.
//   --fault-rate P / --fault-seed S arm the deterministic fault injector on
//   the simulated device for every row (same schedule seed per row, so rows
//   stay comparable); the table then reports the retries each configuration
//   absorbed. Without faults the harness exits 1 when a row exceeds the
//   bound or its pass count is not ceil(log_F runs).

#include <algorithm>
#include <cmath>
#include <iostream>
#include <optional>
#include <vector>

#include "fault/fault.hpp"
#include "harness_common.hpp"
#include "pipeline/pipeline.hpp"
#include "util/data_gen.hpp"

int main(int argc, char** argv) {
  using namespace mp;
  using namespace mp::bench;

  Harness h(argc, argv, "E13/I-O model",
            "external merge sort transfers vs the Aggarwal-Vitter bound");
  const std::size_t elements = static_cast<std::size_t>(
      h.cli.get_int("elements", h.full ? (8 << 20) : (1 << 20)));
  const double fault_rate = h.cli.get_double("fault-rate", 0.0);
  const auto fault_seed =
      static_cast<std::uint64_t>(h.cli.get_int("fault-seed", 1));
  h.check_flags();
  if (fault_rate < 0.0 || fault_rate > 1.0) {
    std::cerr << "error: --fault-rate must be in [0, 1], got " << fault_rate
              << "\n";
    return 2;
  }

  const auto data = make_unsorted_values(elements, h.seed);

  Table table({"memory_elems", "fan_in", "runs", "passes", "transfers",
               "bound", "retries", "faults", "modeled_io_ms"});
  bool bound_holds = true;
  for (std::size_t memory : {std::size_t{8} << 10, std::size_t{32} << 10,
                             std::size_t{128} << 10}) {
    constexpr std::size_t kPerBlock = 4096;  // int32 per 16 KiB block
    // The Aggarwal-Vitter fan-in M/B - 1 (one output buffer), then 2 and 4.
    const std::size_t av_fan = std::max<std::size_t>(2, memory / kPerBlock - 1);
    for (std::size_t fan : {av_fan, std::size_t{2}, std::size_t{4}}) {
      extmem::DeviceConfig dev_config;
      dev_config.block_bytes = kPerBlock * sizeof(std::int32_t);
      extmem::BlockDevice device(dev_config);
      // Every row replays the same fault schedule seed so the sweep stays
      // an apples-to-apples comparison of memory/fan-in, not of luck.
      fault::FaultPlan plan({fault_seed, fault_rate, 250.0});
      std::optional<fault::ScopedInjector<extmem::BlockDevice>> inject;
      if (fault_rate > 0.0) inject.emplace(device, plan);
      pipeline::PipelineConfig config;
      config.memory_elems = memory;
      config.fan_in = fan;
      config.shards = 1;
      config.checkpoints = false;

      extmem::RunWriter<std::int32_t> writer(device, config.retry);
      writer.append(data.data(), data.size());
      const extmem::RunHandle input = writer.finish();
      const extmem::DeviceStats before = device.stats();
      const double io_before = device.modeled_io_us();
      const pipeline::PipelineReport report =
          pipeline::Pipeline<std::int32_t>::start(device, input, config).run();
      const std::uint64_t transfers =
          device.stats().transfers() - before.transfers();
      const std::uint64_t faults =
          device.stats().faults_injected - before.faults_injected;
      const double modeled_us = device.modeled_io_us() - io_before;

      std::vector<std::int32_t> sorted(elements);
      extmem::RunReader<std::int32_t>(device, report.output, config.retry)
          .read(sorted.data(), sorted.size());
      if (!std::is_sorted(sorted.begin(), sorted.end())) {
        std::cerr << "SORT FAILED\n";
        return 1;
      }
      const double blocks = std::ceil(static_cast<double>(elements) /
                                      static_cast<double>(kPerBlock));
      const double runs = static_cast<double>(report.runs_formed);
      const double passes =
          runs <= 1.0 ? 0.0
                      : std::ceil(std::log(runs) /
                                  std::log(static_cast<double>(fan)));
      const double bound =
          2.0 * blocks * (passes + 1.0) + 2.0 * runs + 4.0;
      if (fault_rate == 0.0 &&
          (static_cast<double>(transfers) > bound ||
           static_cast<double>(report.merge_passes) != passes)) {
        std::cerr << "E13: memory " << memory << " fan-in " << fan << ": "
                  << transfers << " transfers (bound " << bound << "), "
                  << report.merge_passes << " passes (expected " << passes
                  << ")\n";
        bound_holds = false;
      }
      table.add_row({fmt_count(memory), std::to_string(fan),
                     fmt_count(report.runs_formed),
                     fmt_count(report.merge_passes), fmt_count(transfers),
                     fmt_count(static_cast<std::uint64_t>(bound)),
                     fmt_count(report.io_retries), fmt_count(faults),
                     fmt_double(modeled_us / 1e3, 1)});
    }
  }
  h.emit(table);
  if (!h.csv) {
    if (fault_rate > 0.0)
      std::cout << "\nfault injection armed (seed " << fault_seed << ", rate "
                << fault_rate
                << "): retried transfers are extra work on top of the "
                   "fault-free\nAggarwal-Vitter bound, so transfers may "
                   "exceed it by roughly the retry count.\n";
    else if (bound_holds)
      std::cout << "\nevery row satisfies transfers <= bound; larger memory "
                   "or fan-in cuts the\npass count exactly as "
                   "O(N/B·log_{M/B}(N/M)) predicts [Aggarwal-Vitter,\nref "
                   "10 of the paper].\n";
  }
  return bound_holds ? 0 : 1;
}

// Example: sorting a dataset that does not fit in memory.
//
//   build/examples/external_sort_spill [--elements N] [--memory M]
//
// The classic pipeline a database or log processor runs when a sort
// spills: form memory-sized sorted runs, then merge the runs fan-in at a
// time. It runs on the crash-consistent pipeline (src/pipeline) with one
// shard and no intermediate checkpoints. Storage is the simulated block
// device (src/extmem), so the example also prints the I/O story — block
// transfers, seeks, modelled disk time — next to the Aggarwal-Vitter
// expectation.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <vector>

#include "pipeline/pipeline.hpp"
#include "util/cli.hpp"
#include "util/data_gen.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace mp;
  Cli cli(argc, argv);
  const auto elements =
      static_cast<std::size_t>(cli.get_int("elements", 4 << 20));
  const auto memory =
      static_cast<std::size_t>(cli.get_int("memory", 128 << 10));

  extmem::BlockDevice device;  // 64 KiB blocks, HDD-ish latency model
  const std::size_t per_block =
      device.config().block_bytes / sizeof(std::int32_t);

  std::cout << "dataset: " << elements << " int32 ("
            << fmt_bytes(elements * 4) << "), memory budget: " << memory
            << " elements (" << fmt_bytes(memory * 4) << "), block "
            << fmt_bytes(device.config().block_bytes) << "\n";

  const auto data = make_unsorted_values(elements, 77);
  pipeline::PipelineConfig config;
  config.memory_elems = memory;
  config.shards = 1;
  config.checkpoints = false;
  // The Aggarwal-Vitter fan-in: one block per input run, one for output.
  config.fan_in = std::max<std::size_t>(2, memory / per_block - 1);

  Timer timer;
  pipeline::PipelineReport report;
  const auto sorted = pipeline::sort_vector(device, data, config, &report);
  const double cpu_s = timer.seconds();

  const extmem::DeviceStats& io = device.stats();
  const bool ok = std::is_sorted(sorted.begin(), sorted.end()) &&
                  sorted.size() == elements;
  std::cout << "\nsorted correctly: " << std::boolalpha << ok << "\n\n"
            << "run formation: " << report.runs_formed << " runs of <= "
            << memory << " elements\n"
            << "merge passes:  " << report.merge_passes << " at fan-in "
            << config.fan_in << "\n"
            << "block I/O:     " << fmt_count(io.block_reads) << " reads + "
            << fmt_count(io.block_writes) << " writes, "
            << fmt_count(io.seeks) << " seeks (input and output included)\n"
            << "modeled disk:  " << fmt_double(device.modeled_io_us() / 1e3, 1)
            << " ms   (host CPU: " << fmt_double(cpu_s * 1e3, 1) << " ms)\n";

  // The I/O lower bound for comparison: the sort's passes plus writing
  // the input and reading the output once.
  const double blocks = std::ceil(static_cast<double>(elements) /
                                  static_cast<double>(per_block));
  const double ratio = std::log(static_cast<double>(report.runs_formed)) /
                       std::log(static_cast<double>(config.fan_in));
  std::cout << "\nAggarwal-Vitter shape: ~2·N/B·(2 + ceil(log_k(runs))) = "
            << fmt_count(static_cast<std::uint64_t>(
                   2.0 * blocks * (2.0 + std::ceil(std::max(0.0, ratio)))))
            << " transfers\n";
  return ok ? 0 : 1;
}

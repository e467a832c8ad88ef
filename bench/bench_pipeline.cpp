/// \file bench_pipeline.cpp
/// E18 — crash-consistent pipeline: checkpoint overhead (BENCH_9).
///
/// Two modes of the identical sharded external sort on a device with
/// realize_scale > 0 (transfers really sleep for a scaled fraction of
/// their modeled cost, so the wall time carries the I/O):
///
///   serial        the pipeline as shipped: every transfer on the calling
///                 thread, a checkpoint after every unit
///   no-checkpoint the same with checkpoints=false: isolates what the
///                 manifest writes cost
///
/// Each mode runs kRepeats times, the modes alternating and taking turns
/// to go first; a mode's wall_ms is the median of its runs (all of them
/// are in wall_ms_runs). checkpoint overhead = (serial - no-checkpoint) /
/// no-checkpoint over those medians. Every run's output is verified
/// against std::sort and every repeat must do the same I/O before a number
/// is reported.
///
/// Flags (beyond the harness_common set):
///   --n N               elements (default 1 Mi; --full 4 Mi)
///   --shards N          pipeline shards / exchange ranks (default 3)
///   --memory N          elements per formed run (default 64 Ki)
///   --segment-blocks N  merge-segment redo grain (default 4)
///   --realize S         realize_scale: sleep fraction of modeled cost
///                       (default 0.2; --full 0.4)
///   --threads N         lanes for the in-memory sorts (default 0 = all)
///   --json PATH         write the BENCH_9 artifact
///                       (schema mergepath-bench-pipeline-v2)

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "extmem/block_device.hpp"
#include "extmem/run_file.hpp"
#include "harness_common.hpp"
#include "obs/metrics.hpp"
#include "pipeline/pipeline.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace mp::bench {
namespace {

/// Runs per mode. The overhead is a difference of two wall times that
/// drift with the host: single runs per mode spread it 2.5–17.6% over
/// seven invocations on a 4-core VM.
constexpr int kRepeats = 9;

struct ModeResult {
  std::string mode;
  double wall_ms = 0;
  std::vector<double> wall_ms_runs;  ///< every repeat, in run order
  double modeled_io_us = 0;
  std::uint64_t block_reads = 0;
  std::uint64_t block_writes = 0;
  std::uint64_t probe_reads = 0;  ///< of block_reads: exchange co-rank probes
  pipeline::PipelineReport report;
};

ModeResult run_mode(const std::string& mode,
                    const std::vector<std::int32_t>& values,
                    const std::vector<std::int32_t>& expected,
                    const extmem::DeviceConfig& device_config,
                    const pipeline::PipelineConfig& cfg) {
  extmem::BlockDevice device(device_config);
  extmem::RunWriter<std::int32_t> writer(device);
  writer.append(values.data(), values.size());
  const extmem::RunHandle input = writer.finish();
  const extmem::DeviceStats before = device.stats();
  obs::Counter& probes =
      obs::MetricsRegistry::instance().counter("pipe.probe_reads");
  const std::uint64_t probes_before = probes.value();

  auto pipe = pipeline::Pipeline<std::int32_t>::start(device, input, cfg);
  Timer timer;
  ModeResult out;
  out.mode = mode;
  out.report = pipe.run();
  out.wall_ms = timer.seconds() * 1e3;
  out.wall_ms_runs = {out.wall_ms};
  out.modeled_io_us = device.modeled_io_us();
  out.block_reads = device.stats().block_reads - before.block_reads;
  out.block_writes = device.stats().block_writes - before.block_writes;
  out.probe_reads = probes.value() - probes_before;

  extmem::RunReader<std::int32_t> reader(device, out.report.output);
  std::size_t at = 0;
  while (!reader.empty()) {
    if (at >= expected.size() || reader.next() != expected[at]) {
      std::cerr << "error: " << mode << " output mismatch at element " << at
                << "\n";
      std::exit(1);
    }
    ++at;
  }
  if (at != expected.size()) {
    std::cerr << "error: " << mode << " output truncated (" << at << " of "
              << expected.size() << ")\n";
    std::exit(1);
  }
  return out;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Folds a repeat into `acc`: the work must be the same, the wall joins
/// wall_ms_runs and wall_ms becomes their median.
void add_repeat(ModeResult& acc, const ModeResult& run) {
  if (acc.wall_ms_runs.empty()) {
    acc = run;
    return;
  }
  if (run.block_reads != acc.block_reads ||
      run.block_writes != acc.block_writes ||
      run.probe_reads != acc.probe_reads ||
      run.report.steps != acc.report.steps ||
      run.report.checkpoints != acc.report.checkpoints) {
    std::cerr << "error: " << acc.mode << " repeats did different work\n";
    std::exit(1);
  }
  acc.wall_ms_runs.push_back(run.wall_ms);
  acc.wall_ms = median(acc.wall_ms_runs);
}

void write_artifact(const std::string& path, std::uint64_t n,
                    const extmem::DeviceConfig& device_config,
                    const pipeline::PipelineConfig& cfg, std::uint64_t seed,
                    const std::vector<ModeResult>& modes,
                    double checkpoint_overhead_pct) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "error: cannot write " << path << "\n";
    std::exit(1);
  }
  os << "{\n"
     << "  \"schema\": \"mergepath-bench-pipeline-v2\",\n"
     << "  \"experiment\": \"E18\",\n"
     << "  \"host\": \"" << describe(host_info()) << "\",\n"
     << "  \"seed\": " << seed << ",\n"
     << "  \"n\": " << n << ",\n"
     << "  \"shards\": " << cfg.shards << ",\n"
     << "  \"memory_elems\": " << cfg.memory_elems << ",\n"
     << "  \"segment_blocks\": " << cfg.segment_blocks << ",\n"
     << "  \"block_bytes\": " << device_config.block_bytes << ",\n"
     << "  \"elem_bytes\": " << sizeof(std::int32_t) << ",\n"
     << "  \"realize_scale\": " << device_config.realize_scale << ",\n"
     << "  \"repeats\": " << kRepeats << ",\n"
     << "  \"checkpoint_overhead_pct\": " << checkpoint_overhead_pct
     << ",\n"
     << "  \"modes\": [\n";
  for (std::size_t i = 0; i < modes.size(); ++i) {
    const ModeResult& m = modes[i];
    os << "    {\n"
       << "      \"mode\": \"" << m.mode << "\",\n"
       << "      \"wall_ms\": " << m.wall_ms << ",\n"
       << "      \"wall_ms_runs\": [";
    for (std::size_t r = 0; r < m.wall_ms_runs.size(); ++r)
      os << (r ? ", " : "") << m.wall_ms_runs[r];
    os << "],\n"
       << "      \"modeled_io_us\": " << m.modeled_io_us << ",\n"
       << "      \"block_reads\": " << m.block_reads << ",\n"
       << "      \"block_writes\": " << m.block_writes << ",\n"
       << "      \"probe_reads\": " << m.probe_reads << ",\n"
       << "      \"steps\": " << m.report.steps << ",\n"
       << "      \"checkpoints\": " << m.report.checkpoints << ",\n"
       << "      \"runs_formed\": " << m.report.runs_formed << ",\n"
       << "      \"segments_merged\": " << m.report.segments_merged << ",\n"
       << "      \"ranks_exchanged\": " << m.report.ranks_exchanged
       << "\n    }" << (i + 1 < modes.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  std::cerr << "artifact written to " << path << "\n";
}

}  // namespace
}  // namespace mp::bench

int main(int argc, char** argv) {
  using namespace mp;
  using namespace mp::bench;

  Harness h(argc, argv, "E18",
            "crash-consistent pipeline: checkpoint overhead");
  const auto n = static_cast<std::uint64_t>(
      h.cli.get_int("n", h.full ? 4 << 20 : 1 << 20));
  const auto shards = static_cast<unsigned>(h.cli.get_int("shards", 3));
  const auto memory =
      static_cast<std::uint64_t>(h.cli.get_int("memory", 64 << 10));
  const auto segment_blocks =
      static_cast<std::uint64_t>(h.cli.get_int("segment-blocks", 4));
  const double realize =
      h.cli.get_double("realize", h.full ? 0.4 : 0.2);
  const auto threads = static_cast<unsigned>(h.cli.get_int("threads", 0));
  const std::string json_path = h.cli.get("json", "");
  (void)h.cli.get("benchmark_min_time", "");
  h.check_flags();

  Xoshiro256 rng(h.seed);
  std::vector<std::int32_t> values(static_cast<std::size_t>(n));
  for (auto& x : values) x = static_cast<std::int32_t>(rng());
  std::vector<std::int32_t> expected = values;
  std::sort(expected.begin(), expected.end());

  extmem::DeviceConfig device_config;
  device_config.realize_scale = realize;

  pipeline::PipelineConfig cfg;
  cfg.shards = shards;
  cfg.memory_elems = memory;
  cfg.segment_blocks = segment_blocks;
  cfg.exec = Executor{nullptr, threads};

  // Alternating, and each mode goes first in every other repeat, so
  // warm-up and host drift fall on both modes alike.
  pipeline::PipelineConfig nockpt_cfg = cfg;
  nockpt_cfg.checkpoints = false;
  std::vector<ModeResult> modes(2);
  for (int r = 0; r < kRepeats; ++r) {
    for (int i = 0; i < 2; ++i) {
      if ((i + r) % 2 == 0)
        add_repeat(modes[0], run_mode("serial", values, expected,
                                      device_config, cfg));
      else
        add_repeat(modes[1], run_mode("no-checkpoint", values, expected,
                                      device_config, nockpt_cfg));
    }
  }
  const ModeResult& serial = modes[0];
  const ModeResult& nockpt = modes[1];

  Table table({"mode", "wall_ms", "modeled_io_ms", "reads", "writes",
               "checkpoints", "steps"});
  for (const ModeResult& m : modes) {
    table.add_row({m.mode, fmt_double(m.wall_ms, 2),
                   fmt_double(m.modeled_io_us / 1e3, 2),
                   std::to_string(m.block_reads),
                   std::to_string(m.block_writes),
                   std::to_string(m.report.checkpoints),
                   std::to_string(m.report.steps)});
  }
  h.emit(table);

  const double checkpoint_overhead_pct =
      nockpt.wall_ms > 0.0
          ? (serial.wall_ms - nockpt.wall_ms) / nockpt.wall_ms * 100.0
          : 0.0;
  if (!h.csv) {
    std::cout << "checkpoint overhead: "
              << fmt_double(checkpoint_overhead_pct, 1) << "%\n";
  }
  if (!json_path.empty())
    write_artifact(json_path, n, device_config, cfg, h.seed, modes,
                   checkpoint_overhead_pct);
  return 0;
}

// mpsort — command-line sorting and merging built on the mergepath library.
//
//   mpsort sort   <input> <output> [--binary] [--threads N] [--numeric]
//   mpsort merge  <output> <input1> <input2> [...inputN] [--binary]
//   mpsort check  <input> [--binary] [--numeric]
//
// Text mode (default) operates on newline-delimited records, sorted
// lexicographically (or numerically with --numeric); --binary treats the
// file as a flat array of little-endian int32. `merge` requires its
// inputs to be pre-sorted (verified up front) and k-way merges them with
// the parallel multiway merge; `sort` uses the parallel merge sort;
// `check` verifies order and reports the first violation.
//
// Observability (docs/OBSERVABILITY.md): --trace writes a Chrome/Perfetto
// trace_event JSON of the run's lane spans; --metrics prints the per-lane
// balance table to stderr; --metrics-json writes the machine-readable
// metrics report.
//
// Fault drills (docs/TESTING.md): `sort --binary --fault-rate R
// [--fault-seed S]` routes the sort through the external-memory pipeline
// (one shard, no intermediate checkpoints) on a simulated device with a
// seeded fault schedule armed — the CLI face of the recovery machinery.
// The output is byte-identical to the fault-free sort; a schedule the
// retries cannot absorb exits 1 with a typed diagnostic, never an abort.
//
// `sort --binary --lane-fault-rate R [--fault-seed S]` is the in-memory
// twin: a dedicated ThreadPool with the schedule attached injects lane
// throws/abandons/stalls into the parallel merge sort, and the recovering
// executor (util/recovery.hpp) retries the failed lanes' disjoint segments
// with straggler hedging on. Prints the schedule hash — two runs with the
// same seed print the same hash and produce byte-identical output.
//
// `xsort` (docs/PIPELINE.md) is the crash-consistent pipeline's CLI face:
// a checkpointed sharded external sort whose simulated device persists to
// --device <image> across process exits. An injected crash (--crash-at K
// or --crash-rate R) saves the image mid-flight and exits 3; rerunning
// with --resume rolls back to the last checkpoint and continues —
// repeat until exit 0. --corrupt-manifest wrecks both manifest slots in
// an existing image (the torn-superblock drill): the next --resume exits
// 4 (typed ManifestError, full restart required — never wrong bytes).
// Exit codes: 0 sorted, 1 typed I/O or network failure, 2 usage,
// 3 crashed (resumable), 4 manifest unrecoverable.

#include <charconv>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include <optional>

#include "core/mergepath.hpp"
#include "dist/netsim.hpp"
#include "fault/fault.hpp"
#include "kernels/kernels.hpp"
#include "pipeline/pipeline.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/percentiles.hpp"
#include "obs/trace.hpp"
#include "util/hw.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace mp;

[[noreturn]] void usage() {
  std::cerr <<
      "usage:\n"
      "  mpsort sort  <input> <output> [--binary] [--numeric] [--threads N]\n"
      "  mpsort merge <output> <in1> <in2> [...] [--binary] [--numeric]\n"
      "               [--threads N]\n"
      "  mpsort check <input> [--binary] [--numeric]\n"
      "  mpsort xsort <input> <output> --device <image> [--resume]\n"
      "               [--shards N] [--memory N] [--segment-blocks N]\n"
      "               [--threads N] [--crash-at K] [--crash-rate R]\n"
      "               [--crash-seed S] [--corrupt-manifest]\n"
      "               crash-consistent external sort of little-endian int32;\n"
      "               the N lanes sort N runs per fork, device I/O runs on\n"
      "               the calling thread, and the simulated device persists\n"
      "               to --device across incarnations. exits: 0 sorted,\n"
      "               1 typed I/O error, 3 crashed (rerun with --resume),\n"
      "               4 manifest unrecoverable (full restart)\n"
      "kernel selection (any command):\n"
      "  --kernel K             force the per-lane merge kernel, K in\n"
      "                         " << kernels::kernel_names() << " (default: the\n"
      "                         widest ISA the host supports)\n"
      "observability (any command):\n"
      "  --trace <file.json>    write a Chrome/Perfetto trace of the run\n"
      "  --metrics              print the per-lane balance and span\n"
      "                         percentile tables to stderr\n"
      "  --metrics-json <file>  write the metrics report as JSON\n"
      "                         (includes per-span p50/p95/p99)\n"
      "  --prometheus <file>    write Prometheus text metrics (counters,\n"
      "                         gauges, span duration percentiles)\n"
      "  --flight-dump <file>   write the flight-recorder snapshot (the\n"
      "                         last spans of every thread) at exit; on a\n"
      "                         degraded run the dump happens even without\n"
      "                         this flag when MP_FLIGHT_DUMP is set\n"
      "fault drill (sort --binary only):\n"
      "  --fault-rate R         sort externally on a simulated device with\n"
      "                         per-op fault probability R in [0, 1]\n"
      "  --lane-fault-rate R    sort in memory on a pool injecting lane\n"
      "                         faults with probability R; failed lanes are\n"
      "                         retried, stragglers hedged\n"
      "  --fault-seed N         schedule seed (default 0); same seed =>\n"
      "                         same faults, same result\n";
  std::exit(2);
}

struct Options {
  bool binary = false;
  bool numeric = false;
  bool metrics = false;
  unsigned threads = 0;
  std::uint64_t fault_seed = 0;
  double fault_rate = 0.0;
  double lane_fault_rate = 0.0;
  std::string trace_path;
  std::string metrics_json;
  std::string prometheus_path;
  std::string flight_dump;
  // xsort (the crash-consistent pipeline):
  std::string device_path;
  bool resume = false;
  bool corrupt_manifest = false;
  unsigned shards = 4;
  std::uint64_t memory_elems = 1ull << 15;
  std::uint64_t segment_blocks = 4;
  double crash_rate = 0.0;
  std::uint64_t crash_seed = 0;
  std::int64_t crash_at = -1;  ///< scripted kill step; -1 = none
  std::vector<std::string> files;
};

std::uint64_t parse_u64_flag(const char* flag, const char* value) {
  try {
    std::size_t parsed = 0;
    const std::uint64_t v = std::stoull(value, &parsed);
    if (parsed != std::string(value).size())
      throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    std::cerr << flag << " expects a non-negative integer, got '" << value
              << "'\n";
    usage();
  }
}

Options parse(int argc, char** argv, int first) {
  Options opt;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--binary") {
      opt.binary = true;
    } else if (arg == "--numeric") {
      opt.numeric = true;
    } else if (arg == "--metrics") {
      opt.metrics = true;
    } else if (arg == "--trace") {
      if (++i >= argc) usage();
      opt.trace_path = argv[i];
    } else if (arg == "--metrics-json") {
      if (++i >= argc) usage();
      opt.metrics_json = argv[i];
    } else if (arg == "--prometheus") {
      if (++i >= argc) usage();
      opt.prometheus_path = argv[i];
    } else if (arg == "--flight-dump") {
      if (++i >= argc) usage();
      opt.flight_dump = argv[i];
    } else if (arg == "--kernel") {
      if (++i >= argc) usage();
      const auto kernel = kernels::parse_kernel(argv[i]);
      if (!kernel) {
        std::cerr << "--kernel expects " << kernels::kernel_names()
                  << ", got '" << argv[i] << "'\n";
        usage();
      }
      if (!kernels::set_kernel(*kernel)) {
        std::cerr << "--kernel " << argv[i]
                  << " is not supported on this host/build (isa "
                  << isa_string(cpu_features())
                  << (kernels::kSimdCompiledIn ? "" : ", SIMD compiled out")
                  << ")\n";
        std::exit(2);
      }
    } else if (arg == "--threads") {
      if (++i >= argc) usage();
      // std::stoul aborts the process on bad input if the exception
      // escapes main; turn "--threads banana" into a usage error instead.
      try {
        std::size_t parsed = 0;
        const unsigned long v = std::stoul(argv[i], &parsed);
        if (parsed != std::string(argv[i]).size() ||
            v > std::numeric_limits<unsigned>::max())
          throw std::out_of_range(argv[i]);
        opt.threads = static_cast<unsigned>(v);
      } catch (const std::exception&) {
        std::cerr << "--threads expects a non-negative integer, got '"
                  << argv[i] << "'\n";
        usage();
      }
    } else if (arg == "--fault-seed") {
      if (++i >= argc) usage();
      try {
        std::size_t parsed = 0;
        opt.fault_seed = std::stoull(argv[i], &parsed);
        if (parsed != std::string(argv[i]).size())
          throw std::invalid_argument(argv[i]);
      } catch (const std::exception&) {
        std::cerr << "--fault-seed expects a non-negative integer, got '"
                  << argv[i] << "'\n";
        usage();
      }
    } else if (arg == "--device") {
      if (++i >= argc) usage();
      opt.device_path = argv[i];
    } else if (arg == "--resume") {
      opt.resume = true;
    } else if (arg == "--corrupt-manifest") {
      opt.corrupt_manifest = true;
    } else if (arg == "--shards") {
      if (++i >= argc) usage();
      opt.shards = static_cast<unsigned>(
          parse_u64_flag("--shards", argv[i]));
    } else if (arg == "--memory") {
      if (++i >= argc) usage();
      opt.memory_elems = parse_u64_flag("--memory", argv[i]);
    } else if (arg == "--segment-blocks") {
      if (++i >= argc) usage();
      opt.segment_blocks = parse_u64_flag("--segment-blocks", argv[i]);
    } else if (arg == "--crash-seed") {
      if (++i >= argc) usage();
      opt.crash_seed = parse_u64_flag("--crash-seed", argv[i]);
    } else if (arg == "--crash-at") {
      if (++i >= argc) usage();
      opt.crash_at = static_cast<std::int64_t>(
          parse_u64_flag("--crash-at", argv[i]));
    } else if (arg == "--crash-rate" || arg == "--fault-rate" ||
               arg == "--lane-fault-rate") {
      if (++i >= argc) usage();
      double& rate = arg == "--crash-rate"    ? opt.crash_rate
                     : arg == "--fault-rate" ? opt.fault_rate
                                             : opt.lane_fault_rate;
      try {
        std::size_t parsed = 0;
        rate = std::stod(argv[i], &parsed);
        if (parsed != std::string(argv[i]).size() || rate < 0.0 ||
            rate > 1.0)
          throw std::invalid_argument(argv[i]);
      } catch (const std::exception&) {
        std::cerr << arg << " expects a number in [0, 1], got '"
                  << argv[i] << "'\n";
        usage();
      }
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown flag " << arg << "\n";
      usage();
    } else {
      opt.files.push_back(arg);
    }
  }
  return opt;
}

std::vector<std::int32_t> read_binary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "cannot open " << path << "\n";
    std::exit(1);
  }
  in.seekg(0, std::ios::end);
  const auto bytes = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  std::vector<std::int32_t> data(bytes / sizeof(std::int32_t));
  in.read(reinterpret_cast<char*>(data.data()),
          static_cast<std::streamsize>(data.size() * sizeof(std::int32_t)));
  return data;
}

void write_binary(const std::string& path,
                  const std::vector<std::int32_t>& data) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size() * sizeof(std::int32_t)));
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open " << path << "\n";
    std::exit(1);
  }
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void write_lines(const std::string& path,
                 const std::vector<std::string>& lines) {
  std::ofstream out(path);
  for (const auto& line : lines) out << line << '\n';
}

/// Numeric-aware line comparator: parses a leading long long from each
/// line; unparsable lines order after numbers, lexicographically.
struct NumericLess {
  static std::pair<bool, long long> value_of(const std::string& s) {
    long long v = 0;
    const auto [ptr, ec] =
        std::from_chars(s.data(), s.data() + s.size(), v);
    return {ec == std::errc{} && ptr != s.data(), v};
  }
  bool operator()(const std::string& x, const std::string& y) const {
    const auto [xn, xv] = value_of(x);
    const auto [yn, yv] = value_of(y);
    if (xn && yn) return xv < yv || (xv == yv && x < y);
    if (xn != yn) return xn;  // numbers before non-numbers
    return x < y;
  }
};

template <typename T, typename Comp>
int run_sort(const Options& opt, std::vector<T> data, Comp comp,
             auto write_fn) {
  const Executor exec{nullptr, opt.threads};
  Timer timer;
  parallel_merge_sort(data.data(), data.size(), exec, comp);
  std::cerr << "sorted " << data.size() << " records in "
            << timer.seconds() * 1e3 << " ms\n";
  write_fn(opt.files[1], data);
  return 0;
}

template <typename T, typename Comp>
int run_merge(const Options& opt, std::vector<std::vector<T>> inputs,
              Comp comp, auto write_fn) {
  for (std::size_t f = 0; f < inputs.size(); ++f) {
    if (!std::is_sorted(inputs[f].begin(), inputs[f].end(), comp)) {
      std::cerr << "input " << opt.files[f + 1] << " is not sorted\n";
      return 1;
    }
  }
  std::vector<std::span<const T>> views;
  std::size_t total = 0;
  for (const auto& in : inputs) {
    views.emplace_back(in.data(), in.size());
    total += in.size();
  }
  std::vector<T> merged(total);
  const Executor exec{nullptr, opt.threads};
  Timer timer;
  parallel_multiway_merge(std::span<const std::span<const T>>(views),
                          merged.data(), exec, comp);
  std::cerr << "merged " << inputs.size() << " inputs, " << total
            << " records in " << timer.seconds() * 1e3 << " ms\n";
  write_fn(opt.files[0], merged);
  return 0;
}

template <typename T, typename Comp>
int run_check(const std::string& path, const std::vector<T>& data,
              Comp comp) {
  for (std::size_t i = 1; i < data.size(); ++i) {
    if (comp(data[i], data[i - 1])) {
      std::cout << path << ": NOT sorted (first violation at record " << i
                << ")\n";
      return 1;
    }
  }
  std::cout << path << ": sorted (" << data.size() << " records)\n";
  return 0;
}

/// `sort --binary --fault-rate R`: the external-memory pipeline (one
/// shard, checkpoints off) on a simulated device with a seeded fault
/// schedule armed. Recoverable faults are retried (the result is still
/// the exact stable sort); permanent ones exit 1 with the typed
/// diagnostic.
int run_fault_sort(const Options& opt) {
  extmem::BlockDevice device;
  fault::FaultPlan plan(
      fault::FaultConfig{opt.fault_seed, opt.fault_rate, 250.0});
  fault::ScopedInjector injector(device, plan);
  pipeline::PipelineConfig config;
  config.memory_elems = 1 << 20;
  config.shards = 1;
  config.checkpoints = false;
  config.exec = Executor{nullptr, opt.threads};
  Timer timer;
  try {
    pipeline::PipelineReport report;
    const auto sorted = pipeline::sort_vector(
        device, read_binary(opt.files[0]), config, &report);
    std::cerr << "sorted " << sorted.size() << " records in "
              << timer.seconds() * 1e3 << " ms (fault seed "
              << opt.fault_seed << " rate " << opt.fault_rate << ": "
              << device.stats().faults_injected << " faults injected, "
              << report.io_retries << " retries)\n";
    if (!fault::kFaultCompiledIn)
      std::cerr << "mpsort: fault injection compiled out "
                   "(MERGEPATH_FAULT=OFF); the schedule never fired\n";
    write_binary(opt.files[1], sorted);
    return 0;
  } catch (const extmem::IoError& error) {
    std::cerr << "mpsort: sort failed: " << error.what() << "\n";
    return 1;
  }
}

/// `sort --binary --lane-fault-rate R`: the in-memory parallel merge sort
/// on a dedicated ThreadPool carrying a seeded lane-fault schedule, its
/// lanes run by a recovering executor with straggler hedging on. The output is the
/// exact stable sort whatever the schedule injects; the printed schedule
/// hash proves replay determinism (same seed => same hash, same bytes).
int run_lane_fault_sort(const Options& opt) {
  auto data = read_binary(opt.files[0]);
  // A dedicated pool: the armed plan must not leak into the shared pool.
  ThreadPool pool(opt.threads == 0 ? -1 : static_cast<int>(opt.threads) - 1);
  fault::FaultPlan plan(
      fault::FaultConfig{opt.fault_seed, opt.lane_fault_rate, 250.0});
  fault::ScopedInjector injector(pool, plan);
  LaneRecovery recovery;
  recovery.config.hedge.enabled = true;
  Timer timer;
  parallel_merge_sort(data.data(), data.size(),
                      Executor{&pool, opt.threads, &recovery});
  const RecoveryReport& report = recovery.report;
  std::cerr << "sorted " << data.size() << " records in "
            << timer.seconds() * 1e3 << " ms (lane-fault seed "
            << opt.fault_seed << " rate " << opt.lane_fault_rate << ": "
            << report.injected_faults << " faults injected, "
            << report.retried_lanes << " lane retries, " << report.hedges
            << " hedges, " << report.fallback_lanes
            << " sequential fallbacks; schedule-hash "
            << plan.schedule_hash() << ")\n";
  if (!fault::kFaultCompiledIn)
    std::cerr << "mpsort: fault injection compiled out "
                 "(MERGEPATH_FAULT=OFF); the schedule never fired\n";
  write_binary(opt.files[1], data);
  return 0;
}

/// `xsort`: the crash-consistent checkpointed pipeline with the simulated
/// device persisted to an image file, so "crash" really is process death —
/// a later invocation resumes another incarnation against the same
/// storage bytes. The manifest base block rides in the image's user word;
/// the element count is the input file's size (both incarnations read the
/// same input file).
int run_xsort(const Options& opt) {
  if (opt.files.size() != 2 || opt.device_path.empty()) usage();
  if (opt.resume && opt.corrupt_manifest) {
    std::cerr << "--resume and --corrupt-manifest are separate drills; "
                 "pick one\n";
    usage();
  }
  const std::vector<std::int32_t> input_data = read_binary(opt.files[0]);
  const std::uint64_t n = input_data.size();

  pipeline::PipelineConfig cfg;
  cfg.shards = opt.shards;
  cfg.memory_elems = opt.memory_elems;
  cfg.segment_blocks = opt.segment_blocks;
  cfg.exec = Executor{nullptr, opt.threads};
  fault::FaultPlan crash_plan =
      opt.crash_rate > 0.0
          ? fault::FaultPlan(
                fault::FaultConfig{opt.crash_seed, opt.crash_rate})
          : fault::FaultPlan();
  if (opt.crash_at >= 0)
    crash_plan.fail_op(static_cast<std::uint64_t>(opt.crash_at),
                       fault::FaultKind::kCrash);
  if (opt.crash_rate > 0.0 || opt.crash_at >= 0) {
    cfg.crash_plan = &crash_plan;
    if (!fault::kFaultCompiledIn)
      std::cerr << "mpsort: fault injection compiled out "
                   "(MERGEPATH_FAULT=OFF); the crash schedule never "
                   "fires\n";
  }

  const auto load_device = [&](std::uint64_t* base) {
    std::ifstream in(opt.device_path, std::ios::binary);
    if (!in) {
      std::cerr << "cannot open device image " << opt.device_path << "\n";
      std::exit(1);
    }
    return extmem::BlockDevice::load_image(in, base);
  };
  const auto save_device = [&](const extmem::BlockDevice& device,
                               std::uint64_t base) {
    std::ofstream out(opt.device_path,
                      std::ios::binary | std::ios::trunc);
    if (!out) {
      std::cerr << "cannot write device image " << opt.device_path << "\n";
      std::exit(1);
    }
    device.save_image(out, base);
  };

  try {
    if (opt.corrupt_manifest) {
      // The torn-superblock drill: wreck BOTH checkpoint slots of an
      // existing image, so the next --resume must fail typed (exit 4).
      std::uint64_t base = 0;
      extmem::BlockDevice device = load_device(&base);
      pipeline::ManifestStore store = pipeline::ManifestStore::attach(
          device, base,
          pipeline::worst_case_manifest_bytes(cfg.shards, n,
                                              cfg.memory_elems));
      store.corrupt_slot(0);
      store.corrupt_slot(1);
      save_device(device, base);
      std::cerr << "mpsort: corrupted both manifest slots in "
                << opt.device_path << "\n";
      return 0;
    }

    std::uint64_t base = 0;
    std::optional<extmem::BlockDevice> device;
    std::optional<pipeline::Pipeline<std::int32_t>> pipe;
    if (opt.resume) {
      device.emplace(load_device(&base));
      pipe.emplace(pipeline::Pipeline<std::int32_t>::resume(*device, base,
                                                            n, cfg));
    } else {
      device.emplace();
      extmem::RunWriter<std::int32_t> writer(*device);
      writer.append(input_data.data(), input_data.size());
      pipe.emplace(pipeline::Pipeline<std::int32_t>::start(
          *device, writer.finish(), cfg));
      base = pipe->manifest_block();
    }

    Timer timer;
    try {
      const pipeline::PipelineReport report = pipe->run();
      save_device(*device, base);
      extmem::RunReader<std::int32_t> reader(*device, report.output);
      std::vector<std::int32_t> sorted;
      sorted.reserve(static_cast<std::size_t>(n));
      while (!reader.empty()) sorted.push_back(reader.next());
      write_binary(opt.files[1], sorted);
      std::cerr << "mpsort: xsorted " << n << " records in "
                << timer.seconds() * 1e3 << " ms (runs_formed="
                << report.runs_formed << " segments_merged="
                << report.segments_merged << " ranks_exchanged="
                << report.ranks_exchanged << " checkpoints="
                << report.checkpoints << " resumes=" << report.resumes
                << ")\n";
      return 0;
    } catch (const pipeline::CrashError& error) {
      // Injected process death: persist the device exactly as the crash
      // left it (last durable checkpoint included) and hand the resume
      // token to the next incarnation.
      save_device(*device, base);
      std::cerr << "mpsort: " << error.what()
                << "; device image saved, rerun with --resume\n";
      return 3;
    }
  } catch (const pipeline::ManifestError& error) {
    std::cerr << "mpsort: manifest unrecoverable: " << error.what()
              << "; full restart (without --resume) required\n";
    return 4;
  } catch (const extmem::IoError& error) {
    std::cerr << "mpsort: xsort failed: " << error.what() << "\n";
    return 1;
  } catch (const dist::NetError& error) {
    std::cerr << "mpsort: xsort failed: " << error.what() << "\n";
    return 1;
  }
}

int run_command(const std::string& command, const Options& opt) {
  if ((opt.fault_rate > 0.0 || opt.lane_fault_rate > 0.0) &&
      !(command == "sort" && opt.binary)) {
    std::cerr << "--fault-rate/--lane-fault-rate require `sort --binary` "
                 "(the fallible paths)\n";
    usage();
  }
  if (opt.fault_rate > 0.0 && opt.lane_fault_rate > 0.0) {
    std::cerr << "--fault-rate and --lane-fault-rate are separate drills; "
                 "pick one\n";
    usage();
  }
  if (command == "xsort") return run_xsort(opt);
  if (command == "sort") {
    if (opt.files.size() != 2) usage();
    if (opt.binary && opt.fault_rate > 0.0) return run_fault_sort(opt);
    if (opt.binary && opt.lane_fault_rate > 0.0)
      return run_lane_fault_sort(opt);
    if (opt.binary)
      return run_sort(opt, read_binary(opt.files[0]), std::less<>{},
                      write_binary);
    if (opt.numeric)
      return run_sort(opt, read_lines(opt.files[0]), NumericLess{},
                      write_lines);
    return run_sort(opt, read_lines(opt.files[0]), std::less<>{},
                    write_lines);
  }
  if (command == "merge") {
    if (opt.files.size() < 3) usage();
    if (opt.binary) {
      std::vector<std::vector<std::int32_t>> inputs;
      for (std::size_t f = 1; f < opt.files.size(); ++f)
        inputs.push_back(read_binary(opt.files[f]));
      return run_merge(opt, std::move(inputs), std::less<>{}, write_binary);
    }
    std::vector<std::vector<std::string>> inputs;
    for (std::size_t f = 1; f < opt.files.size(); ++f)
      inputs.push_back(read_lines(opt.files[f]));
    if (opt.numeric)
      return run_merge(opt, std::move(inputs), NumericLess{}, write_lines);
    return run_merge(opt, std::move(inputs), std::less<>{}, write_lines);
  }
  if (command == "check") {
    if (opt.files.size() != 1) usage();
    if (opt.binary)
      return run_check(opt.files[0], read_binary(opt.files[0]),
                       std::less<>{});
    if (opt.numeric)
      return run_check(opt.files[0], read_lines(opt.files[0]),
                       NumericLess{});
    return run_check(opt.files[0], read_lines(opt.files[0]), std::less<>{});
  }
  usage();
}

/// Disarms the recorders and writes the requested artifacts. Runs after
/// the command returns, when all instrumented work is quiescent.
void finalize_observability(const Options& opt) {
  if (!opt.trace_path.empty()) {
    obs::disarm_tracing();
    if (!obs::kTraceCompiledIn)
      std::cerr << "mpsort: tracing compiled out (MERGEPATH_TRACE=OFF); "
                   "writing an empty trace\n";
    obs::write_chrome_trace_file(opt.trace_path);
    std::cerr << "trace written to " << opt.trace_path << "\n";
  }
  if (opt.metrics || !opt.metrics_json.empty() ||
      !opt.prometheus_path.empty()) {
    obs::LaneMetrics::instance().disarm();
    obs::disarm_span_stats();
    if (opt.metrics) {
      const obs::LaneReport report = obs::LaneMetrics::instance().snapshot();
      report.to_table().print(std::cerr);
      std::cerr << "jobs " << report.jobs << ", barrier waits "
                << report.barrier_waits << " (" << report.barrier_ns
                << " ns), checkouts " << report.checkouts << " ("
                << report.checkout_ns << " ns)\n"
                << "lane time max/mean imbalance "
                << report.imbalance << "\n";
      const std::vector<obs::SpanStat> stats = obs::span_stats_snapshot();
      if (!stats.empty()) {
        Table table({"span", "count", "p50_us", "p95_us", "p99_us",
                     "max_us", "total_ms"});
        for (const obs::SpanStat& stat : stats)
          table.add_row(
              {stat.name, std::to_string(stat.count),
               fmt_double(static_cast<double>(stat.p50_ns) / 1e3, 2),
               fmt_double(static_cast<double>(stat.p95_ns) / 1e3, 2),
               fmt_double(static_cast<double>(stat.p99_ns) / 1e3, 2),
               fmt_double(static_cast<double>(stat.max_ns) / 1e3, 2),
               fmt_double(static_cast<double>(stat.sum_ns) / 1e6, 3)});
        table.print(std::cerr);
      }
    }
    if (!opt.metrics_json.empty() &&
        obs::write_metrics_json_file(opt.metrics_json))
      std::cerr << "metrics written to " << opt.metrics_json << "\n";
    if (!opt.prometheus_path.empty() &&
        obs::export_prometheus_file(opt.prometheus_path))
      std::cerr << "prometheus metrics written to " << opt.prometheus_path
                << "\n";
  }
  // Flight recorder: --flight-dump forces a snapshot; otherwise a dump
  // destination (flag or MP_FLIGHT_DUMP) only fires if the run degraded.
  if (!opt.flight_dump.empty()) obs::set_flight_dump_path(opt.flight_dump);
  obs::flight_write_pending(/*force=*/!opt.flight_dump.empty());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) usage();
  const std::string command = argv[1];
  const Options opt = parse(argc, argv, 2);

  std::cerr << "mpsort: " << kernels::kernel_banner() << "\n";

  if (opt.metrics || !opt.metrics_json.empty() ||
      !opt.prometheus_path.empty()) {
    obs::LaneMetrics::instance().arm();
    obs::reset_span_stats();
    obs::arm_span_stats();
  }
  if (!opt.trace_path.empty()) obs::arm_tracing();

  const int rc = run_command(command, opt);
  finalize_observability(opt);
  return rc;
}

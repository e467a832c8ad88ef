// mpchaos — kill/restart chaos driver for the crash-consistent pipeline
// (docs/PIPELINE.md). Everything runs in-process against one simulated
// device, so the drill is fast enough for CI yet exercises the identical
// manifest/rollback machinery the cross-process `mpsort xsort` drill does.
//
//   mpchaos [--n N] [--shards S] [--memory M] [--segment-blocks B]
//           [--rate R] [--seed S] [--threads T] [--sweep]
//           [--corrupt-manifest]
//
// Default drill: a clean reference run, then a crash loop at --rate
// (default 1.0 — a crash drawn at EVERY durable step) that answers each
// injected death with a resume from the on-device manifest until the sort
// completes. The output must be byte-exact against the reference and the
// cumulative manifest counters must equal the clean run's — the proof
// that no completed unit's I/O was ever redone. Prints
//   chaos: completed after N incarnations (M crashes), output verified
// on success.
//
// --sweep additionally kills at every step index the clean run executed
// (a scripted crash per step, one full crash/resume cycle each).
// --corrupt-manifest crashes mid-run, wrecks both manifest slots, checks
// the typed ManifestError surfaces on resume, then checks a full restart
// still sorts. Exit 0 = all drills passed, 1 = violation, 2 = usage.

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "extmem/block_device.hpp"
#include "extmem/run_file.hpp"
#include "fault/fault.hpp"
#include "pipeline/pipeline.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace mp;

[[noreturn]] void usage() {
  std::cerr <<
      "usage: mpchaos [--n N] [--shards S] [--memory M]\n"
      "               [--segment-blocks B] [--rate R] [--seed S]\n"
      "               [--threads T] [--sweep] [--corrupt-manifest]\n"
      "kill/restart drill for the checkpointed external-sort pipeline:\n"
      "crash at rate R (default 1.0) at every durable step, resume until\n"
      "completion, verify bytes + no-redo counters. --sweep kills at\n"
      "every step of a clean run; --corrupt-manifest checks the torn-\n"
      "superblock path. exit 0 = passed, 1 = violation.\n";
  std::exit(2);
}

struct Options {
  std::uint64_t n = 50000;
  unsigned shards = 3;
  std::uint64_t memory_elems = 4096;
  std::uint64_t segment_blocks = 2;
  double rate = 1.0;
  std::uint64_t seed = 0;
  unsigned threads = 0;
  bool sweep = false;
  bool corrupt_manifest = false;
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

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--sweep") {
      opt.sweep = true;
    } else if (arg == "--corrupt-manifest") {
      opt.corrupt_manifest = true;
    } else if (arg == "--n") {
      if (++i >= argc) usage();
      opt.n = parse_u64_flag("--n", argv[i]);
    } else if (arg == "--shards") {
      if (++i >= argc) usage();
      opt.shards = static_cast<unsigned>(parse_u64_flag("--shards", argv[i]));
    } else if (arg == "--memory") {
      if (++i >= argc) usage();
      opt.memory_elems = parse_u64_flag("--memory", argv[i]);
    } else if (arg == "--segment-blocks") {
      if (++i >= argc) usage();
      opt.segment_blocks = parse_u64_flag("--segment-blocks", argv[i]);
    } else if (arg == "--seed") {
      if (++i >= argc) usage();
      opt.seed = parse_u64_flag("--seed", argv[i]);
    } else if (arg == "--threads") {
      if (++i >= argc) usage();
      opt.threads = static_cast<unsigned>(
          parse_u64_flag("--threads", argv[i]));
    } else if (arg == "--rate") {
      if (++i >= argc) usage();
      try {
        std::size_t parsed = 0;
        opt.rate = std::stod(argv[i], &parsed);
        if (parsed != std::string(argv[i]).size() || opt.rate < 0.0 ||
            opt.rate > 1.0)
          throw std::invalid_argument(argv[i]);
      } catch (const std::exception&) {
        std::cerr << "--rate expects a number in [0, 1], got '" << argv[i]
                  << "'\n";
        usage();
      }
    } else {
      std::cerr << "unknown argument " << arg << "\n";
      usage();
    }
  }
  return opt;
}

extmem::DeviceConfig drill_blocks() {
  extmem::DeviceConfig config;
  config.block_bytes = 4096;  // 1024 int32 per block: many checkpoints
  return config;
}

pipeline::PipelineConfig pipeline_config(const Options& opt) {
  pipeline::PipelineConfig cfg;
  cfg.shards = opt.shards;
  cfg.memory_elems = opt.memory_elems;
  cfg.segment_blocks = opt.segment_blocks;
  cfg.exec = Executor{nullptr, opt.threads};
  return cfg;
}

extmem::RunHandle write_input(extmem::BlockDevice& device,
                              const std::vector<std::int32_t>& values) {
  extmem::RunWriter<std::int32_t> writer(device);
  writer.append(values.data(), values.size());
  return writer.finish();
}

std::vector<std::int32_t> read_run(extmem::BlockDevice& device,
                                   extmem::RunHandle run) {
  extmem::RunReader<std::int32_t> reader(device, run);
  std::vector<std::int32_t> out;
  out.reserve(static_cast<std::size_t>(run.element_count));
  while (!reader.empty()) out.push_back(reader.next());
  return out;
}

int fail(const std::string& what) {
  std::cerr << "chaos: FAILED: " << what << "\n";
  return 1;
}

struct ChaosOutcome {
  pipeline::PipelineReport report;
  unsigned incarnations = 1;
};

/// Drives start() plus the kill/resume loop to completion. Any exception
/// other than CrashError propagates to main's diagnostic handler.
ChaosOutcome run_to_completion(extmem::BlockDevice& device,
                               extmem::RunHandle input, std::uint64_t n,
                               const pipeline::PipelineConfig& cfg) {
  auto pipe = pipeline::Pipeline<std::int32_t>::start(device, input, cfg);
  const std::uint64_t base = pipe.manifest_block();
  ChaosOutcome out;
  for (;;) {
    try {
      out.report = pipe.run();
      return out;
    } catch (const pipeline::CrashError&) {
      ++out.incarnations;
      if (out.incarnations > 1000000u)
        throw std::runtime_error("crash loop diverged (1e6 incarnations)");
      pipe = pipeline::Pipeline<std::int32_t>::resume(device, base, n, cfg);
    }
  }
}

bool counters_equal(const pipeline::PipelineReport& a,
                    const pipeline::PipelineReport& b) {
  return a.runs_formed == b.runs_formed &&
         a.segments_merged == b.segments_merged &&
         a.ranks_exchanged == b.ranks_exchanged &&
         a.checkpoints == b.checkpoints;
}

int run_drills(const Options& opt) {
  Xoshiro256 rng(opt.seed ^ 0xc4a05ULL);
  std::vector<std::int32_t> values(static_cast<std::size_t>(opt.n));
  for (auto& x : values)
    x = static_cast<std::int32_t>(rng() % 100000);  // plenty of ties
  std::vector<std::int32_t> expected = values;
  std::sort(expected.begin(), expected.end());
  const pipeline::PipelineConfig cfg = pipeline_config(opt);

  // Clean reference: the bytes and counters every drill must reproduce.
  extmem::BlockDevice clean_device(drill_blocks());
  const ChaosOutcome clean = run_to_completion(
      clean_device, write_input(clean_device, values), opt.n, cfg);
  if (clean.incarnations != 1) return fail("clean run crashed");
  if (read_run(clean_device, clean.report.output) != expected)
    return fail("clean run produced wrong bytes");

  // The main drill: rate-driven crashes, resumed until completion.
  {
    extmem::BlockDevice device(drill_blocks());
    fault::FaultPlan plan(fault::FaultConfig{opt.seed, opt.rate});
    pipeline::PipelineConfig crashy = cfg;
    crashy.crash_plan = &plan;
    Timer timer;
    const ChaosOutcome outcome = run_to_completion(
        device, write_input(device, values), opt.n, crashy);
    if (read_run(device, outcome.report.output) != expected)
      return fail("crash-loop output differs from the fault-free sort");
    if (!counters_equal(outcome.report, clean.report))
      return fail("crash loop redid completed work (counter mismatch)");
    if (outcome.report.resumes != outcome.incarnations - 1)
      return fail("resume counter does not match incarnations");
    if (opt.rate > 0.0 && outcome.incarnations < 2)
      return fail("crash schedule never fired");
    std::cout << "chaos: completed after " << outcome.incarnations
              << " incarnations (" << outcome.incarnations - 1
              << " crashes), output verified ["
              << timer.seconds() * 1e3 << " ms, steps="
              << clean.report.steps << " checkpoints="
              << clean.report.checkpoints << "]\n";
  }

  // --sweep: a scripted kill at EVERY step the clean run executed.
  if (opt.sweep) {
    for (std::uint64_t kill = 0; kill < clean.report.steps; ++kill) {
      extmem::BlockDevice device(drill_blocks());
      fault::FaultPlan plan;
      plan.fail_op(kill, fault::FaultKind::kCrash);
      pipeline::PipelineConfig killed = cfg;
      killed.crash_plan = &plan;
      const ChaosOutcome outcome = run_to_completion(
          device, write_input(device, values), opt.n, killed);
      if (read_run(device, outcome.report.output) != expected)
        return fail("sweep kill at step " + std::to_string(kill) +
                    ": wrong bytes after resume");
      if (!counters_equal(outcome.report, clean.report))
        return fail("sweep kill at step " + std::to_string(kill) +
                    ": redone work (counter mismatch)");
    }
    std::cout << "chaos: sweep killed at each of " << clean.report.steps
              << " steps, all resumed byte-exact\n";
  }

  // --corrupt-manifest: the torn-superblock path must surface the typed
  // error on resume, and a full restart must still sort.
  if (opt.corrupt_manifest) {
    extmem::BlockDevice device(drill_blocks());
    const extmem::RunHandle input = write_input(device, values);
    fault::FaultPlan plan;
    plan.fail_op(8, fault::FaultKind::kCrash);
    pipeline::PipelineConfig killed = cfg;
    killed.crash_plan = &plan;
    auto pipe =
        pipeline::Pipeline<std::int32_t>::start(device, input, killed);
    const std::uint64_t base = pipe.manifest_block();
    try {
      pipe.run();
      return fail("scripted crash at step 8 never fired");
    } catch (const pipeline::CrashError&) {
    }
    pipeline::ManifestStore store = pipeline::ManifestStore::attach(
        device, base,
        pipeline::worst_case_manifest_bytes(cfg.shards, opt.n,
                                            cfg.memory_elems));
    store.corrupt_slot(0);
    store.corrupt_slot(1);
    bool typed = false;
    try {
      pipeline::Pipeline<std::int32_t>::resume(device, base, opt.n, cfg);
    } catch (const pipeline::ManifestError&) {
      typed = true;
    }
    if (!typed)
      return fail("resume on a fully corrupt manifest did not throw "
                  "ManifestError");
    auto fresh = pipeline::Pipeline<std::int32_t>::start(device, input, cfg);
    if (read_run(device, fresh.run().output) != expected)
      return fail("full restart after manifest loss produced wrong bytes");
    std::cout << "chaos: corrupt-manifest drill passed (typed error, "
                 "full restart verified)\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  try {
    return run_drills(opt);
  } catch (const std::exception& error) {
    return fail(std::string("unexpected exception: ") + error.what());
  }
}

// Crash/restart property sweeps for the S26 pipeline (see docs/TESTING.md
// and docs/PIPELINE.md).
//
// The contract under test: kill the pipeline at ANY step — every scripted
// step index a clean run executes, and rate-driven schedules across many
// seeds and geometries — then resume from the on-device manifest, and the
// final output is byte-exact against the fault-free run, no device blocks
// leak (orphans below the checkpoint watermark are reclaimed), and the
// cumulative work counters match the clean run's (completed units are
// never re-executed). A torn newest manifest slot falls back to the
// previous checkpoint and still completes byte-exact; both slots corrupt
// is the typed ManifestError, never wrong bytes.
//
// Seed counts drop under sanitizers (10-20x slowdown); every case logs its
// parameters via SCOPED_TRACE so a CI failure replays with --gtest_filter.

#include "pipeline/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "extmem/run_file.hpp"
#include "util/rng.hpp"

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MP_TEST_SANITIZED 1
#endif
#endif
#if !defined(MP_TEST_SANITIZED) && \
    (defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__))
#define MP_TEST_SANITIZED 1
#endif
#ifndef MP_TEST_SANITIZED
#define MP_TEST_SANITIZED 0
#endif

namespace mp::pipeline {
namespace {

#if MP_TEST_SANITIZED
constexpr std::uint64_t kSweepSeeds = 24;
#else
constexpr std::uint64_t kSweepSeeds = 200;
#endif

extmem::DeviceConfig tiny_blocks() {
  extmem::DeviceConfig config;
  config.block_bytes = 256;  // 64 int32 / 32 KeyId per block
  return config;
}

template <typename T>
extmem::RunHandle write_input(extmem::BlockDevice& device,
                              const std::vector<T>& values) {
  extmem::RunWriter<T> writer(device);
  writer.append(values.data(), values.size());
  return writer.finish();
}

template <typename T>
std::vector<T> read_run(extmem::BlockDevice& device, extmem::RunHandle run) {
  extmem::RunReader<T> reader(device, run);
  std::vector<T> out;
  out.reserve(static_cast<std::size_t>(run.element_count));
  while (!reader.empty()) out.push_back(reader.next());
  return out;
}

/// Stability probe: sort by key only, ids record input order. Byte-exact
/// agreement with std::stable_sort across a crash loop proves crashes
/// never reorder equal keys.
struct KeyId {
  std::int32_t key;
  std::int32_t id;
  friend bool operator==(const KeyId&, const KeyId&) = default;
};
struct KeyLess {
  bool operator()(const KeyId& a, const KeyId& b) const {
    return a.key < b.key;
  }
};

std::vector<KeyId> make_records(std::size_t n, std::uint64_t seed) {
  // Tiny key universe => heavy duplication => stability is load-bearing.
  Xoshiro256 rng(seed);
  std::vector<KeyId> out(n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = KeyId{static_cast<std::int32_t>(rng.bounded(48)),
                   static_cast<std::int32_t>(i)};
  return out;
}

/// Steady-state footprint after completion: input run + output run + the
/// two manifest slots. Anything above that is a leak.
std::uint64_t expected_live_blocks(const extmem::BlockDevice& device,
                                   std::uint64_t n, std::uint32_t elem_bytes,
                                   const PipelineConfig& cfg) {
  const std::uint64_t epb = device.config().block_bytes / elem_bytes;
  const std::uint64_t run_blocks = (n + epb - 1) / epb;
  const std::uint64_t slot_blocks = ManifestStore::slot_blocks_for(
      device, worst_case_manifest_bytes(cfg.shards, n, cfg.memory_elems));
  return 2 * run_blocks + 2 * slot_blocks;
}

struct ChaosOutcome {
  PipelineReport report;
  unsigned incarnations = 1;  // crash count + 1
  std::uint64_t manifest_block = 0;
};

/// Drives start() + the kill/resume loop to completion. Every CrashError
/// is answered with a resume from the on-device manifest; any other
/// exception propagates (an abort or a wrong-typed error fails the test).
template <typename T, typename Comp = std::less<>>
ChaosOutcome run_to_completion(extmem::BlockDevice& device,
                               extmem::RunHandle input, std::uint64_t n,
                               const PipelineConfig& cfg, Comp comp = {}) {
  auto pipe = Pipeline<T, Comp>::start(device, input, cfg, comp);
  ChaosOutcome out;
  out.manifest_block = pipe.manifest_block();
  for (;;) {
    try {
      out.report = pipe.run();
      return out;
    } catch (const CrashError&) {
      ++out.incarnations;
      EXPECT_LT(out.incarnations, 100000u) << "crash loop diverged";
      if (out.incarnations >= 100000u) throw;
      pipe = Pipeline<T, Comp>::resume(device, out.manifest_block, n, cfg,
                                       comp);
    }
  }
}

PipelineConfig sweep_config() {
  PipelineConfig cfg;
  cfg.memory_elems = 160;
  cfg.shards = 3;
  cfg.segment_blocks = 2;
  return cfg;
}

/// Kill at EVERY step a clean run executes — not a sample. Each kill k
/// runs the full crash/resume loop to completion and must reproduce the
/// clean run's bytes, its exact work counters (no redone form / merge /
/// exchange units, no extra checkpoints), and its block footprint. The
/// clean run's report goes to `clean_report` when given.
void kill_at_every_step(const PipelineConfig& cfg,
                        PipelineReport* clean_report = nullptr) {
#if MP_TEST_SANITIZED
  const std::size_t n = 450;
#else
  const std::size_t n = 800;
#endif
  const auto values = make_records(n, 0xabcd);
  std::vector<KeyId> expected = values;
  std::stable_sort(expected.begin(), expected.end(), KeyLess{});

  // Clean reference: counters and the step count that bounds the sweep.
  extmem::BlockDevice clean_device(tiny_blocks());
  const extmem::RunHandle clean_input = write_input(clean_device, values);
  const ChaosOutcome clean = run_to_completion<KeyId, KeyLess>(
      clean_device, clean_input, n, cfg);
  ASSERT_EQ(clean.incarnations, 1u);
  ASSERT_EQ(read_run<KeyId>(clean_device, clean.report.output), expected);
  ASSERT_GT(clean.report.steps, 20u);  // the sweep is actually a sweep
  if (clean_report != nullptr) *clean_report = clean.report;

  for (std::uint64_t kill = 0; kill < clean.report.steps; ++kill) {
    SCOPED_TRACE(::testing::Message() << "kill step=" << kill);
    extmem::BlockDevice device(tiny_blocks());
    const extmem::RunHandle input = write_input(device, values);
    fault::FaultPlan plan;  // inert except the script
    plan.fail_op(kill, fault::FaultKind::kCrash);
    PipelineConfig killed = cfg;
    killed.crash_plan = &plan;
    const ChaosOutcome outcome =
        run_to_completion<KeyId, KeyLess>(device, input, n, killed);
    ASSERT_EQ(outcome.incarnations, 2u);  // exactly one scripted death
    ASSERT_EQ(outcome.report.resumes, 1u);
    ASSERT_EQ(read_run<KeyId>(device, outcome.report.output), expected);
    // No-redo proof at every kill point: cumulative manifest counters of
    // the killed run equal the clean run's exactly.
    ASSERT_EQ(outcome.report.runs_formed, clean.report.runs_formed);
    ASSERT_EQ(outcome.report.segments_merged, clean.report.segments_merged);
    ASSERT_EQ(outcome.report.ranks_exchanged,
              clean.report.ranks_exchanged);
    ASSERT_EQ(outcome.report.checkpoints, clean.report.checkpoints);
    ASSERT_EQ(outcome.report.merge_passes, clean.report.merge_passes);
    ASSERT_EQ(device.live_blocks(), expected_live_blocks(device, n, 8, cfg));
  }
}

TEST(PipelineCrashSweep, KillAtEveryStepResumesByteExact) {
  kill_at_every_step(sweep_config());
}

/// The same sweep with the form phase on a 3-lane pool and 80-record
/// runs: each shard forms as a group of three runs and a group of one (a
/// single group of two under sanitizers, where n is smaller), so kills
/// land between the runs of one group's fork.
TEST(PipelineCrashSweep, KillAtEveryStepInsideFormationGroups) {
  ThreadPool pool(2);
  PipelineConfig cfg = sweep_config();
  cfg.memory_elems = 80;
  cfg.exec = Executor{&pool, 3};
  kill_at_every_step(cfg);
}

/// The same sweep across merge passes: two shards of 10 runs merged two
/// at a time take 4 passes, and the passes over 5 and over 3 runs end in
/// a run carried over with no I/O (under sanitizers, 6 runs take 3
/// passes and the pass over 3 runs carries). Kills land inside groups,
/// between a group's last segment and its retirement, and at pass ends.
TEST(PipelineCrashSweep, KillAtEveryStepAcrossMergePasses) {
  PipelineConfig cfg = sweep_config();
  cfg.shards = 2;
  cfg.memory_elems = 40;
  cfg.fan_in = 2;
  PipelineReport clean;
  kill_at_every_step(cfg, &clean);
  EXPECT_GE(clean.merge_passes, 3u);
}

/// Randomized geometries × rate-driven crash schedules. Each seed draws a
/// shape (n, shards, run size, segment size, one or three formation
/// lanes, fan-in) and a crash rate up to 1.0, runs clean
/// and crash-riddled pipelines, and demands byte-exact agreement, counter
/// equality, and a leak-free device.
TEST(PipelineCrashSweep, RandomGeometryCrashLoopsAcrossSeeds) {
  ThreadPool pool(2);
  std::uint64_t crashes_total = 0;
  for (std::uint64_t seed = 0; seed < kSweepSeeds; ++seed) {
    Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    const std::size_t n = 1 + static_cast<std::size_t>(rng.bounded(700));
    PipelineConfig cfg;
    cfg.shards = 1 + static_cast<unsigned>(rng.bounded(5));
    cfg.memory_elems = 48 + rng.bounded(300);
    cfg.segment_blocks = 1 + rng.bounded(4);
    cfg.exec = Executor{&pool, rng.bounded(2) == 0 ? 1u : 3u};
    const double rate = 0.25 + 0.25 * static_cast<double>(rng.bounded(4));
    constexpr std::uint64_t kFanIns[] = {0, 2, 3, 5};
    cfg.fan_in = kFanIns[rng.bounded(4)];
    SCOPED_TRACE(::testing::Message()
                 << "seed=" << seed << " n=" << n << " shards=" << cfg.shards
                 << " memory_elems=" << cfg.memory_elems
                 << " segment_blocks=" << cfg.segment_blocks
                 << " lanes=" << cfg.exec.threads
                 << " fan_in=" << cfg.fan_in << " rate=" << rate);
    const auto values = make_records(n, seed ^ 0x5eedULL);
    std::vector<KeyId> expected = values;
    std::stable_sort(expected.begin(), expected.end(), KeyLess{});

    extmem::BlockDevice clean_device(tiny_blocks());
    const extmem::RunHandle clean_input = write_input(clean_device, values);
    const ChaosOutcome clean = run_to_completion<KeyId, KeyLess>(
        clean_device, clean_input, n, cfg);
    ASSERT_EQ(read_run<KeyId>(clean_device, clean.report.output), expected);

    extmem::BlockDevice device(tiny_blocks());
    const extmem::RunHandle input = write_input(device, values);
    fault::FaultConfig fc;
    fc.seed = seed ^ 0xc0ffeeULL;
    fc.rate = rate;
    fault::FaultPlan plan(fc);
    PipelineConfig crashy = cfg;
    crashy.crash_plan = &plan;
    const ChaosOutcome outcome =
        run_to_completion<KeyId, KeyLess>(device, input, n, crashy);
    crashes_total += outcome.incarnations - 1;
    ASSERT_EQ(read_run<KeyId>(device, outcome.report.output), expected);
    ASSERT_EQ(outcome.report.resumes, outcome.incarnations - 1);
    ASSERT_EQ(outcome.report.runs_formed, clean.report.runs_formed);
    ASSERT_EQ(outcome.report.segments_merged, clean.report.segments_merged);
    ASSERT_EQ(outcome.report.ranks_exchanged,
              clean.report.ranks_exchanged);
    ASSERT_EQ(outcome.report.checkpoints, clean.report.checkpoints);
    ASSERT_EQ(outcome.report.merge_passes, clean.report.merge_passes);
    ASSERT_EQ(device.live_blocks(), expected_live_blocks(device, n, 8, cfg));
  }
  // The sweep must actually be exercising the crash path, heavily.
  EXPECT_GT(crashes_total, kSweepSeeds);
}

/// A torn newest manifest slot is survivable: resume falls back to the
/// previous checkpoint, re-does at most the units since it, and still
/// finishes byte-exact and leak-free. Counters may legitimately exceed the
/// clean run's here — the point of the fallback is bounded redo, not zero
/// redo.
TEST(PipelineCrashSweep, TornNewestSlotFallsBackAndCompletesByteExact) {
  const std::size_t n = 700;
  const PipelineConfig base_cfg = sweep_config();
  for (const std::uint64_t kill : {7u, 13u, 22u, 31u}) {
    SCOPED_TRACE(::testing::Message() << "kill step=" << kill);
    const auto values = make_records(n, kill * 31 + 5);
    std::vector<KeyId> expected = values;
    std::stable_sort(expected.begin(), expected.end(), KeyLess{});
    extmem::BlockDevice device(tiny_blocks());
    const extmem::RunHandle input = write_input(device, values);
    fault::FaultPlan plan;
    plan.fail_op(kill, fault::FaultKind::kCrash);
    PipelineConfig cfg = base_cfg;
    cfg.crash_plan = &plan;
    auto pipe = Pipeline<KeyId, KeyLess>::start(device, input, cfg, {});
    const std::uint64_t base = pipe.manifest_block();
    ASSERT_THROW(pipe.run(), CrashError);

    // The torn write: the newest slot (seq % 2) dies with the process.
    ManifestStore store = ManifestStore::attach(
        device, base,
        worst_case_manifest_bytes(cfg.shards, n, cfg.memory_elems));
    const Manifest at_crash = store.load();
    ASSERT_GE(at_crash.seq, 2u) << "kill too early for a fallback slot";
    store.corrupt_slot(static_cast<unsigned>(at_crash.seq % 2));

    auto resumed = Pipeline<KeyId, KeyLess>::resume(device, base, n, cfg);
    const PipelineReport report = resumed.run();
    EXPECT_EQ(read_run<KeyId>(device, report.output), expected);
    EXPECT_EQ(report.resumes, 1u);
    EXPECT_EQ(device.live_blocks(), expected_live_blocks(device, n, 8, cfg));
  }
}

/// Both slots corrupt at a random crash point, across seeds: always the
/// typed ManifestError (full restart is the documented recovery), never a
/// crash, never wrong bytes from a half-read manifest.
TEST(PipelineCrashSweep, BothSlotsCorruptIsAlwaysTypedErrorAcrossSeeds) {
  const std::size_t n = 500;
  const PipelineConfig base_cfg = sweep_config();
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    Xoshiro256 rng(seed + 101);
    const std::uint64_t kill = rng.bounded(30);
    const auto values = make_records(n, seed);
    extmem::BlockDevice device(tiny_blocks());
    const extmem::RunHandle input = write_input(device, values);
    fault::FaultPlan plan;
    plan.fail_op(kill, fault::FaultKind::kCrash);
    PipelineConfig cfg = base_cfg;
    cfg.crash_plan = &plan;
    auto pipe = Pipeline<KeyId, KeyLess>::start(device, input, cfg, {});
    const std::uint64_t base = pipe.manifest_block();
    ASSERT_THROW(pipe.run(), CrashError);
    ManifestStore store = ManifestStore::attach(
        device, base,
        worst_case_manifest_bytes(cfg.shards, n, cfg.memory_elems));
    store.corrupt_slot(0);
    store.corrupt_slot(1);
    EXPECT_THROW((Pipeline<KeyId, KeyLess>::resume(device, base, n, cfg)),
                 ManifestError);
  }
}

}  // namespace
}  // namespace mp::pipeline

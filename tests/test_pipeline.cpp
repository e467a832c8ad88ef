// Tests for the crash-consistent external-sort pipeline (S26): manifest
// round-trip and torn-write rejection, double-slot fallback, clean
// end-to-end sorting across geometries, grouped run formation identical
// at every lane count, checkpointed merge cursors equal to in-memory
// multiway_select co-ranks, scripted crash/resume, the rate-driven crash
// loop (cumulative counters prove completed work is never redone), disk,
// network, lane and crash faults together, and the MP_FAULT=0 contract
// (crash hooks compile to no-ops). The run reader/writer the pipeline
// drives are tested in test_extmem.cpp.

#include "pipeline/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/multiway_merge.hpp"
#include "extmem/run_file.hpp"
#include "util/rng.hpp"

namespace mp::pipeline {
namespace {

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

std::vector<std::int32_t> make_values(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::int32_t> v(n);
  for (auto& x : v)
    x = static_cast<std::int32_t>(rng() % 1000);  // plenty of ties
  return v;
}

Manifest sample_manifest() {
  Manifest m;
  m.seq = 7;
  m.phase = Phase::kMerge;
  m.elem_bytes = 4;
  m.total_elements = 1234;
  m.input = {3, 1234};
  m.output = {90, 1234};
  m.watermark = 55;
  m.ranks_done = 1;
  m.exchange_cursors = {10, 20, 30};
  m.runs_formed = 6;
  m.segments_merged = 4;
  m.ranks_exchanged = 1;
  m.checkpoints = 11;
  m.resumes = 2;
  m.shards.resize(3);
  m.shards[0].input_first = 0;
  m.shards[0].input_count = 411;
  m.shards[0].formed = 411;
  m.shards[0].runs = {{3, 100}, {8, 311}};
  m.shards[0].sorted = {40, 411};
  m.shards[0].segments_done = 2;
  m.shards[0].segment_count = 4;
  m.shards[0].cursors = {60, 70};
  m.shards[0].group = 1;
  m.shards[0].passes = 2;
  return m;
}

TEST(Manifest, SerializeDeserializeRoundTrip) {
  const Manifest m = sample_manifest();
  const std::vector<std::uint8_t> image = serialize_manifest(m);
  const Manifest back = deserialize_manifest(image.data(), image.size());
  EXPECT_EQ(back, m);
}

TEST(Manifest, RejectsEveryCorruptByte) {
  const Manifest m = sample_manifest();
  const std::vector<std::uint8_t> image = serialize_manifest(m);
  // Flipping ANY single byte must be detected (magic, field, or checksum).
  for (std::size_t at = 0; at < image.size(); ++at) {
    std::vector<std::uint8_t> bad = image;
    bad[at] ^= 0x5a;
    EXPECT_THROW(deserialize_manifest(bad.data(), bad.size()), ManifestError)
        << "byte " << at;
  }
}

TEST(Manifest, RejectsTruncation) {
  const std::vector<std::uint8_t> image =
      serialize_manifest(sample_manifest());
  for (std::size_t len : {std::size_t{0}, std::size_t{4}, image.size() / 2,
                          image.size() - 1}) {
    EXPECT_THROW(deserialize_manifest(image.data(), len), ManifestError);
  }
}

TEST(ManifestStore, AlternatesSlotsAndLoadsNewest) {
  extmem::BlockDevice device(tiny_blocks());
  ManifestStore store = ManifestStore::create(device, 4096);
  EXPECT_EQ(store.slot_blocks(), 16u);
  Manifest m = sample_manifest();
  m.seq = 0;
  store.write(m);  // seq 1 -> slot 1
  EXPECT_EQ(m.seq, 1u);
  EXPECT_EQ(store.load().seq, 1u);
  m.checkpoints = 99;
  store.write(m);  // seq 2 -> slot 0
  const Manifest latest = store.load();
  EXPECT_EQ(latest.seq, 2u);
  EXPECT_EQ(latest.checkpoints, 99u);
}

TEST(ManifestStore, TornNewestSlotFallsBackToPreviousCheckpoint) {
  extmem::BlockDevice device(tiny_blocks());
  ManifestStore store = ManifestStore::create(device, 4096);
  Manifest m = sample_manifest();
  m.seq = 0;
  m.checkpoints = 1;
  store.write(m);  // seq 1 -> slot 1
  m.checkpoints = 2;
  store.write(m);  // seq 2 -> slot 0 (the newest)
  store.corrupt_slot(0);  // the torn write
  const Manifest survivor = store.load();
  EXPECT_EQ(survivor.seq, 1u);
  EXPECT_EQ(survivor.checkpoints, 1u);
}

TEST(ManifestStore, BothSlotsCorruptIsTypedError) {
  extmem::BlockDevice device(tiny_blocks());
  ManifestStore store = ManifestStore::create(device, 4096);
  Manifest m = sample_manifest();
  store.write(m);
  store.write(m);
  store.corrupt_slot(0);
  store.corrupt_slot(1);
  EXPECT_THROW(store.load(), ManifestError);
}

TEST(ManifestStore, UnwrittenRegionIsTypedError) {
  extmem::BlockDevice device(tiny_blocks());
  ManifestStore store = ManifestStore::create(device, 4096);
  EXPECT_THROW(store.load(), ManifestError);
}

/// Stability probe: sort by key only, ids record input order.
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

PipelineConfig small_config() {
  PipelineConfig cfg;
  cfg.memory_elems = 300;
  cfg.shards = 3;
  cfg.segment_blocks = 2;
  return cfg;
}

TEST(Pipeline, SortsAndIsStableEndToEnd) {
  extmem::BlockDevice device(tiny_blocks());
  Xoshiro256 rng(1);
  std::vector<KeyId> values(2500);
  for (std::size_t i = 0; i < values.size(); ++i)
    values[i] = {static_cast<std::int32_t>(rng() % 50),
                 static_cast<std::int32_t>(i)};
  const extmem::RunHandle input = write_input(device, values);
  auto pipe =
      Pipeline<KeyId, KeyLess>::start(device, input, small_config());
  const PipelineReport report = pipe.run();
  std::vector<KeyId> expected = values;
  std::stable_sort(expected.begin(), expected.end(), KeyLess{});
  EXPECT_EQ(read_run<KeyId>(device, report.output), expected);
  // The input run is never modified.
  EXPECT_EQ(read_run<KeyId>(device, input), values);
  EXPECT_GT(report.runs_formed, 3u);
  EXPECT_GT(report.checkpoints, 0u);
  EXPECT_EQ(report.resumes, 0u);
}

TEST(Pipeline, GeometryMatrixMatchesStdSort) {
  struct Shape {
    std::size_t n;
    PipelineConfig cfg;
  };
  std::vector<Shape> shapes;
  for (const unsigned shards : {1u, 2u, 5u}) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{63},
                                std::size_t{64}, std::size_t{1017}}) {
      PipelineConfig cfg;
      cfg.shards = shards;
      cfg.memory_elems = 100;
      cfg.segment_blocks = 1;
      shapes.push_back({n, cfg});
    }
  }
  for (const unsigned shards : {1u, 2u}) {
    // Merge passes of 3 runs: 11 runs (one shard) take 3 passes, the
    // second ending in a carried run; 6 runs per shard (two) take 2.
    PipelineConfig cfg;
    cfg.shards = shards;
    cfg.memory_elems = 100;
    cfg.segment_blocks = 1;
    cfg.fan_in = 3;
    shapes.push_back({1017, cfg});
  }
  {  // one-lane formation groups and checkpoint-free mode
    PipelineConfig cfg = small_config();
    cfg.exec.threads = 1;
    shapes.push_back({800, cfg});
    cfg = small_config();
    cfg.checkpoints = false;
    shapes.push_back({800, cfg});
  }
  int case_index = 0;
  for (const Shape& shape : shapes) {
    extmem::BlockDevice device(tiny_blocks());
    const auto values = make_values(shape.n, 1000 + shape.n);
    const extmem::RunHandle input = write_input(device, values);
    auto pipe = Pipeline<std::int32_t>::start(device, input, shape.cfg);
    const PipelineReport report = pipe.run();
    std::vector<std::int32_t> expected = values;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(read_run<std::int32_t>(device, report.output), expected)
        << "case " << case_index << " n=" << shape.n
        << " shards=" << shape.cfg.shards;
    if (shape.cfg.fan_in != 0) {
      EXPECT_GE(report.merge_passes, 2u) << "case " << case_index;
    }
    ++case_index;
  }
}

TEST(Pipeline, GroupedFormationMatchesAcrossLaneCounts) {
  // A formation group is one chunk per lane, so the lane count decides
  // how the runs are batched — and nothing else. 2500 records over 3
  // shards (833/833/834) with 65-record runs: 13 runs per shard, so every
  // lane count from 2 to 4 ends each shard in a short group, every shard
  // ends in a short run, and runs end mid-block (32 KeyId per block).
  const std::size_t n = 2500;
  const std::uint64_t runs = 39;
  Xoshiro256 rng(9);
  std::vector<KeyId> values(n);
  for (std::size_t i = 0; i < n; ++i)
    values[i] = {static_cast<std::int32_t>(rng() % 40),
                 static_cast<std::int32_t>(i)};
  std::vector<KeyId> expected = values;
  std::stable_sort(expected.begin(), expected.end(), KeyLess{});
  struct Outcome {
    std::vector<KeyId> output;
    PipelineReport report;
    extmem::DeviceStats stats;
    std::vector<extmem::RunHandle> runs;  // every shard's, in order
  };
  auto run_with = [&](unsigned lanes) {
    ThreadPool pool(static_cast<int>(lanes) - 1);
    PipelineConfig cfg = small_config();
    cfg.memory_elems = 65;
    cfg.exec = Executor{&pool, lanes};
    Outcome out;
    {
      extmem::BlockDevice device(tiny_blocks());
      const extmem::RunHandle input = write_input(device, values);
      device.reset_stats();
      auto pipe = Pipeline<KeyId, KeyLess>::start(device, input, cfg);
      out.report = pipe.run();
      out.stats = device.stats();
      out.output = read_run<KeyId>(device, out.report.output);
    }
    if constexpr (fault::kFaultCompiledIn) {
      // The same run killed at the end of the form phase (two steps per
      // run), where the manifest still lists every formed run.
      extmem::BlockDevice device(tiny_blocks());
      const extmem::RunHandle input = write_input(device, values);
      fault::FaultPlan plan;
      plan.fail_op(2 * runs, fault::FaultKind::kCrash);
      cfg.crash_plan = &plan;
      auto pipe = Pipeline<KeyId, KeyLess>::start(device, input, cfg);
      EXPECT_THROW(pipe.run(), CrashError);
      for (const ShardManifest& sh : pipe.manifest().shards) {
        EXPECT_EQ(sh.formed, sh.input_count);
        out.runs.insert(out.runs.end(), sh.runs.begin(), sh.runs.end());
      }
    }
    return out;
  };
  const Outcome one = run_with(1);
  EXPECT_EQ(one.output, expected);
  EXPECT_EQ(one.report.runs_formed, runs);
  if constexpr (fault::kFaultCompiledIn) {
    EXPECT_EQ(one.runs.size(), runs);
  }
  for (const unsigned lanes : {2u, 3u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "lanes=" << lanes);
    const Outcome many = run_with(lanes);
    EXPECT_EQ(many.output, one.output);
    EXPECT_EQ(many.report.runs_formed, one.report.runs_formed);
    EXPECT_EQ(many.report.checkpoints, one.report.checkpoints);
    EXPECT_EQ(many.report.steps, one.report.steps);
    EXPECT_EQ(many.runs, one.runs);
    EXPECT_EQ(many.stats.block_reads, one.stats.block_reads);
    EXPECT_EQ(many.stats.block_writes, one.stats.block_writes);
  }
}

TEST(Pipeline, CheckpointedCursorsAreMultiwaySelectCoRanks) {
  // Crash after every unit and compare each checkpointed frontier with
  // multiway_select over in-memory copies of the runs it indexes. Heavy
  // ties, and runs (300) and shards (833/834) that end mid-block (32
  // KeyId per block), so unit ends fall mid-block in every run.
  if constexpr (!fault::kFaultCompiledIn) GTEST_SKIP();
  const std::size_t n = 2500;
  const std::uint64_t epb = 32;
  extmem::BlockDevice device(tiny_blocks());
  Xoshiro256 rng(5);
  std::vector<KeyId> values(n);
  for (std::size_t i = 0; i < n; ++i)
    values[i] = {static_cast<std::int32_t>(rng() % 7),
                 static_cast<std::int32_t>(i)};
  const extmem::RunHandle input = write_input(device, values);
  fault::FaultConfig fc;
  fc.seed = 3;
  fc.rate = 1.0;
  fault::FaultPlan plan(fc);
  PipelineConfig cfg = small_config();
  cfg.crash_plan = &plan;
  auto co_ranks = [&](const std::vector<extmem::RunHandle>& handles,
                      std::uint64_t rank) {
    std::vector<std::vector<KeyId>> copies;
    for (const extmem::RunHandle& h : handles)
      copies.push_back(read_run<KeyId>(device, h));
    std::vector<std::span<const KeyId>> views(copies.begin(), copies.end());
    const std::vector<std::size_t> pos = multiway_select(
        std::span<const std::span<const KeyId>>(views), rank, KeyLess{});
    return std::vector<std::uint64_t>(pos.begin(), pos.end());
  };
  auto pipe = Pipeline<KeyId, KeyLess>::start(device, input, cfg);
  const std::uint64_t base = pipe.manifest_block();
  std::size_t segment_checks = 0, rank_checks = 0, mid_block = 0;
  PipelineReport report;
  for (;;) {
    const Manifest& m = pipe.manifest();
    if (m.phase == Phase::kMerge) {
      for (const ShardManifest& sh : m.shards) {
        if (sh.cursors.empty()) continue;  // not started, aliased or done
        const std::uint64_t rank = std::min<std::uint64_t>(
            sh.input_count, sh.segments_done * cfg.segment_blocks * epb);
        EXPECT_EQ(sh.cursors, co_ranks(sh.runs, rank)) << "rank " << rank;
        ++segment_checks;
        for (const std::uint64_t c : sh.cursors) mid_block += c % epb != 0;
      }
    } else if (m.phase == Phase::kExchange) {
      std::vector<extmem::RunHandle> sorted;
      for (const ShardManifest& sh : m.shards) sorted.push_back(sh.sorted);
      const std::uint64_t rank =
          m.ranks_done >= cfg.shards
              ? n
              : (m.ranks_done * n / cfg.shards) / epb * epb;
      EXPECT_EQ(m.exchange_cursors, co_ranks(sorted, rank)) << "rank " << rank;
      ++rank_checks;
      for (const std::uint64_t c : m.exchange_cursors)
        mid_block += c % epb != 0;
    }
    try {
      report = pipe.run();
      break;
    } catch (const CrashError&) {
      pipe = Pipeline<KeyId, KeyLess>::resume(device, base, n, cfg);
    }
  }
  std::vector<KeyId> expected = values;
  std::stable_sort(expected.begin(), expected.end(), KeyLess{});
  EXPECT_EQ(read_run<KeyId>(device, report.output), expected);
  // Each frontier once: every shard's zero frontier, then every unit's.
  EXPECT_EQ(segment_checks, report.segments_merged + cfg.shards);
  EXPECT_EQ(rank_checks, cfg.shards + 1u);
  EXPECT_GT(mid_block, 0u);
}

/// Expected steady-state block footprint after a completed pipeline:
/// the input run, the output run, and the two manifest slots. Everything
/// else (formed runs, shard runs, orphans) must have been released.
std::uint64_t expected_live_blocks(const extmem::BlockDevice& device,
                                   std::uint64_t n, std::uint32_t elem_bytes,
                                   const PipelineConfig& cfg) {
  const std::uint64_t epb = device.config().block_bytes / elem_bytes;
  const std::uint64_t run_blocks = (n + epb - 1) / epb;
  const std::uint64_t slot_blocks = ManifestStore::slot_blocks_for(
      device, worst_case_manifest_bytes(cfg.shards, n, cfg.memory_elems));
  return 2 * run_blocks + 2 * slot_blocks;
}

TEST(Pipeline, ScriptedCrashThenResumeIsByteExactAndLeakFree) {
  if constexpr (!fault::kFaultCompiledIn) GTEST_SKIP();
  const std::size_t n = 1200;
  const auto values = make_values(n, 77);
  std::vector<std::int32_t> expected = values;
  std::sort(expected.begin(), expected.end());
  // Kill at a few hand-picked steps: the very first boundary, a
  // pre-checkpoint (non-durable) one, and some mid-pipeline ones.
  for (const std::uint64_t kill : {0u, 1u, 4u, 9u, 16u, 25u}) {
    extmem::BlockDevice device(tiny_blocks());
    const extmem::RunHandle input = write_input(device, values);
    fault::FaultPlan plan;  // inert except the script
    plan.fail_op(kill, fault::FaultKind::kCrash);
    PipelineConfig cfg = small_config();
    cfg.crash_plan = &plan;
    auto pipe = Pipeline<std::int32_t>::start(device, input, cfg);
    const std::uint64_t base = pipe.manifest_block();
    bool crashed = false;
    PipelineReport report;
    for (int incarnation = 0;; ++incarnation) {
      ASSERT_LT(incarnation, 5);
      try {
        report = pipe.run();
        break;
      } catch (const CrashError& e) {
        crashed = true;
        EXPECT_EQ(e.step(), kill);
        pipe = Pipeline<std::int32_t>::resume(device, base, n, cfg);
      }
    }
    EXPECT_TRUE(crashed) << "kill=" << kill;
    EXPECT_EQ(read_run<std::int32_t>(device, report.output), expected)
        << "kill=" << kill;
    EXPECT_EQ(report.resumes, 1u);
    EXPECT_EQ(device.live_blocks(), expected_live_blocks(device, n, 4, cfg))
        << "kill=" << kill;
  }
}

TEST(Pipeline, RateOneCrashLoopNeverRedoesCompletedWork) {
  const std::size_t n = 1000;
  const auto values = make_values(n, 3);
  std::vector<std::int32_t> expected = values;
  std::sort(expected.begin(), expected.end());

  // Clean reference run: counters and output.
  PipelineConfig cfg = small_config();
  extmem::BlockDevice clean_device(tiny_blocks());
  const extmem::RunHandle clean_input = write_input(clean_device, values);
  auto clean = Pipeline<std::int32_t>::start(clean_device, clean_input, cfg);
  const PipelineReport clean_report = clean.run();
  ASSERT_EQ(read_run<std::int32_t>(clean_device, clean_report.output),
            expected);

  // Crash at EVERY durable point: each incarnation completes exactly one
  // new unit, then dies.
  extmem::BlockDevice device(tiny_blocks());
  const extmem::RunHandle input = write_input(device, values);
  fault::FaultConfig fc;
  fc.seed = 11;
  fc.rate = 1.0;
  fault::FaultPlan plan(fc);
  cfg.crash_plan = &plan;
  auto pipe = Pipeline<std::int32_t>::start(device, input, cfg);
  const std::uint64_t base = pipe.manifest_block();
  unsigned incarnations = 1;
  PipelineReport report;
  for (;;) {
    try {
      report = pipe.run();
      break;
    } catch (const CrashError&) {
      ++incarnations;
      ASSERT_LT(incarnations, 10000u);
      pipe = Pipeline<std::int32_t>::resume(device, base, n, cfg);
    }
  }
  EXPECT_EQ(read_run<std::int32_t>(device, report.output), expected);
  if constexpr (fault::kFaultCompiledIn) {
    EXPECT_GT(incarnations, 1u);
    // The no-redo proof: cumulative work counters of the crash-riddled
    // run equal the clean run's exactly — durable-point crashes never
    // re-execute a completed unit (no re-done form/merge/exchange I/O)
    // and never write an extra checkpoint.
    EXPECT_EQ(report.runs_formed, clean_report.runs_formed);
    EXPECT_EQ(report.segments_merged, clean_report.segments_merged);
    EXPECT_EQ(report.ranks_exchanged, clean_report.ranks_exchanged);
    EXPECT_EQ(report.checkpoints, clean_report.checkpoints);
    EXPECT_EQ(report.resumes, incarnations - 1);
  } else {
    // MP_FAULT=0: the crash hooks compile to no-ops — a rate-1.0 plan
    // must not fire once and the run completes in one incarnation.
    EXPECT_EQ(incarnations, 1u);
    EXPECT_EQ(report.resumes, 0u);
  }
  EXPECT_EQ(device.live_blocks(), expected_live_blocks(device, n, 4, cfg));
}

TEST(Pipeline, ResumeWithBothSlotsCorruptIsTypedManifestError) {
  if constexpr (!fault::kFaultCompiledIn) GTEST_SKIP();
  const std::size_t n = 600;
  const auto values = make_values(n, 21);
  extmem::BlockDevice device(tiny_blocks());
  const extmem::RunHandle input = write_input(device, values);
  fault::FaultPlan plan;
  plan.fail_op(6, fault::FaultKind::kCrash);
  PipelineConfig cfg = small_config();
  cfg.crash_plan = &plan;
  auto pipe = Pipeline<std::int32_t>::start(device, input, cfg);
  const std::uint64_t base = pipe.manifest_block();
  EXPECT_THROW(pipe.run(), CrashError);
  ManifestStore store = ManifestStore::attach(
      device, base,
      worst_case_manifest_bytes(cfg.shards, n, cfg.memory_elems));
  store.corrupt_slot(0);
  store.corrupt_slot(1);
  EXPECT_THROW(Pipeline<std::int32_t>::resume(device, base, n, cfg),
               ManifestError);
  // Full restart is the documented recovery: a fresh start() still works
  // on the same device and produces correct bytes.
  cfg.crash_plan = nullptr;
  auto fresh = Pipeline<std::int32_t>::start(device, input, cfg);
  std::vector<std::int32_t> expected = values;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(read_run<std::int32_t>(device, fresh.run().output), expected);
}

TEST(Pipeline, ResumeAfterCompletionReturnsSameOutput) {
  const std::size_t n = 500;
  const auto values = make_values(n, 8);
  extmem::BlockDevice device(tiny_blocks());
  const extmem::RunHandle input = write_input(device, values);
  PipelineConfig cfg = small_config();
  auto pipe = Pipeline<std::int32_t>::start(device, input, cfg);
  const PipelineReport first = pipe.run();
  auto again =
      Pipeline<std::int32_t>::resume(device, pipe.manifest_block(), n, cfg);
  const PipelineReport second = again.run();
  EXPECT_EQ(second.output, first.output);
  EXPECT_EQ(second.steps, 0u);  // nothing left to do
  EXPECT_EQ(read_run<std::int32_t>(device, second.output),
            read_run<std::int32_t>(device, first.output));
}

TEST(Pipeline, SurvivesDiskNetworkAndLaneFaultsTogether) {
  // The end-to-end robustness claim: disk faults (device plan), network
  // faults (exchange plan), lane faults (a plan on a 3-lane pool, healed
  // by the recovery engine of the form phase's group fork, so a lane
  // fault hits one chunk of a group while its neighbours sort), AND
  // rate-driven crashes, all armed at once — output still byte-exact.
  const std::size_t n = 900;
  const auto values = make_values(n, 55);
  std::vector<std::int32_t> expected = values;
  std::sort(expected.begin(), expected.end());
  extmem::BlockDevice device(tiny_blocks());
  const extmem::RunHandle input = write_input(device, values);

  fault::FaultConfig disk_fc{/*seed=*/5, /*rate=*/0.05};
  fault::FaultPlan disk_plan(disk_fc);
  fault::ScopedInjector disk_injector(device, disk_plan);

  fault::FaultConfig net_fc{/*seed=*/6, /*rate=*/0.05};
  fault::FaultPlan net_plan(net_fc);

  fault::FaultConfig crash_fc{/*seed=*/7, /*rate=*/0.15};
  fault::FaultPlan crash_plan(crash_fc);

  ThreadPool pool(2);
  fault::FaultConfig lane_fc{/*seed=*/8, /*rate=*/0.3};
  lane_fc.lane_delay_us = 200.0;
  fault::FaultPlan lane_plan(lane_fc);
  fault::ScopedInjector lane_injector(pool, lane_plan);

  PipelineConfig cfg = small_config();
  cfg.memory_elems = 100;  // 3 runs per shard: full 3-lane groups
  cfg.exec = Executor{&pool, 3};
  cfg.recovery.hedge.enabled = true;
  cfg.retry.max_attempts = 64;
  cfg.retry.jitter = 0.5;
  cfg.net.faults = &net_plan;
  cfg.net.max_resend = 64;
  cfg.net.segment_retries = 8;
  cfg.crash_plan = &crash_plan;
  auto pipe = Pipeline<std::int32_t>::start(device, input, cfg);
  const std::uint64_t base = pipe.manifest_block();
  PipelineReport report;
  unsigned incarnations = 1;
  for (;;) {
    try {
      report = pipe.run();
      break;
    } catch (const CrashError&) {
      ++incarnations;
      ASSERT_LT(incarnations, 10000u);
      pipe = Pipeline<std::int32_t>::resume(device, base, n, cfg);
    }
  }
  EXPECT_EQ(read_run<std::int32_t>(device, report.output), expected);
  EXPECT_EQ(device.live_blocks(), expected_live_blocks(device, n, 4, cfg));
  if constexpr (fault::kFaultCompiledIn) {
    EXPECT_GT(disk_plan.stats().injected, 0u);
    EXPECT_GT(lane_plan.stats().injected, 0u);
  }
}

}  // namespace
}  // namespace mp::pipeline

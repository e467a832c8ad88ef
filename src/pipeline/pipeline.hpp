#pragma once
/// \file pipeline.hpp
/// Crash-consistent sharded external sort — the end-to-end "petasort"
/// pipeline that composes the repository's layers:
///
///   1. kForm     — per shard, memory-sized chunks of the input are read
///                  in groups of one chunk per lane, sorted in memory in
///                  one fork (each lane runs sequential_merge_sort on its
///                  own chunk, on a recovering executor that survives
///                  injected lane faults), and spilled as runs in chunk
///                  order.
///   2. kMerge    — per shard, a k-way merge of its runs into one sorted
///                  shard run, executed segment-by-segment in block-aligned
///                  output segments. With a bounded fan-in F, passes first
///                  merge the runs F at a time until at most F remain.
///   3. kExchange — R ranks (one per shard) each own a block-aligned slice
///                  of the global output. Rank r computes the Merge Path
///                  co-ranks (stable multisequence selection) bounding its
///                  slice across all shard runs, "fetches" the remote
///                  fragments over the simulated network (reliable_send —
///                  drops, duplicates and reorders are recovered; hard
///                  partitions surface as NetError), and merges them.
///
/// Crash consistency (the tentpole): every unit of work — one formed run,
/// one merged segment, one exchanged rank — ends at a *checkpoint step*
/// where the versioned double-slot manifest (manifest.hpp) records the
/// unit's result, the allocation watermark, and cumulative work counters,
/// all in one torn-write-safe superblock write. A process killed at ANY
/// step boundary resumes from the last completed unit:
///   - blocks allocated past the checkpointed watermark are released
///     (allocation is sequential, so orphans are exactly the suffix);
///   - a redone merge segment restarts its run readers at the
///     checkpointed per-run cursors — the merge frontier's co-ranks — and
///     rewrites exactly its own preallocated output blocks, which Merge
///     Path's Theorem 14 disjointness makes byte-identical and idempotent;
///   - a redone exchange rank recomputes the same deterministic co-ranks
///     and rewrites its disjoint output slice.
/// Completed units are never re-executed: the chaos drill asserts the
/// cumulative manifest counters of a crash-riddled run equal a clean
/// run's exactly.
///
/// Injected crashes: a fault::FaultPlan attached as
/// PipelineConfig::crash_plan draws FaultKind::kCrash at step boundaries
/// (OpClass::kStep) and the pipeline throws the typed CrashError — the
/// simulation of "the process died here". Randomly drawn crashes fire
/// only at durable points (see FaultPlan::decide_step), so a rate-1.0
/// schedule still terminates: each incarnation checkpoints at least one
/// new unit. Scripted crashes fire anywhere, including between a unit's
/// work and its checkpoint.
///
/// Device I/O runs on the calling thread through extmem::RunReader /
/// RunWriter: there is no I/O thread and no per-block hand-off. The form
/// phase's group fork is the pipeline's only concurrency; it holds one
/// chunk plus its sort scratch per lane (memory_elems stays the run
/// length). docs/PIPELINE.md ("I/O on the caller") has the measurement
/// behind this.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/merge_sort.hpp"
#include "core/multiway_merge.hpp"
#include "dist/netsim.hpp"
#include "extmem/block_device.hpp"
#include "extmem/run_file.hpp"
#include "fault/fault.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/manifest.hpp"
#include "util/assert.hpp"
#include "util/recovery.hpp"
#include "util/threading.hpp"

namespace mp::pipeline {

struct PipelineConfig {
  /// Elements sorted in memory per formed run (the "M" of the external
  /// sort; runs per shard = ceil(shard elements / memory_elems)).
  std::uint64_t memory_elems = 1ull << 15;
  /// Shards — also the exchange rank count. Each shard forms and merges
  /// its runs independently; rank r of the exchange owns output slice r.
  unsigned shards = 4;
  /// Merge-segment size in device blocks: the redo granularity of the
  /// kMerge phase (one checkpoint per segment).
  std::uint64_t segment_blocks = 4;
  /// Runs merged at once in the kMerge phase. 0 merges all of a shard's
  /// runs in one pass; F >= 2 merges them in passes of F runs (the
  /// Aggarwal-Vitter external sort at F = M/B - 1) until at most F are
  /// left, which the last pass merges into the shard's sorted run.
  std::uint64_t fan_in = 0;
  /// false disables all intermediate checkpoints (the final manifest
  /// recording completion is still written) — the bench's baseline for
  /// measuring checkpoint overhead.
  bool checkpoints = true;
  /// Retry policy for every device transfer and the recovery engine.
  fault::RetryPolicy retry{};
  /// Exchange network model; net.faults attaches the network fault plan,
  /// net.segment_retries bounds whole-rank retries after a NetError.
  dist::NetConfig net{};
  /// Crash schedule (not owned; nullptr = never crashes). Consulted only
  /// at step boundaries, with OpClass::kStep.
  fault::FaultPlan* crash_plan = nullptr;
  /// Lanes of the kForm phase: each formation group reads one chunk per
  /// lane and sorts the group in one fork.
  Executor exec{};
  /// Lane-fault recovery for that fork (hedging, lane retries).
  RecoveryConfig recovery{};
};

/// What one incarnation of the pipeline did. Counters are cumulative
/// across all incarnations (they come from the manifest); `steps` counts
/// this incarnation's step boundaries only.
struct PipelineReport {
  extmem::RunHandle output;
  std::uint64_t steps = 0;
  std::uint64_t runs_formed = 0;
  std::uint64_t segments_merged = 0;
  std::uint64_t ranks_exchanged = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t resumes = 0;
  /// Merge passes over the shard with the most (0 when no shard had more
  /// than one run).
  std::uint64_t merge_passes = 0;
  /// Transient device faults this incarnation's transfers retried.
  std::uint64_t io_retries = 0;
  dist::NetStats net{};
};

/// Upper bound on the serialized manifest size for a pipeline over
/// `total_elements` elements with these knobs. A pure function of the
/// arguments, so start() and resume() derive identical slot geometry.
std::uint64_t worst_case_manifest_bytes(unsigned shards,
                                        std::uint64_t total_elements,
                                        std::uint64_t memory_elems);

/// The checkpointed sharded external sort. One instance is one
/// *incarnation*: construct with start() (fresh) or resume() (attach to a
/// prior incarnation's manifest), then call run() once. run() either
/// returns a PipelineReport, or throws CrashError (injected death — the
/// caller "restarts the process" via resume()), NetError / IoError
/// (environment failure), or ManifestError is thrown by resume() itself
/// when no valid checkpoint survives.
template <typename T, typename Comp = std::less<>>
class Pipeline {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  /// Begins a fresh pipeline over `input` (a run already on `device`):
  /// allocates the manifest superblock and writes checkpoint #1 (the
  /// empty state). The input run is never modified.
  static Pipeline start(extmem::BlockDevice& device, extmem::RunHandle input,
                        const PipelineConfig& cfg = {}, Comp comp = {}) {
    check_config(device, cfg);
    const std::uint64_t n = input.element_count;
    ManifestStore store = ManifestStore::create(
        device, worst_case_manifest_bytes(cfg.shards, n, cfg.memory_elems),
        cfg.retry);
    Manifest m;
    m.elem_bytes = sizeof(T);
    m.total_elements = n;
    m.input = input;
    m.exchange_cursors.assign(cfg.shards, 0);
    m.shards.resize(cfg.shards);
    for (unsigned s = 0; s < cfg.shards; ++s) {
      const std::uint64_t lo = s * n / cfg.shards;
      const std::uint64_t hi = (s + 1ull) * n / cfg.shards;
      m.shards[s].input_first = lo;
      m.shards[s].input_count = hi - lo;
    }
    m.watermark = device.blocks_allocated();
    const std::uint64_t retries = store.write(m);
    Pipeline pipe(device, store, std::move(m), cfg, comp);
    pipe.io_retries_ = retries;
    return pipe;
  }

  /// Attaches to the manifest a prior incarnation left at `manifest_block`
  /// and rolls the device back to its last checkpoint: throws the typed
  /// ManifestError when neither slot validates (full restart required —
  /// never wrong bytes), otherwise releases every block allocated past
  /// the checkpointed watermark. `total_elements` and `cfg` must match the
  /// original start() call (they determine the manifest slot geometry).
  static Pipeline resume(extmem::BlockDevice& device,
                         std::uint64_t manifest_block,
                         std::uint64_t total_elements,
                         const PipelineConfig& cfg = {}, Comp comp = {}) {
    check_config(device, cfg);
    ManifestStore store = ManifestStore::attach(
        device, manifest_block,
        worst_case_manifest_bytes(cfg.shards, total_elements,
                                  cfg.memory_elems),
        cfg.retry);
    Manifest m = store.load();
    MP_CHECK(m.elem_bytes == sizeof(T));
    MP_CHECK(m.total_elements == total_elements);
    MP_CHECK(m.shards.size() == cfg.shards);
    // Orphan reclamation: allocation is sequential, so every block past
    // the checkpointed watermark belongs to work that never checkpointed.
    const std::uint64_t allocated = device.blocks_allocated();
    if (allocated > m.watermark)
      device.release_blocks(m.watermark, allocated - m.watermark);
    ++m.resumes;  // persisted by the next checkpoint
    obs::Span::instant("pipe.resume", "seq", m.seq);
    obs::MetricsRegistry::instance().counter("pipe.resumes").add(1);
    obs::flight_report_degraded("pipe.resume");
    return Pipeline(device, store, std::move(m), cfg, comp);
  }

  /// Runs to completion from whatever state the manifest holds.
  PipelineReport run() {
    dist::RankNetwork net(static_cast<unsigned>(m_.shards.size()), cfg_.net);
    {
      obs::Span span("pipe.sort", "n", m_.total_elements);
      while (m_.phase != Phase::kDone) {
        switch (m_.phase) {
          case Phase::kForm: form_phase(); break;
          case Phase::kMerge: merge_phase(); break;
          case Phase::kExchange: exchange_phase(net); break;
          case Phase::kDone: break;
        }
      }
    }
    PipelineReport report;
    report.output = m_.output;
    report.steps = steps_;
    report.runs_formed = m_.runs_formed;
    report.segments_merged = m_.segments_merged;
    report.ranks_exchanged = m_.ranks_exchanged;
    report.checkpoints = m_.checkpoints;
    report.resumes = m_.resumes;
    for (const ShardManifest& sh : m_.shards)
      report.merge_passes = std::max(report.merge_passes, sh.passes);
    report.io_retries = io_retries_;
    report.net = net.stats();
    return report;
  }

  /// Where the manifest superblock lives — persist this (e.g. in the
  /// device image's user word) to resume in a later process.
  std::uint64_t manifest_block() const { return store_.base_block(); }
  const Manifest& manifest() const { return m_; }
  /// Step boundaries passed so far this incarnation; a clean run's total
  /// enumerates every valid scripted kill index.
  std::uint64_t steps() const { return steps_; }

 private:
  Pipeline(extmem::BlockDevice& device, ManifestStore store, Manifest m,
           const PipelineConfig& cfg, Comp comp)
      : device_(&device), store_(store), m_(std::move(m)), cfg_(cfg),
        comp_(comp) {}

  static void check_config(const extmem::BlockDevice& device,
                           const PipelineConfig& cfg) {
    MP_CHECK(cfg.shards >= 1);
    MP_CHECK(cfg.memory_elems >= 1);
    MP_CHECK(cfg.segment_blocks >= 1);
    MP_CHECK(cfg.fan_in != 1);
    MP_CHECK(device.config().block_bytes >= sizeof(T));
  }

  std::uint64_t epb() const {
    return device_->config().block_bytes / sizeof(T);
  }
  std::uint64_t blocks_for(std::uint64_t elems) const {
    return (elems + epb() - 1) / epb();
  }
  unsigned shard_count() const {
    return static_cast<unsigned>(m_.shards.size());
  }

  /// One step boundary. Every call consumes one position of the crash
  /// schedule (when one is attached), so a clean run and a crashing run
  /// see identical step numbering up to the crash. `durable` marks points
  /// immediately after a checkpoint write; see FaultPlan::decide_step.
  void crash_point(const char* where, bool durable) {
    ++steps_;
    if (cfg_.crash_plan &&
        cfg_.crash_plan->decide_step(durable) == fault::FaultKind::kCrash) {
      obs::Span::instant("pipe.crash", "step", steps_ - 1);
      obs::MetricsRegistry::instance().counter("pipe.crashes").add(1);
      throw CrashError(steps_ - 1, where);
    }
  }

  /// Writes the manifest with the watermark refreshed, so it covers
  /// every allocation the unit performed.
  void checkpoint() {
    obs::Span span("pipe.checkpoint", "seq", m_.seq + 1);
    ++m_.checkpoints;
    m_.watermark = device_->blocks_allocated();
    io_retries_ += store_.write(m_);
    obs::MetricsRegistry::instance().counter("pipe.checkpoints").add(1);
  }

  /// The unit epilogue: a scripted-only crash point between the work and
  /// its checkpoint, the (optional) checkpoint, then a durable crash
  /// point where rate-driven crashes may fire.
  void unit_boundary(const char* where, const char* where_ckpt) {
    crash_point(where, false);
    if (cfg_.checkpoints) checkpoint();
    crash_point(where_ckpt, cfg_.checkpoints);
  }

  void release_handle(extmem::RunHandle& handle) {
    if (handle.element_count == 0) return;
    device_->release_blocks(handle.first_block,
                            blocks_for(handle.element_count));
    handle = extmem::RunHandle{};
  }

  // ---- kForm -------------------------------------------------------

  /// Forms the runs in groups: up to one chunk per lane is read, the
  /// group is sorted in one fork (lane g sorts chunk g in place with its
  /// own scratch), and the runs are written and checkpointed in chunk
  /// order — the same runs, blocks and steps as forming them one by one.
  /// A lane body never runs twice once started (util/recovery.hpp), so
  /// the in-place sorts are safe under lane faults and hedging; a crash
  /// inside a group re-forms from the checkpointed sh.formed.
  void form_phase() {
    const unsigned lanes = cfg_.exec.resolve_threads();
    std::uint64_t largest = 0;
    for (const ShardManifest& sh : m_.shards)
      largest = std::max(largest, sh.input_count - sh.formed);
    const auto chunk_cap = static_cast<std::size_t>(
        std::min<std::uint64_t>(cfg_.memory_elems, largest));
    // One chunk and its scratch per lane, reused by every group.
    const auto chunks = std::make_unique_for_overwrite<T[]>(lanes * chunk_cap);
    const auto scratch = std::make_unique_for_overwrite<T[]>(lanes * chunk_cap);
    std::vector<std::size_t> sizes(lanes);
    extmem::RunWriter<T> writer(*device_, cfg_.retry);
    for (unsigned s = 0; s < shard_count(); ++s) {
      ShardManifest& sh = m_.shards[s];
      while (sh.formed < sh.input_count) {
        obs::Span span("pipe.form", "shard", s);
        unsigned group = 0;
        for (std::uint64_t at = sh.formed;
             group < lanes && at < sh.input_count; ++group) {
          sizes[group] = static_cast<std::size_t>(
              std::min(cfg_.memory_elems, sh.input_count - at));
          extmem::RunReader<T> reader(*device_, m_.input,
                                      sh.input_first + at, sizes[group],
                                      cfg_.retry);
          reader.read(chunks.get() + group * chunk_cap, sizes[group]);
          io_retries_ += reader.retries();
          at += sizes[group];
        }
        LaneRecovery recovery{cfg_.recovery};
        Executor{cfg_.exec.pool, group, &recovery}.run_lanes(
            group, [&](unsigned lane) {
              sequential_merge_sort(chunks.get() + lane * chunk_cap,
                                    scratch.get() + lane * chunk_cap,
                                    sizes[lane], comp_);
            });
        for (unsigned g = 0; g < group; ++g) {
          writer.append(chunks.get() + g * chunk_cap, sizes[g]);
          sh.runs.push_back(writer.finish());
          sh.formed += sizes[g];
          ++m_.runs_formed;
          obs::MetricsRegistry::instance().counter("pipe.runs_formed").add(1);
          unit_boundary("form", "form.ckpt");
        }
      }
    }
    io_retries_ += writer.retries();
    m_.phase = Phase::kMerge;
    unit_boundary("form.done", "form.done.ckpt");
  }

  // ---- kMerge ------------------------------------------------------

  /// Merges each shard's runs into its sorted run. A shard walks its run
  /// list in groups: each group is merged segment by segment into a
  /// preallocated run, which then replaces the group in place (run order,
  /// and with it stability, is kept). A pass ends when the groups reach
  /// the end of the list; a last group of one run carries over untouched.
  /// The group covering the whole list at a pass start (always, at
  /// fan_in 0) is the last pass, and its run is the shard's sorted run.
  void merge_phase() {
    for (unsigned s = 0; s < shard_count(); ++s) {
      ShardManifest& sh = m_.shards[s];
      // segment_count == 0: the next group is not set up yet; runs left
      // once its segments are done: the group is not retired yet.
      while (sh.segment_count == 0 || !sh.runs.empty()) {
        if (sh.segment_count == 0) merge_init(sh);
        if (sh.segments_done < sh.segment_count) {
          // Staged blocks carry over between segments; a resume reopens
          // here.
          const std::span<const extmem::RunHandle> group = group_runs(sh);
          std::vector<std::uint64_t> run_ends;
          for (const extmem::RunHandle& run : group)
            run_ends.push_back(run.element_count);
          auto readers = open_readers(group, sh.cursors, run_ends);
          while (sh.segments_done < sh.segment_count)
            merge_segment(s, sh, readers);
          for (const extmem::RunReader<T>& reader : readers)
            io_retries_ += reader.retries();
        }
        if (!sh.runs.empty()) merge_retire(sh);
      }
    }
    // Transition: the global output and a zero exchange frontier. One
    // shard's sorted run already is the output. Otherwise the output is
    // preallocated, and the step is redone wholesale if the checkpoint
    // below never lands (the orphaned allocation is reclaimed by resume()).
    const std::uint64_t n = m_.total_elements;
    m_.output = extmem::RunHandle{};
    if (shard_count() == 1) {
      m_.output = m_.shards[0].sorted;
    } else if (n > 0) {
      const std::uint64_t blocks = blocks_for(n);
      m_.output.first_block = device_->allocate(blocks);
      m_.output.element_count = n;
    }
    for (auto& c : m_.exchange_cursors) c = 0;
    m_.ranks_done = shard_count() == 1 ? 1 : 0;
    m_.phase = Phase::kExchange;
    unit_boundary("merge.done", "merge.done.ckpt");
  }

  /// Whether the shard's current group is its last pass: the whole run
  /// list, at a pass start, when it is short enough for one merge.
  bool last_pass(const ShardManifest& sh) const {
    return sh.group == 0 &&
           (cfg_.fan_in == 0 || sh.runs.size() <= cfg_.fan_in);
  }

  /// The runs of the shard's current group.
  std::span<const extmem::RunHandle> group_runs(
      const ShardManifest& sh) const {
    const std::size_t width =
        last_pass(sh) ? sh.runs.size()
                      : std::min<std::size_t>(
                            static_cast<std::size_t>(cfg_.fan_in),
                            sh.runs.size() - sh.group);
    return std::span<const extmem::RunHandle>(sh.runs).subspan(
        static_cast<std::size_t>(sh.group), width);
  }

  void merge_init(ShardManifest& sh) {
    if (sh.runs.size() <= 1) {
      // 0 or 1 runs: the "merge" is the identity. Alias the formed run as
      // the sorted run (clearing runs WITHOUT releasing — same blocks).
      sh.sorted = sh.runs.empty() ? extmem::RunHandle{} : sh.runs[0];
      sh.runs.clear();
      sh.cursors.clear();
      sh.segment_count = 1;
      sh.segments_done = 1;
      unit_boundary("merge.alias", "merge.alias.ckpt");
      return;
    }
    const std::span<const extmem::RunHandle> group = group_runs(sh);
    std::uint64_t elems = 0;
    for (const extmem::RunHandle& run : group) elems += run.element_count;
    const std::uint64_t seg_elems = cfg_.segment_blocks * epb();
    sh.sorted.first_block = device_->allocate(blocks_for(elems));
    sh.sorted.element_count = elems;
    sh.segment_count = (elems + seg_elems - 1) / seg_elems;
    sh.segments_done = 0;
    sh.cursors.assign(group.size(), 0);
    unit_boundary("merge.init", "merge.init.ckpt");
  }

  void merge_segment(unsigned s, ShardManifest& sh,
                     std::vector<extmem::RunReader<T>>& readers) {
    {
      obs::Span span("pipe.segment", "shard", s);
      const std::uint64_t seg_elems = cfg_.segment_blocks * epb();
      const std::uint64_t g = sh.segments_done;
      const std::uint64_t lo = g * seg_elems;
      const std::uint64_t hi =
          std::min(sh.sorted.element_count, lo + seg_elems);
      merge_unit(readers, hi - lo,
                 sh.sorted.first_block + g * cfg_.segment_blocks);
      // The readers' positions ARE the merge frontier's co-ranks at output
      // rank `hi` — the checkpointed cursor a redo restarts from.
      for (std::size_t t = 0; t < readers.size(); ++t)
        sh.cursors[t] = readers[t].position();
      sh.segments_done = g + 1;
    }
    ++m_.segments_merged;
    obs::MetricsRegistry::instance().counter("pipe.segments_merged").add(1);
    unit_boundary("merge.seg", "merge.seg.ckpt");
  }

  /// Retires a merged group: its source runs are dead, and the group's
  /// run takes their place in the list (or, after the last pass, the list
  /// is empty and the shard is merged). Re-running this after a crash is
  /// safe: release_blocks skips already-released slots.
  void merge_retire(ShardManifest& sh) {
    const bool last = last_pass(sh);
    const std::size_t first = static_cast<std::size_t>(sh.group);
    const std::size_t end = first + group_runs(sh).size();
    for (std::size_t t = first; t < end; ++t) release_handle(sh.runs[t]);
    sh.cursors.clear();
    if (last) {
      sh.runs.clear();
      ++sh.passes;
      unit_boundary("merge.cleanup", "merge.cleanup.ckpt");
      return;
    }
    sh.runs.erase(sh.runs.begin() + static_cast<std::ptrdiff_t>(first + 1),
                  sh.runs.begin() + static_cast<std::ptrdiff_t>(end));
    sh.runs[first] = sh.sorted;
    sh.sorted = extmem::RunHandle{};
    sh.segment_count = 0;
    sh.segments_done = 0;
    sh.group = first + 1;
    // The pass ends when no group of two runs is left; a lone last run
    // carries over with no I/O.
    if (sh.runs.size() - sh.group <= 1) {
      sh.group = 0;
      ++sh.passes;
    }
    unit_boundary("merge.group", "merge.group.ckpt");
  }

  /// Readers over the windows [from[t], to[t]) of `runs`.
  std::vector<extmem::RunReader<T>> open_readers(
      std::span<const extmem::RunHandle> runs,
      const std::vector<std::uint64_t>& from,
      const std::vector<std::uint64_t>& to) {
    std::vector<extmem::RunReader<T>> readers;
    readers.reserve(runs.size());
    for (std::size_t t = 0; t < runs.size(); ++t)
      readers.emplace_back(*device_, runs[t], from[t], to[t] - from[t],
                           cfg_.retry);
    return readers;
  }

  /// One merge unit, shared by merge segments and exchange ranks: writes
  /// the next `count` elements of the stable (value, run, position) merge
  /// of the readers' windows to the preallocated blocks from `first_block`
  /// on, leaving every reader at the unit end's co-rank in its run.
  ///
  /// Each reader stages one block. The fence is the smallest staged tail
  /// of a run with more data (ties to the lower run); all unstaged data
  /// follows it, so the staged elements up to it (upper_bound in runs up
  /// to the fence's, lower_bound after) are the next stretch of output.
  /// Each stretch is one multiway_merge, the last clipped to `count` by
  /// multiway_select; each uses up the fence run's staged block.
  void merge_unit(std::vector<extmem::RunReader<T>>& readers,
                  std::uint64_t count, std::uint64_t first_block) {
    const std::size_t k = readers.size();
    extmem::RunWriter<T> writer(*device_, first_block, cfg_.retry);
    std::vector<std::span<const T>> staged(k);
    while (count > 0) {
      std::size_t fence = k;
      for (std::size_t t = 0; t < k; ++t) {
        staged[t] = readers[t].block();
        if (staged[t].size() < readers[t].remaining() &&
            (fence == k || comp_(staged[t].back(), staged[fence].back())))
          fence = t;
      }
      std::size_t total = 0;
      for (std::size_t t = 0; t < k; ++t) {
        const std::span<const T> st = staged[t];
        auto cut = st.end();  // the fence's own run is taken whole
        if (fence < k && t != fence) {
          const T& f = staged[fence].back();
          cut = t < fence ? std::upper_bound(st.begin(), st.end(), f, comp_)
                          : std::lower_bound(st.begin(), st.end(), f, comp_);
        }
        staged[t] = st.first(static_cast<std::size_t>(cut - st.begin()));
        total += staged[t].size();
      }
      MP_CHECK(total > 0);
      if (total > count) {
        const std::vector<std::size_t> ends = multiway_select(
            std::span<const std::span<const T>>(staged),
            static_cast<std::size_t>(count), comp_);
        for (std::size_t t = 0; t < k; ++t)
          staged[t] = staged[t].first(ends[t]);
        total = static_cast<std::size_t>(count);
      }
      unit_out_.resize(std::max(unit_out_.size(), total));
      unit_scratch_.resize(unit_out_.size());
      multiway_merge(std::span<const std::span<const T>>(staged),
                     unit_out_.data(), unit_scratch_.data(), comp_);
      writer.append(unit_out_.data(), total);
      for (std::size_t t = 0; t < k; ++t) readers[t].skip(staged[t].size());
      count -= total;
    }
    writer.finish();
    io_retries_ += writer.retries();
  }

  // ---- kExchange ---------------------------------------------------

  /// Block-aligned global output boundary of rank r: aligning down keeps
  /// every rank's preallocated output slice disjoint at block granularity
  /// (the tail rank absorbs the remainder).
  std::uint64_t boundary(unsigned r) const {
    const std::uint64_t n = m_.total_elements;
    if (r >= shard_count()) return n;
    return std::min(n, (r * n / shard_count()) / epb() * epb());
  }

  void exchange_phase(dist::RankNetwork& net) {
    while (m_.ranks_done < shard_count()) {
      const unsigned r = static_cast<unsigned>(m_.ranks_done);
      exchange_rank(r, net);
      ++m_.ranks_done;
      ++m_.ranks_exchanged;
      obs::MetricsRegistry::instance().counter("pipe.ranks_exchanged").add(1);
      unit_boundary("exchange.rank", "exchange.rank.ckpt");
    }
    for (ShardManifest& sh : m_.shards)
      if (sh.sorted != m_.output) release_handle(sh.sorted);
    m_.phase = Phase::kDone;
    crash_point("exchange.done", false);
    checkpoint();  // forced even with cfg_.checkpoints off: the final
                   // manifest is how a later process finds the output
    crash_point("done.ckpt", true);
  }

  /// One block of one shard's sorted run, cached for co-rank probing.
  struct ProbeCache {
    std::vector<T> data;
    std::uint64_t block = ~0ull;  // block index within the run
  };

  const T& probe(unsigned rank, unsigned s, std::uint64_t index,
                 std::vector<ProbeCache>& caches, dist::RankNetwork& net) {
    const std::uint64_t b = index / epb();
    ProbeCache& cache = caches[s];
    if (cache.block != b) {
      if (s != rank) {
        // A cross-shard key probe: one small alpha-dominated message
        // (key + position, 16 bytes) through the reliable protocol.
        net.reliable_send(s, rank, 16);
      }
      cache.data.resize(static_cast<std::size_t>(epb()));
      const std::uint64_t block = m_.shards[s].sorted.first_block + b;
      io_retries_ += extmem::detail::retry_io(
          *device_, cfg_.retry, block, "probe", [&] {
            return device_->try_read_block(
                block, cache.data.data(),
                static_cast<std::uint32_t>(cache.data.size() * sizeof(T)));
          });
      cache.block = b;
      obs::MetricsRegistry::instance().counter("pipe.probe_reads").add(1);
    }
    return cache.data[static_cast<std::size_t>(index % epb())];
  }

  /// Device-backed selection for global rank `target`: returns the stable
  /// (value, run-index) co-rank positions across the shard runs, the same
  /// positions multiway_select gives. It stays a greedy block advancement
  /// (while `remaining` is unclaimed, advance by up to c = max(1,
  /// remaining/(2·active)) the run whose c-th unclaimed element v is
  /// smallest, ties to the lower run; for c > 1 at most active·c <=
  /// remaining/2 unclaimed elements stably precede or equal v, and for
  /// c = 1 v is the smallest unclaimed head, so the block is in the prefix)
  /// rather than multiway_select's bisection: every probe here is a
  /// modeled block read plus a 16-byte network message. The greedy's
  /// probes land in few distinct blocks (ProbeCache keeps one per shard),
  /// while a bisection's first refinements binary-search every run over
  /// its whole length, a new block at nearly every step. Deterministic — a
  /// redone rank recomputes identical ends.
  std::vector<std::uint64_t> select_ends(unsigned rank, std::uint64_t target,
                                         std::vector<ProbeCache>& caches,
                                         dist::RankNetwork& net) {
    obs::Span span("pipe.select", "rank", rank);
    const std::size_t k = m_.shards.size();
    std::vector<std::uint64_t> pos(k, 0);
    std::uint64_t remaining = target;
    while (remaining > 0) {
      std::uint64_t active = 0;
      for (std::size_t t = 0; t < k; ++t)
        if (pos[t] < m_.shards[t].sorted.element_count) ++active;
      MP_ASSERT(active > 0);
      const std::uint64_t c =
          remaining >= 2 * active ? remaining / (2 * active) : 1;
      std::size_t best = k;
      std::uint64_t best_take = 0;
      const T* best_value = nullptr;
      for (std::size_t t = 0; t < k; ++t) {
        const std::uint64_t avail =
            m_.shards[t].sorted.element_count - pos[t];
        if (avail == 0) continue;
        const std::uint64_t take = c < avail ? c : avail;
        const T& v = probe(rank, static_cast<unsigned>(t),
                           pos[t] + take - 1, caches, net);
        if (best_value == nullptr || comp_(v, *best_value)) {
          best = t;
          best_take = take;
          best_value = &v;
        }
      }
      MP_ASSERT(best < k);
      const std::uint64_t take =
          best_take < remaining ? best_take : remaining;
      pos[best] += take;
      remaining -= take;
    }
    return pos;
  }

  void exchange_rank(unsigned r, dist::RankNetwork& net) {
    obs::Span span("pipe.exchange", "rank", r);
    const std::uint64_t lo = boundary(r);
    const std::uint64_t hi = boundary(r + 1);
    if (lo == hi) {
      net.end_round();
      return;  // empty slice: frontier unchanged
    }
    for (unsigned attempt = 0;; ++attempt) {
      try {
        std::vector<ProbeCache> caches(m_.shards.size());
        const std::vector<std::uint64_t> ends =
            select_ends(r, hi, caches, net);
        // Fetch the remote fragments: shard s ships its
        // [cursor, end) slice to rank r in one reliable message (resends
        // and dedup priced by the protocol; a persistent partition
        // escapes as NetError and retries the whole rank below).
        for (std::size_t s = 0; s < m_.shards.size(); ++s) {
          MP_CHECK(ends[s] >= m_.exchange_cursors[s]);
          const std::uint64_t frag = ends[s] - m_.exchange_cursors[s];
          if (frag > 0 && s != r)
            net.reliable_send(static_cast<unsigned>(s), r,
                              frag * sizeof(T));
        }
        std::vector<extmem::RunHandle> sorted;
        for (const ShardManifest& sh : m_.shards) sorted.push_back(sh.sorted);
        auto readers = open_readers(sorted, m_.exchange_cursors, ends);
        merge_unit(readers, hi - lo, m_.output.first_block + lo / epb());
        for (const extmem::RunReader<T>& reader : readers)
          io_retries_ += reader.retries();
        m_.exchange_cursors = ends;
        break;
      } catch (const dist::NetError&) {
        // The rank's output blocks are preallocated and disjoint, so a
        // partial attempt is simply overwritten by the retry.
        if (attempt >= cfg_.net.segment_retries) throw;
        obs::Span::instant("pipe.retry", "rank", r);
      }
    }
    net.end_round();
  }

  extmem::BlockDevice* device_;
  ManifestStore store_;
  Manifest m_;
  PipelineConfig cfg_;
  Comp comp_;
  std::vector<T> unit_out_;      // merge_unit's output stretch
  std::vector<T> unit_scratch_;  // and its multiway_merge scratch
  std::uint64_t steps_ = 0;
  std::uint64_t io_retries_ = 0;  // transient retries, this incarnation
};

/// Sorts `data` with the pipeline on `device`: writes it as the input
/// run, runs start().run() and reads the output back (filling `report`
/// if given; its io_retries include the input write and the read-back).
/// Allocation is append-only, so every block from the input's first on
/// is this call's; they are all released whether the sort returns or
/// throws (IoError on a permanent device fault), which leaves the device
/// as the call found it.
template <typename T, typename Comp = std::less<>>
std::vector<T> sort_vector(extmem::BlockDevice& device,
                           const std::vector<T>& data,
                           const PipelineConfig& cfg = {},
                           PipelineReport* report = nullptr, Comp comp = {}) {
  const std::uint64_t first = device.blocks_allocated();
  const auto release = [&] {
    device.release_blocks(first, device.blocks_allocated() - first);
  };
  try {
    extmem::RunWriter<T> writer(device, cfg.retry);
    writer.append(data.data(), data.size());
    const extmem::RunHandle input = writer.finish();
    PipelineReport done =
        Pipeline<T, Comp>::start(device, input, cfg, comp).run();
    std::vector<T> out(data.size());
    extmem::RunReader<T> reader(device, done.output, cfg.retry);
    reader.read(out.data(), out.size());
    done.io_retries += writer.retries() + reader.retries();
    release();
    if (report) *report = done;
    return out;
  } catch (...) {
    release();
    throw;
  }
}

}  // namespace mp::pipeline

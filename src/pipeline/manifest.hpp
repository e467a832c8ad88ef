#pragma once
/// \file manifest.hpp
/// Crash-consistent checkpoint manifest for the sharded external-sort
/// pipeline (pipeline.hpp).
///
/// The manifest records everything a resuming process needs to continue
/// from the last completed unit of work: the pipeline phase, every
/// completed run's handle, per-shard merge cursors and segment progress,
/// per-rank exchange cursors, an allocation watermark for orphan-block
/// reclamation, and cumulative work counters (which is how the chaos
/// drill *proves* completed work is never redone).
///
/// Durability model — a double-slot superblock, the BlockDevice analog of
/// write-temp-then-rename:
///  - The manifest region holds two equally sized slots. Every checkpoint
///    serializes the whole manifest (with a monotonically increasing
///    sequence number and an FNV-1a checksum over all preceding bytes)
///    and writes it to the slot NOT holding the latest valid manifest.
///  - A crash mid-write tears at most the slot being written; its
///    checksum cannot validate, so load() falls back to the other slot —
///    the previous checkpoint. The committed state is never overwritten
///    in place, exactly like writing a temp file and renaming it over the
///    old one.
///  - load() deserializes both slots and picks the valid one with the
///    highest sequence number. Both invalid (corruption, torn first
///    checkpoint, wrong magic/version) is the typed ManifestError: the
///    caller must do a full restart. A corrupt manifest can yield an
///    error, never wrong bytes.
///
/// The manifest is element-type-agnostic (it stores element *counts* plus
/// elem_bytes for a sanity check); serialization is raw little-endian
/// memory like the run-file format itself.

#include <cstdint>
#include <string>
#include <vector>

#include "extmem/block_device.hpp"
#include "extmem/run_file.hpp"
#include "fault/fault.hpp"

namespace mp::pipeline {

/// Pipeline phases, in execution order.
enum class Phase : std::uint8_t {
  kForm = 0,      ///< run formation: sort memory-sized chunks per shard
  kMerge = 1,     ///< per-shard multiway_merge passes, segment-granular
  kExchange = 2,  ///< rank-sharded exchange via Merge Path co-ranks
  kDone = 3,
};

const char* to_string(Phase phase);

/// Unrecoverable manifest failure: both slots corrupt/torn/absent. The
/// pipeline cannot resume; the caller must restart from scratch. Typed —
/// corruption is always an error, never silently wrong output.
class ManifestError : public fault::FaultError {
 public:
  explicit ManifestError(const std::string& what)
      : fault::FaultError(fault::FaultKind::kMedia, what) {}
};

/// Injected process death (fault::FaultKind::kCrash drawn at a pipeline
/// step boundary). Unwinds out of Pipeline::run(); everything durable is
/// what the manifest last recorded.
class CrashError : public fault::FaultError {
 public:
  CrashError(std::uint64_t step, const char* where)
      : fault::FaultError(fault::FaultKind::kCrash,
                          std::string("injected crash at step ") +
                              std::to_string(step) + " (" + where + ")"),
        step_(step) {}
  std::uint64_t step() const { return step_; }

 private:
  std::uint64_t step_;
};

/// Per-shard durable state.
struct ShardManifest {
  std::uint64_t input_first = 0;  ///< shard's offset into the input run
  std::uint64_t input_count = 0;  ///< shard's element count
  std::uint64_t formed = 0;       ///< input elements consumed by run formation
  std::vector<extmem::RunHandle> runs;  ///< completed (checkpointed) runs
  /// The current merge group's run (preallocated); after the last pass,
  /// the merged shard run.
  extmem::RunHandle sorted;
  std::uint64_t segments_done = 0;
  std::uint64_t segment_count = 0;  ///< 0 until the group's merge initialized
  /// Per-run consumed counts of the group's runs at the last completed
  /// segment boundary: the stable co-ranks of the merge frontier. A redone
  /// segment restarts its readers here, making segment re-execution
  /// byte-identical (Theorem 14 disjointness at block granularity).
  std::vector<std::uint64_t> cursors;
  std::uint64_t group = 0;   ///< index in `runs` of the pass's next group
  std::uint64_t passes = 0;  ///< merge passes completed

  friend bool operator==(const ShardManifest&, const ShardManifest&) = default;
};

/// The complete durable state of one pipeline execution.
struct Manifest {
  std::uint64_t seq = 0;  ///< checkpoint sequence number (monotone)
  Phase phase = Phase::kForm;
  std::uint32_t elem_bytes = 0;
  std::uint64_t total_elements = 0;
  extmem::RunHandle input;
  extmem::RunHandle output;  ///< preallocated at exchange start
  /// device.blocks_allocated() at checkpoint time. Allocation is
  /// sequential, so every block >= watermark was allocated by work that
  /// did not reach this checkpoint — a resuming process releases
  /// [watermark, blocks_allocated()) and redoes that unit, leaking
  /// nothing.
  std::uint64_t watermark = 0;
  std::uint64_t ranks_done = 0;  ///< exchange ranks completed (in order)
  /// Per-shard consumed counts at the last completed rank boundary (the
  /// exchange frontier's stable co-ranks).
  std::vector<std::uint64_t> exchange_cursors;
  // Cumulative work counters across all incarnations. Each unit's
  // increment lands in the same manifest write that records its result,
  // so after a crash at a durable boundary the counters equal the
  // recorded work exactly — the chaos drill asserts total equality with a
  // clean run to prove completed units are never re-executed.
  std::uint64_t runs_formed = 0;
  std::uint64_t segments_merged = 0;
  std::uint64_t ranks_exchanged = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t resumes = 0;
  std::vector<ShardManifest> shards;

  friend bool operator==(const Manifest&, const Manifest&) = default;
};

/// Serializes `m` (with trailing checksum). Exposed for tests.
std::vector<std::uint8_t> serialize_manifest(const Manifest& m);
/// Deserializes and validates; throws ManifestError on any malformation.
Manifest deserialize_manifest(const std::uint8_t* data, std::size_t bytes);

/// The double-slot superblock on a BlockDevice.
class ManifestStore {
 public:
  /// Blocks one slot needs to hold a manifest of `worst_case_bytes`.
  static std::uint64_t slot_blocks_for(const extmem::BlockDevice& device,
                                       std::uint64_t worst_case_bytes);

  /// Allocates a fresh 2-slot region sized for `worst_case_bytes`.
  static ManifestStore create(extmem::BlockDevice& device,
                              std::uint64_t worst_case_bytes,
                              fault::RetryPolicy retry = {});

  /// Attaches to an existing region at `base_block`. The caller must pass
  /// the same worst_case_bytes the region was created with (it is a pure
  /// function of the pipeline config, which resume re-supplies).
  static ManifestStore attach(extmem::BlockDevice& device,
                              std::uint64_t base_block,
                              std::uint64_t worst_case_bytes,
                              fault::RetryPolicy retry = {});

  std::uint64_t base_block() const { return base_; }
  std::uint64_t slot_blocks() const { return slot_blocks_; }
  std::uint64_t total_blocks() const { return 2 * slot_blocks_; }

  /// Checkpoints `m`: bumps m.seq and writes the full serialized manifest
  /// to the slot not holding the latest valid state. Returns the transient
  /// faults it retried; throws IoError if the device permanently fails
  /// the write.
  std::uint64_t write(Manifest& m);

  /// Returns the valid slot with the highest sequence number; throws
  /// ManifestError when neither slot holds a valid manifest.
  Manifest load();

  /// Drill hook: flips one byte in slot `which`'s serialized image (no-op
  /// if the slot was never written). Used by the corruption-injection
  /// tests and the chaos driver — never by the pipeline itself.
  void corrupt_slot(unsigned which);

 private:
  ManifestStore(extmem::BlockDevice& device, std::uint64_t base,
                std::uint64_t slot_blocks, fault::RetryPolicy retry)
      : device_(&device), base_(base), slot_blocks_(slot_blocks),
        retry_(retry) {}

  /// Reads slot `which`; returns false (rather than throwing) when the
  /// slot is unwritten, unreadable, or fails validation.
  bool try_load_slot(unsigned which, Manifest* out);

  extmem::BlockDevice* device_;
  std::uint64_t base_;
  std::uint64_t slot_blocks_;
  fault::RetryPolicy retry_;
};

}  // namespace mp::pipeline

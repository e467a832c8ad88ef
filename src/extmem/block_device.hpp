#pragma once
/// \file block_device.hpp
/// Simulated block storage device for the external-memory experiments.
///
/// The paper cites Aggarwal & Vitter's I/O model ([10] in its references)
/// when motivating cache-efficient merging; this substrate instantiates
/// that model literally: storage is addressed in fixed-size blocks, every
/// transfer moves whole blocks, and the figure of merit is the number of
/// block transfers (plus a simple latency model for a modelled wall time).
/// The backing store is in-memory, so experiments are deterministic and
/// fast while exercising exactly the code paths a disk-backed
/// implementation would (see DESIGN.md §2 on substitutions).
///
/// Failure model (src/fault): a BlockDevice can carry a fault::FaultPlan.
/// When attached, each allocate/read/write consults the plan and may
/// suffer an EINTR-style transient failure, a short transfer, injected
/// latency, ENOSPC, or a permanent media error. The fallible entry points
/// are try_read_block/try_write_block, which report an IoStatus instead of
/// aborting; the legacy read_block/write_block wrappers MP_CHECK success
/// and remain for fault-free callers. Retry policy belongs to consumers
/// (RunReader/RunWriter in run_file.hpp); exhausted retries and permanent
/// faults surface as the typed IoError, never as an abort.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "util/assert.hpp"

namespace mp::extmem {

struct DeviceConfig {
  std::uint32_t block_bytes = 64 * 1024;
  /// Latency model: seek (per transfer) + transfer (per byte).
  double seek_us = 100.0;            // ~HDD-ish seek/settle
  double bandwidth_bytes_per_us = 150.0;  // ~150 MB/s sequential
  /// Capacity in blocks; 0 = unbounded. Allocations past the cap fail with
  /// IoError(kNoSpace) — the honest way to test ENOSPC recovery paths.
  std::uint64_t max_blocks = 0;
  /// When > 0, every successful transfer also *sleeps* for
  /// realize_scale × its modeled cost, so wall-clock time carries the I/O
  /// — the pipeline bench (E18) measures its checkpoint overhead this way.
  /// 0 (the default) keeps every other experiment instantaneous.
  double realize_scale = 0.0;
};

struct DeviceStats {
  std::uint64_t block_reads = 0;   ///< successful reads only
  std::uint64_t block_writes = 0;  ///< successful writes only
  std::uint64_t seeks = 0;  ///< transfers not contiguous with the previous
  std::uint64_t faults_injected = 0;   ///< failed attempts (all kinds)
  std::uint64_t short_transfers = 0;   ///< partial-transfer attempts
  std::uint64_t blocks_released = 0;   ///< blocks freed via release_blocks

  std::uint64_t transfers() const { return block_reads + block_writes; }
};

/// Outcome of one fallible transfer attempt.
enum class IoStatus : std::uint8_t {
  kOk,
  kInterrupted,    ///< transient (EINTR-style); retrying may succeed
  kShortTransfer,  ///< partial transfer; the whole block must be redone
  kNoSpace,        ///< ENOSPC (permanent)
  kMediaError,     ///< EIO (permanent)
};

const char* to_string(IoStatus status);

/// Typed external-memory I/O failure. Thrown by allocate() on ENOSPC and
/// by the run-file retry loops when attempts are exhausted or the fault is
/// permanent. Catchable, deterministic, and never an abort.
class IoError : public fault::FaultError {
 public:
  IoError(IoStatus status, std::uint64_t block, const std::string& what);

  IoStatus status() const { return status_; }
  std::uint64_t block() const { return block_; }

 private:
  IoStatus status_;
  std::uint64_t block_;
};

/// A growable simulated device. Blocks are identified by index; reading a
/// never-written block is an error (catches run-bookkeeping bugs).
class BlockDevice {
 public:
  explicit BlockDevice(const DeviceConfig& config = {});

  const DeviceConfig& config() const { return config_; }
  const DeviceStats& stats() const { return stats_; }
  void reset_stats() { stats_ = DeviceStats{}; }

  /// Attaches (or detaches, with nullptr) a fault schedule. Prefer the
  /// RAII fault::ScopedInjector over calling this directly.
  void set_fault_plan(fault::FaultPlan* plan) { faults_ = plan; }
  fault::FaultPlan* fault_plan() const { return faults_; }

  /// Allocates `count` fresh blocks, returning the first index. Throws
  /// IoError(kNoSpace) past config().max_blocks or on a scripted ENOSPC.
  std::uint64_t allocate(std::uint64_t count);

  /// Fallible transfers: consult the fault plan, report the outcome, and
  /// only count successful attempts in block_reads/block_writes. A failed
  /// write leaves the block unwritten (reading it is an error), so a
  /// caller that ignores a short write cannot silently read garbage. A
  /// successful write of fewer than block_bytes zero-fills the rest of the
  /// block (0 bytes writes a block of zeros).
  IoStatus try_write_block(std::uint64_t block, const void* data,
                           std::uint32_t bytes);
  IoStatus try_read_block(std::uint64_t block, void* data,
                          std::uint32_t bytes);

  /// Infallible wrappers for fault-free callers: MP_CHECK the attempt
  /// succeeded (with no plan attached they cannot fail).
  void write_block(std::uint64_t block, const void* data,
                   std::uint32_t bytes) {
    const IoStatus status = try_write_block(block, data, bytes);
    MP_CHECK(status == IoStatus::kOk);
  }
  void read_block(std::uint64_t block, void* data, std::uint32_t bytes) {
    const IoStatus status = try_read_block(block, data, bytes);
    MP_CHECK(status == IoStatus::kOk);
  }

  /// Frees the backing store of [first, first + count): the blocks become
  /// never-written again and their memory is returned. Recovery paths use
  /// this so an aborted sort leaves no temp-run garbage behind.
  void release_blocks(std::uint64_t first, std::uint64_t count);

  /// Blocks currently holding data (written and not released).
  std::uint64_t live_blocks() const { return live_blocks_; }

  /// Whether `block` currently holds data. The pipeline's manifest loader
  /// uses this to probe checkpoint slots without tripping the
  /// read-of-never-written MP_CHECK.
  bool is_written(std::uint64_t block) const {
    return block < store_.size() && !store_[block].empty();
  }

  /// Serializes the device (config + every written block + one caller
  /// word, checksummed) so a tool process can "crash" — exit — and a later
  /// process can resume against the same storage state. Not a performance
  /// path: the image is a crash-drill artifact. load_image throws
  /// IoError(kMediaError) on a truncated or corrupt image; stats and any
  /// attached fault plan are per-incarnation and start fresh.
  void save_image(std::ostream& out, std::uint64_t user_word) const;
  static BlockDevice load_image(std::istream& in, std::uint64_t* user_word);

  /// Adds modeled time (used for injected latency and retry backoff).
  void charge_latency(double us) { fault_latency_us_ += us; }

  /// Modelled I/O time of the traffic so far (microseconds): every
  /// non-sequential transfer pays a seek; all bytes pay bandwidth; plus
  /// any injected latency and retry backoff.
  double modeled_io_us() const;

  std::uint64_t blocks_allocated() const { return store_.size(); }

 private:
  DeviceConfig config_;
  DeviceStats stats_;
  fault::FaultPlan* faults_ = nullptr;
  std::vector<std::vector<std::uint8_t>> store_;  // empty = never written
  std::uint64_t last_block_ = ~0ull;              // for seek accounting
  std::uint64_t bytes_moved_ = 0;
  std::uint64_t live_blocks_ = 0;
  double fault_latency_us_ = 0.0;

  void note_access(std::uint64_t block);
  /// Sleeps for realize_scale × one block's modeled cost (no-op at 0).
  void realize_transfer() const;
  /// Consults the plan for this attempt; returns the injected fault (or
  /// kNone) after accounting for it. Compiled out under MP_FAULT=0.
  fault::FaultKind inject(fault::OpClass op);
};

}  // namespace mp::extmem

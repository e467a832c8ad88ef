#pragma once
/// \file run_file.hpp
/// Sorted-run storage on a BlockDevice: sequential writers and buffered
/// readers with block-granular I/O. Element type is trivially copyable
/// (the on-"disk" format is raw little-endian memory, as an internal
/// sort-spill format would be).
///
/// Fault handling: both endpoints drive the device through its fallible
/// try_* API with a bounded retry-with-backoff loop (fault::RetryPolicy).
/// Transient faults (EINTR, short transfers) are retried with modeled
/// exponential backoff charged to the device clock; permanent faults
/// (ENOSPC, media errors) and exhausted retries surface as the typed
/// IoError. A caller cleans up after a failed run by releasing its
/// blocks: allocation is append-only, so they are a suffix of the device
/// (pipeline::sort_vector releases everything from its input on).

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "extmem/block_device.hpp"
#include "fault/fault.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace mp::extmem {

/// Descriptor of one run on the device.
struct RunHandle {
  std::uint64_t first_block = 0;
  std::uint64_t element_count = 0;

  friend bool operator==(const RunHandle&, const RunHandle&) = default;
};

namespace detail {

/// Shared retry loop: attempts `op()` (returning IoStatus) up to
/// max_attempts times, charging doubled modeled backoff between tries.
/// Returns the number of retries performed; throws IoError on a permanent
/// status or when attempts run out. With retry.jitter > 0 and a fault plan
/// attached, each backoff is scaled by a seeded draw from
/// [1 - jitter, 1] (the plan's jitter stream, independent of its decision
/// stream) so lanes that fault in lockstep de-synchronize their retries.
template <typename Op>
std::uint64_t retry_io(BlockDevice& device, const fault::RetryPolicy& retry,
                       std::uint64_t block, const char* what, Op op) {
  double backoff = retry.backoff_us;
  const unsigned attempts = retry.max_attempts < 1 ? 1 : retry.max_attempts;
  for (unsigned attempt = 1;; ++attempt) {
    const IoStatus status = op();
    if (status == IoStatus::kOk) return attempt - 1;
    if (status == IoStatus::kNoSpace || status == IoStatus::kMediaError ||
        attempt >= attempts) {
      obs::flight_report_degraded("extmem.permanent");
      throw IoError(status, block,
                    std::string(what) + " block " + std::to_string(block) +
                        ": " + to_string(status) +
                        (status == IoStatus::kInterrupted ||
                                 status == IoStatus::kShortTransfer
                             ? " (retries exhausted)"
                             : ""));
    }
    obs::Span::instant("xsort.retry", "block", block);
    double wait = backoff;
    if (retry.jitter > 0.0) {
      if (fault::FaultPlan* plan = device.fault_plan())
        wait *= 1.0 - retry.jitter * plan->jitter01();
    }
    device.charge_latency(wait);
    backoff *= 2.0;
  }
}

}  // namespace detail

/// Streams elements out to device blocks, in one of two modes:
///  - fresh allocation (run formation, spills): each block is allocated
///    as it is flushed, so a run's blocks are consecutive;
///  - preallocated range (the pipeline's merge segments and exchange
///    slices): blocks first_block, first_block + 1, ... that the caller
///    allocated up front, so a redone unit rewrites exactly its own
///    disjoint blocks — the idempotence the checkpoint layer needs.
/// Bulk appends write whole blocks straight from the caller's memory
/// whenever nothing is staged; only partial blocks are staged.
template <typename T>
class RunWriter {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  /// Fresh-allocation mode.
  explicit RunWriter(BlockDevice& device, fault::RetryPolicy retry = {})
      : device_(&device), retry_(retry) {
    buffer_.reserve(elems_per_block());
  }

  /// Preallocated mode: writes into blocks [first_block, ...).
  RunWriter(BlockDevice& device, std::uint64_t first_block,
            fault::RetryPolicy retry = {})
      : RunWriter(device, retry) {
    preallocated_ = true;
    next_block_ = first_block;
  }

  std::size_t elems_per_block() const {
    return device_->config().block_bytes / sizeof(T);
  }

  void append(const T& value) {
    buffer_.push_back(value);
    if (buffer_.size() == elems_per_block()) flush_buffer();
  }

  void append(const T* values, std::size_t count) {
    const std::size_t per_block = elems_per_block();
    while (count > 0) {
      if (buffer_.empty() && count >= per_block) {
        write_block(values, per_block);
        values += per_block;
        count -= per_block;
        continue;
      }
      const std::size_t take = std::min(count, per_block - buffer_.size());
      buffer_.insert(buffer_.end(), values, values + take);
      values += take;
      count -= take;
      if (buffer_.size() == per_block) flush_buffer();
    }
  }

  /// Flushes the tail and returns the finished run's handle (first block
  /// 0 for an empty run). The writer may be reused for a new run
  /// afterwards; in preallocated mode it continues at the next block.
  RunHandle finish() {
    if (!buffer_.empty()) flush_buffer();
    RunHandle handle{first_block_ == kUnset ? 0 : first_block_, written_};
    first_block_ = kUnset;
    written_ = 0;
    return handle;
  }

  /// Transient-fault retries performed over this writer's lifetime.
  std::uint64_t retries() const { return retries_; }

 private:
  static constexpr std::uint64_t kUnset = ~0ull;

  void flush_buffer() {
    write_block(buffer_.data(), buffer_.size());
    buffer_.clear();
  }

  void write_block(const T* data, std::size_t count) {
    // allocate() may throw IoError(kNoSpace); the caller's recovery path
    // releases the blocks this run already took.
    const std::uint64_t block =
        preallocated_ ? next_block_++ : device_->allocate(1);
    if (first_block_ == kUnset) first_block_ = block;
    retries_ += detail::retry_io(
        *device_, retry_, block, "write", [&] {
          return device_->try_write_block(
              block, data, static_cast<std::uint32_t>(count * sizeof(T)));
        });
    written_ += count;
  }

  BlockDevice* device_;
  fault::RetryPolicy retry_;
  bool preallocated_ = false;
  std::uint64_t next_block_ = 0;
  std::vector<T> buffer_;  // the staged partial block
  std::uint64_t first_block_ = kUnset;
  std::uint64_t written_ = 0;
  std::uint64_t retries_ = 0;
};

/// Buffered sequential reader over a run (or a window of one). Holds one
/// block in memory — the B-sized input buffer of the Aggarwal-Vitter
/// merge — which it lends out whole (block()/skip()) or element by
/// element (peek()/next()). Bulk reads move whole aligned blocks straight
/// into the caller's memory.
template <typename T>
class RunReader {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  RunReader(BlockDevice& device, RunHandle handle,
            fault::RetryPolicy retry = {})
      : device_(&device), first_block_(handle.first_block), retry_(retry),
        end_(handle.element_count) {}

  /// Windowed reader over elements [offset, offset + count) of the run.
  /// The pipeline's resume path and co-rank fragment fetches start
  /// mid-run; the first refill lands mid-block and the cursor picks up
  /// from there.
  RunReader(BlockDevice& device, RunHandle handle, std::uint64_t offset,
            std::uint64_t count, fault::RetryPolicy retry = {})
      : RunReader(device, handle, retry) {
    MP_ASSERT(offset + count <= handle.element_count);
    consumed_ = offset;
    end_ = offset + count;
  }

  std::size_t elems_per_block() const {
    return device_->config().block_bytes / sizeof(T);
  }

  bool empty() const { return consumed_ == end_; }
  std::uint64_t remaining() const { return end_ - consumed_; }
  /// Index within the run of the next element to consume (the cursor).
  std::uint64_t position() const { return consumed_; }

  const T& peek() {
    MP_ASSERT(!empty());
    if (!buffered()) load();
    return buffer_[static_cast<std::size_t>(consumed_ - buf_lo_)];
  }

  T next() {
    const T value = peek();
    ++consumed_;
    return value;
  }

  /// The unconsumed rest of the current block, clipped to the window. A
  /// used-up block is replaced first, so the span is empty only at the
  /// end of the window. Valid until the next call that refills.
  std::span<const T> block() {
    if (empty()) return {};
    if (!buffered()) load();
    return {buffer_.data() + (consumed_ - buf_lo_),
            static_cast<std::size_t>(buf_hi_ - consumed_)};
  }

  /// Consumes the first `n` elements of block().
  void skip(std::size_t n) {
    MP_ASSERT(n <= remaining());
    consumed_ += n;
  }

  /// Copies the next `n` elements of the window to `dst`. A whole block
  /// that starts at the cursor, lies inside the `n` and is not buffered
  /// already is read straight into `dst`; the partial blocks at either
  /// end go through the buffer.
  void read(T* dst, std::size_t n) {
    MP_ASSERT(n <= remaining());
    const std::size_t per_block = elems_per_block();
    while (n > 0) {
      if (n >= per_block && consumed_ % per_block == 0 && !buffered()) {
        fetch(consumed_ / per_block, dst);
        dst += per_block;
        n -= per_block;
        consumed_ += per_block;
        continue;
      }
      const std::span<const T> view = block();
      const std::size_t take = std::min(n, view.size());
      std::copy_n(view.data(), take, dst);
      dst += take;
      n -= take;
      consumed_ += take;
    }
  }

  /// Transient-fault retries performed over this reader's lifetime.
  std::uint64_t retries() const { return retries_; }

 private:
  /// Whether the buffer holds the block the cursor is in.
  bool buffered() const { return consumed_ >= buf_lo_ && consumed_ < buf_hi_; }

  /// Buffers the block the cursor is in.
  void load() {
    const std::uint64_t per_block = elems_per_block();
    if (buffer_.empty()) buffer_.resize(static_cast<std::size_t>(per_block));
    const std::uint64_t block_index = consumed_ / per_block;
    fetch(block_index, buffer_.data());
    buf_lo_ = block_index * per_block;
    buf_hi_ = std::min(buf_lo_ + per_block, end_);
  }

  /// Reads one whole block of the run into `dst`.
  void fetch(std::uint64_t block_index, T* dst) {
    const std::uint64_t block = first_block_ + block_index;
    retries_ += detail::retry_io(
        *device_, retry_, block, "read", [&] {
          return device_->try_read_block(
              block, dst,
              static_cast<std::uint32_t>(elems_per_block() * sizeof(T)));
        });
  }

  BlockDevice* device_;
  std::uint64_t first_block_;
  fault::RetryPolicy retry_;
  std::vector<T> buffer_;
  std::uint64_t buf_lo_ = 0;  // run indices the buffer holds: [lo, hi)
  std::uint64_t buf_hi_ = 0;
  std::uint64_t consumed_ = 0;  // absolute element index within the run
  std::uint64_t end_;
  std::uint64_t retries_ = 0;
};

}  // namespace mp::extmem

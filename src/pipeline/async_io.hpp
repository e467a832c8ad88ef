#pragma once
/// \file async_io.hpp
/// Double-buffered asynchronous block I/O for the pipeline.
///
/// BlockDevice is single-threaded by design, so the pipeline funnels ALL
/// device access during a phase through one IoThread: compute (the merge)
/// runs on the caller while the next block's read/write executes on the
/// I/O thread — the overlap ROADMAP item 3 asks for (and the CARE staged-
/// buffer idiom from SNIPPETS.md §2, with the io thread standing in for
/// the copy stream). With async=false the same code runs every operation
/// inline on the caller, which is the serial baseline the E18 bench
/// compares against.
///
/// Error model: an async job that throws (IoError, typically) parks its
/// exception and rethrows it at the caller's next wait()/drain() — by
/// finish() at the latest — so failures cannot pass silently.
///
/// Readers and writers here mirror extmem::RunReader/RunWriter but keep
/// transfers in flight: AsyncRunReader prefetches block b+1 while the
/// merge consumes block b; AsyncRunWriter writes up to three filled blocks
/// while the merge fills the next. Both move whole blocks: the reader
/// lends its current block as a span (block()/skip()), the writer takes
/// bulk copies.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "extmem/block_device.hpp"
#include "extmem/run_file.hpp"
#include "util/assert.hpp"

namespace mp::pipeline {

/// Single background thread owning all device access for a pipeline
/// phase. FIFO: jobs run in post order, so sequential allocation stays
/// deterministic even when posted from compute.
class IoThread {
 public:
  /// async=false degrades every post() to an inline call on the caller
  /// (the serial baseline; also used when double buffering is disabled).
  explicit IoThread(bool async);
  ~IoThread();

  IoThread(const IoThread&) = delete;
  IoThread& operator=(const IoThread&) = delete;

  bool async() const { return async_; }

  using Job = std::function<void()>;

  /// Enqueues a job; returns its ticket. In inline mode the job runs
  /// immediately (exceptions propagate directly).
  std::uint64_t post(Job job);

  /// Blocks until the job behind `ticket` completed; rethrows its
  /// exception if it threw.
  void wait(std::uint64_t ticket);

  /// Waits for every posted job; rethrows the earliest parked exception.
  void drain();

  /// Runs `fn` on the I/O thread synchronously and returns its result —
  /// the marshalling point for device operations the compute side needs
  /// inline (allocation, checkpoint writes, stats snapshots).
  template <typename Fn>
  auto run(Fn&& fn) {
    using R = std::invoke_result_t<Fn&>;
    if constexpr (std::is_void_v<R>) {
      wait(post([&fn] { fn(); }));
    } else {
      R result{};
      wait(post([&fn, &result] { result = fn(); }));
      return result;
    }
  }

 private:
  struct Impl;
  bool async_;
  std::unique_ptr<Impl> impl_;
};

/// Windowed double-buffered reader over elements [offset, offset+count)
/// of a run. Same contract as extmem::RunReader but refills through the
/// IoThread with one block prefetched ahead.
template <typename T>
class AsyncRunReader {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  AsyncRunReader(IoThread& io, extmem::BlockDevice& device,
                 extmem::RunHandle run, std::uint64_t offset,
                 std::uint64_t count, fault::RetryPolicy retry = {})
      : io_(&io), device_(&device), run_(run), retry_(retry),
        consumed_(offset), end_(offset + count) {
    MP_ASSERT(end_ <= run.element_count);
    current_.resize(elems_per_block());
    pending_buf_.resize(elems_per_block());
  }

  AsyncRunReader(const AsyncRunReader&) = delete;
  AsyncRunReader& operator=(const AsyncRunReader&) = delete;

  ~AsyncRunReader() {
    // A prefetch may still be in flight; settle it so the io thread never
    // touches a destroyed buffer. Its error (if any) no longer matters.
    if (pending_block_ != kNone) {
      try {
        io_->wait(pending_ticket_);
      } catch (...) {
      }
    }
  }

  std::size_t elems_per_block() const {
    return device_->config().block_bytes / sizeof(T);
  }

  bool empty() const { return consumed_ == end_; }
  std::uint64_t remaining() const { return end_ - consumed_; }
  /// Index within the run of the next element to consume (the cursor).
  std::uint64_t position() const { return consumed_; }

  /// The unconsumed rest of the current block, clipped to the window. A
  /// used-up block is replaced first (starting the next prefetch), so the
  /// span is empty only at the end of the window. Valid until the next
  /// call that refills.
  std::span<const T> block() {
    if (empty()) return {};
    refill_if_needed();
    const std::uint64_t lo = current_block_ * elems_per_block();
    const std::uint64_t hi = std::min(lo + elems_per_block(), end_);
    return {current_.data() + (consumed_ - lo),
            static_cast<std::size_t>(hi - consumed_)};
  }

  /// Consumes the first `n` elements of block().
  void skip(std::size_t n) { consumed_ += n; }

  /// Copies the next `n` elements of the window to `dst`, a block at a time.
  void read(T* dst, std::size_t n) {
    for (std::size_t done = 0; done < n;) {
      const std::span<const T> view = block();
      MP_ASSERT(!view.empty());
      const std::size_t take = std::min(n - done, view.size());
      std::copy_n(view.data(), take, dst + done);
      skip(take);
      done += take;
    }
  }

  T next() {
    const T value = block().front();
    skip(1);
    return value;
  }

 private:
  static constexpr std::uint64_t kNone = ~0ull;

  void start_fetch(std::uint64_t block_index) {
    const std::uint64_t block = run_.first_block + block_index;
    T* buf = pending_buf_.data();
    const auto bytes =
        static_cast<std::uint32_t>(pending_buf_.size() * sizeof(T));
    pending_ticket_ = io_->post([this, block, buf, bytes] {
      extmem::detail::retry_io(*device_, retry_, block, "read", [&] {
        return device_->try_read_block(block, buf, bytes);
      });
    });
    pending_block_ = block_index;
  }

  void refill_if_needed() {
    if (current_block_ != kNone) {
      const std::uint64_t lo = current_block_ * elems_per_block();
      if (consumed_ >= lo && consumed_ < lo + elems_per_block()) return;
    }
    const std::uint64_t needed = consumed_ / elems_per_block();
    if (pending_block_ != needed) {
      // Cold start (or a seek the prefetcher did not predict): settle any
      // stale prefetch, then fetch the block we actually need.
      if (pending_block_ != kNone) io_->wait(pending_ticket_);
      start_fetch(needed);
    }
    io_->wait(pending_ticket_);
    std::swap(current_, pending_buf_);
    current_block_ = needed;
    pending_block_ = kNone;
    // Prefetch the next block of the window while this one is consumed.
    const std::uint64_t last = (end_ - 1) / elems_per_block();
    if (needed < last) start_fetch(needed + 1);
  }

  IoThread* io_;
  extmem::BlockDevice* device_;
  extmem::RunHandle run_;
  fault::RetryPolicy retry_;
  std::vector<T> current_;
  std::vector<T> pending_buf_;
  std::uint64_t current_block_ = kNone;  // block index within the run
  std::uint64_t pending_block_ = kNone;
  std::uint64_t pending_ticket_ = 0;
  std::uint64_t consumed_;  // absolute element index within the run
  std::uint64_t end_;
};

/// Double-buffered writer. Two modes:
///  - fresh-allocation (run formation): each flushed block is allocated
///    on the io thread (FIFO keeps allocation order deterministic);
///  - preallocated range (merge segments / exchange slices): blocks are
///    written at fixed positions, so a redone unit rewrites exactly its
///    own disjoint blocks — the idempotence the checkpoint layer needs.
template <typename T>
class AsyncRunWriter {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  /// Fresh-allocation mode.
  AsyncRunWriter(IoThread& io, extmem::BlockDevice& device,
                 fault::RetryPolicy retry = {})
      : io_(&io), device_(&device), retry_(retry) {
    reserve();
  }

  /// Preallocated mode: writes into blocks [first_block, ...).
  AsyncRunWriter(IoThread& io, extmem::BlockDevice& device,
                 std::uint64_t first_block, fault::RetryPolicy retry = {})
      : io_(&io), device_(&device), retry_(retry), preallocated_(true),
        next_block_(first_block), first_block_(first_block) {
    reserve();
  }

  AsyncRunWriter(const AsyncRunWriter&) = delete;
  AsyncRunWriter& operator=(const AsyncRunWriter&) = delete;

  ~AsyncRunWriter() {
    for (unsigned b = 0; b < kBuffers; ++b) {
      try {
        settle(b);
      } catch (...) {
      }
    }
  }

  std::size_t elems_per_block() const {
    return device_->config().block_bytes / sizeof(T);
  }

  /// Appends `count` elements, copying whole block-sized pieces into the
  /// active buffer and flushing each one as it fills.
  void append(const T* values, std::size_t count) {
    while (count > 0) {
      std::vector<T>& buf = buffers_[active_];
      const std::size_t take = std::min(count, elems_per_block() - buf.size());
      buf.insert(buf.end(), values, values + take);
      values += take;
      count -= take;
      if (buf.size() == elems_per_block()) flush_block();
    }
  }

  /// Flushes the tail, settles all in-flight writes (rethrowing any
  /// parked error), and returns the finished run's handle.
  extmem::RunHandle finish() {
    if (!buffers_[active_].empty()) flush_block();
    for (unsigned b = 0; b < kBuffers; ++b) settle(b);
    io_->drain();
    return extmem::RunHandle{first_block_ == kUnset ? 0 : first_block_,
                             written_};
  }

  std::uint64_t written() const { return written_; }

 private:
  static constexpr std::uint64_t kUnset = ~0ull;
  /// One buffer filling, the rest in flight: a flush waits only for the
  /// write posted kBuffers - 1 flushes earlier, not the one just before.
  static constexpr unsigned kBuffers = 4;

  void reserve() {
    for (std::vector<T>& buf : buffers_) buf.reserve(elems_per_block());
  }

  /// Waits out buffer b's write, if one is in flight.
  void settle(unsigned b) {
    if (!inflight_[b]) return;
    inflight_[b] = false;
    io_->wait(tickets_[b]);
  }

  void flush_block() {
    std::vector<T>* buf = &buffers_[active_];
    if (preallocated_) {
      const std::uint64_t block = next_block_++;
      tickets_[active_] =
          io_->post([this, block, buf] { write_one(block, *buf); });
    } else {
      tickets_[active_] = io_->post([this, buf] {
        // Allocation happens here, on the io thread, in FIFO post order:
        // run blocks stay sequential and deterministic.
        const std::uint64_t block = device_->allocate(1);
        if (first_block_ == kUnset) first_block_ = block;
        write_one(block, *buf);
      });
    }
    inflight_[active_] = true;
    written_ += buf->size();
    active_ = (active_ + 1) % kBuffers;
    settle(active_);  // the oldest write; its buffer is refilled next
    buffers_[active_].clear();
  }

  void write_one(std::uint64_t block, const std::vector<T>& buf) {
    if (preallocated_ && first_block_ == kUnset) first_block_ = block;
    extmem::detail::retry_io(*device_, retry_, block, "write", [&] {
      return device_->try_write_block(
          block, buf.data(),
          static_cast<std::uint32_t>(buf.size() * sizeof(T)));
    });
  }

  IoThread* io_;
  extmem::BlockDevice* device_;
  fault::RetryPolicy retry_;
  bool preallocated_ = false;
  std::uint64_t next_block_ = 0;
  std::uint64_t first_block_ = kUnset;
  std::uint64_t written_ = 0;
  std::vector<T> buffers_[kBuffers];
  unsigned active_ = 0;
  bool inflight_[kBuffers] = {};
  std::uint64_t tickets_[kBuffers] = {};
};

}  // namespace mp::pipeline

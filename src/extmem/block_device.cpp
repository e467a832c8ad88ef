#include "extmem/block_device.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <istream>
#include <ostream>
#include <thread>
#include <type_traits>

namespace mp::extmem {

const char* to_string(IoStatus status) {
  switch (status) {
    case IoStatus::kOk: return "ok";
    case IoStatus::kInterrupted: return "interrupted";
    case IoStatus::kShortTransfer: return "short transfer";
    case IoStatus::kNoSpace: return "no space";
    case IoStatus::kMediaError: return "media error";
  }
  return "?";
}

namespace {

fault::FaultKind status_kind(IoStatus status) {
  switch (status) {
    case IoStatus::kInterrupted: return fault::FaultKind::kTransient;
    case IoStatus::kShortTransfer: return fault::FaultKind::kShort;
    case IoStatus::kNoSpace: return fault::FaultKind::kNoSpace;
    case IoStatus::kMediaError: return fault::FaultKind::kMedia;
    case IoStatus::kOk: break;
  }
  return fault::FaultKind::kNone;
}

}  // namespace

IoError::IoError(IoStatus status, std::uint64_t block,
                 const std::string& what)
    : fault::FaultError(status_kind(status), what),
      status_(status),
      block_(block) {}

BlockDevice::BlockDevice(const DeviceConfig& config) : config_(config) {
  MP_CHECK(config_.block_bytes > 0);
}

fault::FaultKind BlockDevice::inject(fault::OpClass op) {
  if constexpr (fault::kFaultCompiledIn) {
    if (faults_ == nullptr) return fault::FaultKind::kNone;
    const fault::FaultKind kind = faults_->decide(op);
    if (kind == fault::FaultKind::kNone) return kind;
    ++stats_.faults_injected;
    if (kind == fault::FaultKind::kLatency)
      charge_latency(faults_->latency_us());
    return kind;
  } else {
    static_cast<void>(op);
    return fault::FaultKind::kNone;
  }
}

std::uint64_t BlockDevice::allocate(std::uint64_t count) {
  if (inject(fault::OpClass::kAllocate) == fault::FaultKind::kNoSpace)
    throw IoError(IoStatus::kNoSpace, store_.size(),
                  "injected ENOSPC allocating " + std::to_string(count) +
                      " block(s)");
  if (config_.max_blocks != 0 && store_.size() + count > config_.max_blocks)
    throw IoError(IoStatus::kNoSpace, store_.size(),
                  "device full: " + std::to_string(store_.size()) + " of " +
                      std::to_string(config_.max_blocks) +
                      " blocks allocated");
  const std::uint64_t first = store_.size();
  store_.resize(store_.size() + count);
  return first;
}

void BlockDevice::note_access(std::uint64_t block) {
  // The very first access is a seek too (last_block_ + 1 would wrap the
  // ~0 sentinel to 0 and silently match block 0).
  if (last_block_ == ~0ull || block != last_block_ + 1) ++stats_.seeks;
  last_block_ = block;
  bytes_moved_ += config_.block_bytes;
}

IoStatus BlockDevice::try_write_block(std::uint64_t block, const void* data,
                                      std::uint32_t bytes) {
  MP_CHECK(block < store_.size());
  MP_CHECK(bytes <= config_.block_bytes);
  auto& slot = store_[block];
  switch (inject(fault::OpClass::kWrite)) {
    case fault::FaultKind::kTransient:
      note_access(block);  // the failed attempt still moved the head
      return IoStatus::kInterrupted;
    case fault::FaultKind::kShort: {
      // A prefix reached the medium but the block is not durable: leave
      // the slot unwritten so a reader cannot see the torn state.
      ++stats_.short_transfers;
      if (!slot.empty()) {
        --live_blocks_;
        std::vector<std::uint8_t>().swap(slot);
      }
      note_access(block);
      return IoStatus::kShortTransfer;
    }
    case fault::FaultKind::kNoSpace:
      return IoStatus::kNoSpace;
    case fault::FaultKind::kMedia:
      return IoStatus::kMediaError;
    default:
      break;
  }
  if (slot.empty()) ++live_blocks_;
  const auto* src = static_cast<const std::uint8_t*>(data);
  slot.assign(src, src + bytes);  // then zeros past `bytes` only
  slot.resize(config_.block_bytes);
  ++stats_.block_writes;
  note_access(block);
  realize_transfer();
  return IoStatus::kOk;
}

IoStatus BlockDevice::try_read_block(std::uint64_t block, void* data,
                                     std::uint32_t bytes) {
  MP_CHECK(block < store_.size());
  MP_CHECK(bytes <= config_.block_bytes);
  const auto& slot = store_[block];
  MP_CHECK(!slot.empty());  // reading a never-written block
  switch (inject(fault::OpClass::kRead)) {
    case fault::FaultKind::kTransient:
      note_access(block);
      return IoStatus::kInterrupted;
    case fault::FaultKind::kShort:
      ++stats_.short_transfers;
      note_access(block);
      return IoStatus::kShortTransfer;
    case fault::FaultKind::kNoSpace:  // not meaningful for reads; treat as EIO
    case fault::FaultKind::kMedia:
      return IoStatus::kMediaError;
    default:
      break;
  }
  std::memcpy(data, slot.data(), bytes);
  ++stats_.block_reads;
  note_access(block);
  realize_transfer();
  return IoStatus::kOk;
}

void BlockDevice::realize_transfer() const {
  if (config_.realize_scale <= 0.0) return;
  const double block_us =
      config_.seek_us + static_cast<double>(config_.block_bytes) /
                            config_.bandwidth_bytes_per_us;
  std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(
      block_us * config_.realize_scale));
}

void BlockDevice::release_blocks(std::uint64_t first, std::uint64_t count) {
  const std::uint64_t end =
      std::min<std::uint64_t>(first + count, store_.size());
  for (std::uint64_t b = first; b < end; ++b) {
    auto& slot = store_[b];
    if (slot.empty()) continue;
    std::vector<std::uint8_t>().swap(slot);
    --live_blocks_;
    ++stats_.blocks_released;
  }
}

double BlockDevice::modeled_io_us() const {
  return static_cast<double>(stats_.seeks) * config_.seek_us +
         static_cast<double>(bytes_moved_) / config_.bandwidth_bytes_per_us +
         fault_latency_us_;
}

namespace {

// Device-image serialization. Everything funnels through one running
// FNV-1a checksum so a truncated or bit-flipped image is rejected as a
// whole rather than deserialized into a plausible-but-wrong device.
constexpr std::uint64_t kImageMagic = 0x4d504445564947ull;  // "MPDEVIG"
constexpr std::uint32_t kImageVersion = 1;
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void fnv_mix(std::uint64_t& h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < bytes; ++i) h = (h ^ p[i]) * kFnvPrime;
}

void put_raw(std::ostream& out, std::uint64_t& h, const void* data,
             std::size_t bytes) {
  out.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(bytes));
  fnv_mix(h, data, bytes);
}

template <typename V>
void put(std::ostream& out, std::uint64_t& h, V value) {
  static_assert(std::is_trivially_copyable_v<V>);
  put_raw(out, h, &value, sizeof(value));
}

void get_raw(std::istream& in, std::uint64_t& h, void* data,
             std::size_t bytes) {
  in.read(static_cast<char*>(data), static_cast<std::streamsize>(bytes));
  if (!in)
    throw IoError(IoStatus::kMediaError, 0, "device image truncated");
  fnv_mix(h, data, bytes);
}

template <typename V>
V get(std::istream& in, std::uint64_t& h) {
  static_assert(std::is_trivially_copyable_v<V>);
  V value;
  get_raw(in, h, &value, sizeof(value));
  return value;
}

}  // namespace

void BlockDevice::save_image(std::ostream& out,
                             std::uint64_t user_word) const {
  std::uint64_t h = kFnvOffset;
  put(out, h, kImageMagic);
  put(out, h, kImageVersion);
  put(out, h, config_.block_bytes);
  put(out, h, config_.seek_us);
  put(out, h, config_.bandwidth_bytes_per_us);
  put(out, h, config_.max_blocks);
  put(out, h, config_.realize_scale);
  put(out, h, user_word);
  put(out, h, static_cast<std::uint64_t>(store_.size()));
  for (const auto& slot : store_) {
    const std::uint8_t written = slot.empty() ? 0 : 1;
    put(out, h, written);
    if (written) put_raw(out, h, slot.data(), slot.size());
  }
  // The checksum itself is excluded from the hash, naturally.
  out.write(reinterpret_cast<const char*>(&h), sizeof(h));
  if (!out)
    throw IoError(IoStatus::kMediaError, 0, "device image write failed");
}

BlockDevice BlockDevice::load_image(std::istream& in,
                                    std::uint64_t* user_word) {
  std::uint64_t h = kFnvOffset;
  if (get<std::uint64_t>(in, h) != kImageMagic)
    throw IoError(IoStatus::kMediaError, 0, "device image: bad magic");
  if (get<std::uint32_t>(in, h) != kImageVersion)
    throw IoError(IoStatus::kMediaError, 0,
                  "device image: unsupported version");
  DeviceConfig config;
  config.block_bytes = get<std::uint32_t>(in, h);
  config.seek_us = get<double>(in, h);
  config.bandwidth_bytes_per_us = get<double>(in, h);
  config.max_blocks = get<std::uint64_t>(in, h);
  config.realize_scale = get<double>(in, h);
  const std::uint64_t user = get<std::uint64_t>(in, h);
  const std::uint64_t blocks = get<std::uint64_t>(in, h);
  if (config.block_bytes == 0 ||
      (config.max_blocks != 0 && blocks > config.max_blocks))
    throw IoError(IoStatus::kMediaError, 0, "device image: bad geometry");
  BlockDevice device(config);
  device.store_.resize(blocks);
  for (auto& slot : device.store_) {
    if (get<std::uint8_t>(in, h) == 0) continue;
    slot.resize(config.block_bytes);
    get_raw(in, h, slot.data(), slot.size());
    ++device.live_blocks_;
  }
  std::uint64_t stored = 0;
  in.read(reinterpret_cast<char*>(&stored), sizeof(stored));
  if (!in || stored != h)
    throw IoError(IoStatus::kMediaError, 0, "device image: checksum mismatch");
  if (user_word != nullptr) *user_word = user;
  return device;
}

}  // namespace mp::extmem

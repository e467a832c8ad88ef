#include "pipeline/manifest.hpp"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "util/assert.hpp"

namespace mp::pipeline {

const char* to_string(Phase phase) {
  switch (phase) {
    case Phase::kForm: return "form";
    case Phase::kMerge: return "merge";
    case Phase::kExchange: return "exchange";
    case Phase::kDone: return "done";
  }
  return "?";
}

namespace {

constexpr std::uint64_t kMagic = 0x4d504d414e494631ull;  // "MPMANIF1"
constexpr std::uint32_t kVersion = 2;
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t bytes) {
  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i < bytes; ++i) h = (h ^ data[i]) * kFnvPrime;
  return h;
}

struct Writer {
  std::vector<std::uint8_t> bytes;

  template <typename V>
  void put(V value) {
    static_assert(std::is_trivially_copyable_v<V>);
    // Appends the object representation. (resize + memcpy here trips a
    // GCC 12 -Warray-bounds false positive whose firing depends on the
    // translation unit's include order.)
    const auto* raw = reinterpret_cast<const std::uint8_t*>(&value);
    bytes.insert(bytes.end(), raw, raw + sizeof(V));
  }
  void put_handle(const extmem::RunHandle& h) {
    put(h.first_block);
    put(h.element_count);
  }
  void put_u64s(const std::vector<std::uint64_t>& v) {
    put(static_cast<std::uint32_t>(v.size()));
    for (std::uint64_t x : v) put(x);
  }
};

struct Reader {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t at = 0;

  template <typename V>
  V get() {
    static_assert(std::is_trivially_copyable_v<V>);
    if (at + sizeof(V) > size)
      throw ManifestError("manifest truncated at byte " + std::to_string(at));
    V value;
    std::memcpy(&value, data + at, sizeof(V));
    at += sizeof(V);
    return value;
  }
  extmem::RunHandle get_handle() {
    extmem::RunHandle h;
    h.first_block = get<std::uint64_t>();
    h.element_count = get<std::uint64_t>();
    return h;
  }
  std::vector<std::uint64_t> get_u64s(std::size_t limit) {
    const std::uint32_t n = get<std::uint32_t>();
    if (n > limit)
      throw ManifestError("manifest vector length " + std::to_string(n) +
                          " exceeds plausible bound");
    std::vector<std::uint64_t> v(n);
    for (auto& x : v) x = get<std::uint64_t>();
    return v;
  }
};

// Bound on deserialized vector lengths: a corrupt length field must fail
// validation, not drive a multi-gigabyte allocation before the checksum
// is ever checked.
constexpr std::size_t kSaneCount = 1u << 24;

}  // namespace

std::vector<std::uint8_t> serialize_manifest(const Manifest& m) {
  Writer w;
  w.put(kMagic);
  w.put(kVersion);
  w.put(m.seq);
  w.put(static_cast<std::uint8_t>(m.phase));
  w.put(m.elem_bytes);
  w.put(m.total_elements);
  w.put_handle(m.input);
  w.put_handle(m.output);
  w.put(m.watermark);
  w.put(m.ranks_done);
  w.put_u64s(m.exchange_cursors);
  w.put(m.runs_formed);
  w.put(m.segments_merged);
  w.put(m.ranks_exchanged);
  w.put(m.checkpoints);
  w.put(m.resumes);
  w.put(static_cast<std::uint32_t>(m.shards.size()));
  for (const ShardManifest& sh : m.shards) {
    w.put(sh.input_first);
    w.put(sh.input_count);
    w.put(sh.formed);
    w.put(static_cast<std::uint32_t>(sh.runs.size()));
    for (const extmem::RunHandle& h : sh.runs) w.put_handle(h);
    w.put_handle(sh.sorted);
    w.put(sh.segments_done);
    w.put(sh.segment_count);
    w.put_u64s(sh.cursors);
    w.put(sh.group);
    w.put(sh.passes);
  }
  w.put(fnv1a(w.bytes.data(), w.bytes.size()));
  return std::move(w.bytes);
}

Manifest deserialize_manifest(const std::uint8_t* data, std::size_t bytes) {
  if (bytes < sizeof(std::uint64_t))
    throw ManifestError("manifest image too small");
  Reader r{data, bytes};
  if (r.get<std::uint64_t>() != kMagic)
    throw ManifestError("manifest: bad magic");
  if (r.get<std::uint32_t>() != kVersion)
    throw ManifestError("manifest: unsupported version");
  Manifest m;
  m.seq = r.get<std::uint64_t>();
  const auto phase = r.get<std::uint8_t>();
  if (phase > static_cast<std::uint8_t>(Phase::kDone))
    throw ManifestError("manifest: bad phase byte");
  m.phase = static_cast<Phase>(phase);
  m.elem_bytes = r.get<std::uint32_t>();
  m.total_elements = r.get<std::uint64_t>();
  m.input = r.get_handle();
  m.output = r.get_handle();
  m.watermark = r.get<std::uint64_t>();
  m.ranks_done = r.get<std::uint64_t>();
  m.exchange_cursors = r.get_u64s(kSaneCount);
  m.runs_formed = r.get<std::uint64_t>();
  m.segments_merged = r.get<std::uint64_t>();
  m.ranks_exchanged = r.get<std::uint64_t>();
  m.checkpoints = r.get<std::uint64_t>();
  m.resumes = r.get<std::uint64_t>();
  const std::uint32_t shards = r.get<std::uint32_t>();
  if (shards > kSaneCount) throw ManifestError("manifest: bad shard count");
  m.shards.resize(shards);
  for (ShardManifest& sh : m.shards) {
    sh.input_first = r.get<std::uint64_t>();
    sh.input_count = r.get<std::uint64_t>();
    sh.formed = r.get<std::uint64_t>();
    const std::uint32_t runs = r.get<std::uint32_t>();
    if (runs > kSaneCount) throw ManifestError("manifest: bad run count");
    sh.runs.resize(runs);
    for (extmem::RunHandle& h : sh.runs) h = r.get_handle();
    sh.sorted = r.get_handle();
    sh.segments_done = r.get<std::uint64_t>();
    sh.segment_count = r.get<std::uint64_t>();
    sh.cursors = r.get_u64s(kSaneCount);
    sh.group = r.get<std::uint64_t>();
    sh.passes = r.get<std::uint64_t>();
  }
  // The checksum covers every byte before it; trailing padding (the rest
  // of the slot) is not part of the image.
  const std::size_t payload = r.at;
  const std::uint64_t stored = r.get<std::uint64_t>();
  if (stored != fnv1a(data, payload))
    throw ManifestError("manifest: checksum mismatch (torn or corrupt)");
  return m;
}

std::uint64_t ManifestStore::slot_blocks_for(
    const extmem::BlockDevice& device, std::uint64_t worst_case_bytes) {
  const std::uint64_t bb = device.config().block_bytes;
  return (worst_case_bytes + bb - 1) / bb;
}

ManifestStore ManifestStore::create(extmem::BlockDevice& device,
                                    std::uint64_t worst_case_bytes,
                                    fault::RetryPolicy retry) {
  const std::uint64_t slot_blocks = slot_blocks_for(device, worst_case_bytes);
  MP_CHECK(slot_blocks > 0);
  const std::uint64_t base = device.allocate(2 * slot_blocks);
  return ManifestStore(device, base, slot_blocks, retry);
}

ManifestStore ManifestStore::attach(extmem::BlockDevice& device,
                                    std::uint64_t base_block,
                                    std::uint64_t worst_case_bytes,
                                    fault::RetryPolicy retry) {
  const std::uint64_t slot_blocks = slot_blocks_for(device, worst_case_bytes);
  MP_CHECK(slot_blocks > 0);
  MP_CHECK(base_block + 2 * slot_blocks <= device.blocks_allocated());
  return ManifestStore(device, base_block, slot_blocks, retry);
}

std::uint64_t ManifestStore::write(Manifest& m) {
  ++m.seq;
  const std::vector<std::uint8_t> image = serialize_manifest(m);
  const std::uint64_t bb = device_->config().block_bytes;
  MP_CHECK(image.size() <= slot_blocks_ * bb);  // sized at create time
  const std::uint64_t slot = m.seq % 2;
  const std::uint64_t first = base_ + slot * slot_blocks_;
  std::uint64_t retries = 0;
  // Each block takes its share of the image straight from it; the device
  // zero-fills a block past the bytes written, so the slot's padding (and
  // every block past the image) reads back as zeros.
  for (std::uint64_t b = 0; b < slot_blocks_; ++b) {
    const std::size_t at =
        std::min(static_cast<std::size_t>(b * bb), image.size());
    const std::size_t take = std::min<std::size_t>(bb, image.size() - at);
    retries += extmem::detail::retry_io(
        *device_, retry_, first + b, "manifest write", [&] {
          return device_->try_write_block(first + b, image.data() + at,
                                          static_cast<std::uint32_t>(take));
        });
  }
  return retries;
}

bool ManifestStore::try_load_slot(unsigned which, Manifest* out) {
  const std::uint64_t bb = device_->config().block_bytes;
  const std::uint64_t first = base_ + which * slot_blocks_;
  for (std::uint64_t b = 0; b < slot_blocks_; ++b)
    if (!device_->is_written(first + b)) return false;
  std::vector<std::uint8_t> image(slot_blocks_ * bb);
  try {
    for (std::uint64_t b = 0; b < slot_blocks_; ++b)
      extmem::detail::retry_io(*device_, retry_, first + b, "manifest read",
                               [&] {
                                 return device_->try_read_block(
                                     first + b, image.data() + b * bb,
                                     static_cast<std::uint32_t>(bb));
                               });
    *out = deserialize_manifest(image.data(), image.size());
  } catch (const extmem::IoError&) {
    return false;  // unreadable slot: fall back to the other one
  } catch (const ManifestError&) {
    return false;  // torn/corrupt slot
  }
  return true;
}

Manifest ManifestStore::load() {
  Manifest best;
  bool found = false;
  for (unsigned slot = 0; slot < 2; ++slot) {
    Manifest m;
    if (!try_load_slot(slot, &m)) continue;
    if (!found || m.seq > best.seq) best = std::move(m);
    found = true;
  }
  if (!found)
    throw ManifestError(
        "no valid manifest slot (both torn, corrupt, or unwritten): "
        "full restart required");
  return best;
}

void ManifestStore::corrupt_slot(unsigned which) {
  MP_CHECK(which < 2);
  const std::uint64_t bb = device_->config().block_bytes;
  const std::uint64_t block = base_ + which * slot_blocks_;
  if (!device_->is_written(block)) return;
  std::vector<std::uint8_t> data(bb);
  device_->read_block(block, data.data(), static_cast<std::uint32_t>(bb));
  data[16] ^= 0xff;  // inside the serialized payload, past the magic
  device_->write_block(block, data.data(), static_cast<std::uint32_t>(bb));
}

}  // namespace mp::pipeline

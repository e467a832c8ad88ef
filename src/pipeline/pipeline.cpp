#include "pipeline/pipeline.hpp"

namespace mp::pipeline {

std::uint64_t worst_case_manifest_bytes(unsigned shards,
                                        std::uint64_t total_elements,
                                        std::uint64_t memory_elems) {
  MP_CHECK(shards >= 1);
  MP_CHECK(memory_elems >= 1);
  // Largest shard: ceil split of the s*N/R boundaries.
  const std::uint64_t shard_elems =
      (total_elements + shards - 1) / shards;
  const std::uint64_t max_runs = shard_elems / memory_elems + 2;
  // Serialized layout (manifest.cpp): fixed header + counters + checksum
  // come to well under 256 bytes; each shard adds its fixed fields
  // (< 128 bytes) plus 24 bytes per run (16 handle + 8 cursor; merge
  // passes only shrink the run list); the
  // exchange frontier adds 8 bytes per shard. The slack on each term
  // keeps this bound valid across small format extensions.
  return 256 + static_cast<std::uint64_t>(shards) * (128 + max_runs * 24) +
         static_cast<std::uint64_t>(shards) * 8;
}

}  // namespace mp::pipeline

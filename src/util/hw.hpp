#pragma once
/// \file hw.hpp
/// Host hardware introspection: core count and data-cache geometry, plus
/// the huge-page hint for large scratch buffers.
///
/// Cache sizes feed the Segmented Parallel Merge default (L = C/3, Section
/// IV.B of the paper) and the cache-simulator presets. On Linux we read
/// sysfs; when unavailable we fall back to the geometry of the paper's
/// evaluation machine (Xeon X5670: 32 KiB L1d / 256 KiB L2 / 12 MiB L3).

#include <cstddef>
#include <string>
#include <vector>

namespace mp {

/// Geometry of one cache level.
struct CacheLevel {
  int level = 0;               ///< 1, 2, 3...
  std::size_t size_bytes = 0;  ///< total capacity
  std::size_t line_bytes = 64;
  unsigned associativity = 8;
  bool shared = false;  ///< shared between cores (vs private per core)
};

struct HostInfo {
  unsigned logical_cpus = 1;
  std::vector<CacheLevel> caches;  ///< ascending by level, data/unified only

  /// First-level data cache size (bytes); paper-machine fallback 32 KiB.
  std::size_t l1d_bytes() const;
  /// Second-level cache size (bytes): the per-core cache the merge sort
  /// blocks its narrow passes for. Paper-machine fallback 256 KiB, kept
  /// within [l1d_bytes(), llc_bytes()] when the host lists other levels.
  std::size_t l2_bytes() const;
  /// Last-level cache size (bytes); paper-machine fallback 12 MiB.
  std::size_t llc_bytes() const;
};

/// ISA feature bits consumed by the vectorized merge kernels
/// (src/kernels): the dispatcher picks the widest supported kernel at
/// startup. Non-x86 hosts report everything false and dispatch stays on
/// the scalar kernels.
struct CpuFeatures {
  bool sse42 = false;  ///< SSE4.2 (pcmpgtq — the 64-bit kernels need it)
  bool avx2 = false;   ///< AVX2 (256-bit integer min/max/permute)
  /// AVX-512 Foundation (512-bit integer min/max/permute, mask compares)
  /// and Byte+Word; the avx512 merge kernel TU is compiled with
  /// -mavx512f -mavx512bw and dispatch requires both bits.
  bool avx512f = false;
  bool avx512bw = false;
};

/// Queries the host (cached after the first call).
const HostInfo& host_info();

/// Queries CPU ISA features via cpuid (cached after the first call).
const CpuFeatures& cpu_features();

/// Short ISA summary for harness banners: "sse4.2+avx2+avx512",
/// "sse4.2+avx2", "sse4.2", or "baseline" when no extension is present
/// (avx512 is listed only when both the F and BW subsets are there — what
/// the widest merge kernel needs).
std::string isa_string(const CpuFeatures& features);

/// The evaluation machine from the paper (Dell T610, 2x Xeon X5670) as a
/// HostInfo, used by the PRAM/cache simulators' "paper preset".
HostInfo paper_machine();

/// One-line description for harness banners.
std::string describe(const HostInfo& info);

/// Asks the kernel to back the 2 MiB-aligned interior of
/// [data, data + bytes) with transparent huge pages
/// (madvise(MADV_HUGEPAGE)), so that the first touch of a large fresh
/// buffer takes one page fault per 2 MiB instead of one per 4 KiB. A
/// no-op off Linux, for buffers holding no aligned 2 MiB page, and where
/// the kernel declines; the buffer's contents are never affected.
void advise_huge_pages(void* data, std::size_t bytes);

}  // namespace mp

#include "kernels/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <type_traits>

#include "kernels/simd_entry.hpp"
#include "kernels/sort_network.hpp"
#include "util/hw.hpp"

namespace mp::kernels {
namespace {

/// The dispatch choice: the widest supported kernel until set_kernel().
std::atomic<Kernel>& selected() {
  static std::atomic<Kernel> kernel{widest_supported()};
  return kernel;
}

}  // namespace

const char* to_string(Kernel kernel) {
  switch (kernel) {
    case Kernel::kScalar:
      return "scalar";
    case Kernel::kSse4:
      return "sse4";
    case Kernel::kAvx2:
      return "avx2";
    case Kernel::kAvx512:
      return "avx512";
  }
  return "?";
}

const std::string& kernel_names() {
  static const std::string names = [] {
    std::string joined;
    for (const Kernel kernel : kAllKernels) {
      if (!joined.empty()) joined += '|';
      joined += to_string(kernel);
    }
    return joined;
  }();
  return names;
}

std::optional<Kernel> parse_kernel(std::string_view name) {
  for (const Kernel kernel : kAllKernels)
    if (name == to_string(kernel)) return kernel;
  return std::nullopt;
}

bool kernel_supported(Kernel kernel) {
  switch (kernel) {
    case Kernel::kScalar:
      return true;
    case Kernel::kSse4:
#if MP_SIMD && defined(MP_KERNELS_HAVE_SSE4)
      return cpu_features().sse42;
#else
      return false;
#endif
    case Kernel::kAvx2:
#if MP_SIMD && defined(MP_KERNELS_HAVE_AVX2)
      return cpu_features().avx2;
#else
      return false;
#endif
    case Kernel::kAvx512:
#if MP_SIMD && defined(MP_KERNELS_HAVE_AVX512)
      return cpu_features().avx512f && cpu_features().avx512bw;
#else
      return false;
#endif
  }
  return false;
}

Kernel widest_supported() {
  if (kernel_supported(Kernel::kAvx512)) return Kernel::kAvx512;
  if (kernel_supported(Kernel::kAvx2)) return Kernel::kAvx2;
  if (kernel_supported(Kernel::kSse4)) return Kernel::kSse4;
  return Kernel::kScalar;
}

Kernel selected_kernel() {
  return selected().load(std::memory_order_relaxed);
}

bool set_kernel(Kernel kernel) {
  if (!kernel_supported(kernel)) return false;
  selected().store(kernel, std::memory_order_relaxed);
  return true;
}

std::string kernel_banner() {
  return std::string("kernel ") + to_string(selected_kernel()) + " (isa " +
         isa_string(cpu_features()) + ")";
}

namespace detail {

namespace {

/// The comparator an admitted key merges under: totalOrder for float and
/// double, < for the integers.
template <typename Key>
using KeyLess = std::conditional_t<std::is_floating_point_v<Key>,
                                   TotalOrderLess, std::less<>>;

/// The step policy of a vector kernel for chain_merge: its ISA TU's
/// interleaved loop and the window width W (one vector of keys).
template <typename Key>
struct VectorStep {
  static constexpr std::size_t kChains = kVectorChains;
  AdvanceFn<Key>* advance_fn = nullptr;
  std::size_t w = 0;
  KeyLess<Key> comp;

  std::size_t width() const { return w; }
  static constexpr std::size_t min_steps() { return kVectorChainedMinSteps; }
  template <std::size_t K>
  void advance(VectorCursor<Key>* ch) {
    advance_fn(ch, K);
  }
};

/// The step of `kernel` for Key; advance_fn is null when the kernel has
/// no vector merge here (scalar, or its TU compiled out).
template <typename Key>
VectorStep<Key> vector_step(Kernel kernel) {
  VectorStep<Key> step;
  std::size_t vector_bytes = 0;
#if MP_SIMD && defined(MP_KERNELS_HAVE_AVX512)
  if (kernel == Kernel::kAvx512) {
    step.advance_fn = avx512_advance<Key>;
    vector_bytes = 64;
  }
#endif
#if MP_SIMD && defined(MP_KERNELS_HAVE_AVX2)
  if (kernel == Kernel::kAvx2) {
    step.advance_fn = avx2_advance<Key>;
    vector_bytes = 32;
  }
#endif
#if MP_SIMD && defined(MP_KERNELS_HAVE_SSE4)
  if (kernel == Kernel::kSse4) {
    step.advance_fn = sse4_advance<Key>;
    vector_bytes = 16;
  }
#endif
  (void)kernel;
  step.w = vector_bytes / sizeof(Key);
  return step;
}

}  // namespace

template <typename Key>
bool vector_merge_steps(Kernel kernel, const Key* a, std::size_t m,
                        const Key* b, std::size_t n, std::size_t* a_pos,
                        std::size_t* b_pos, Key* out, std::size_t steps) {
  const VectorStep<Key> step = vector_step<Key>(kernel);
  if (step.advance_fn == nullptr) return false;
  chained_merge_steps(a, m, b, n, a_pos, b_pos, out, steps, step);
  return true;
}

template <typename Key>
bool vector_merge_pass(Kernel kernel, const Key* src, Key* dst, std::size_t n,
                       std::size_t width) {
  const VectorStep<Key> step = vector_step<Key>(kernel);
  if (step.advance_fn == nullptr) return false;
  chained_merge_pass(src, dst, n, width, step);
  return true;
}

template <typename Key>
using VectorMergeStepsFn = bool(Kernel, const Key*, std::size_t, const Key*,
                                std::size_t, std::size_t*, std::size_t*, Key*,
                                std::size_t);
template <typename Key>
using VectorMergePassFn = bool(Kernel, const Key*, Key*, std::size_t,
                               std::size_t);

template VectorMergeStepsFn<std::int32_t> vector_merge_steps<std::int32_t>;
template VectorMergeStepsFn<std::uint32_t> vector_merge_steps<std::uint32_t>;
template VectorMergeStepsFn<std::int64_t> vector_merge_steps<std::int64_t>;
template VectorMergeStepsFn<std::uint64_t> vector_merge_steps<std::uint64_t>;
template VectorMergeStepsFn<float> vector_merge_steps<float>;
template VectorMergeStepsFn<double> vector_merge_steps<double>;
template VectorMergePassFn<std::int32_t> vector_merge_pass<std::int32_t>;
template VectorMergePassFn<std::uint32_t> vector_merge_pass<std::uint32_t>;
template VectorMergePassFn<std::int64_t> vector_merge_pass<std::int64_t>;
template VectorMergePassFn<std::uint64_t> vector_merge_pass<std::uint64_t>;
template VectorMergePassFn<float> vector_merge_pass<float>;
template VectorMergePassFn<double> vector_merge_pass<double>;

template <typename Key>
std::size_t simd_sort_runs(Kernel kernel, Key* data, std::size_t n) {
  SortBlocksFn<Key>* sort_blocks = nullptr;
  std::size_t vector_bytes = 0;
#if MP_SIMD && defined(MP_KERNELS_HAVE_AVX512)
  if (kernel == Kernel::kAvx512) {
    sort_blocks = avx512_sort_blocks<Key>;
    vector_bytes = 64;
  }
#endif
#if MP_SIMD && defined(MP_KERNELS_HAVE_AVX2)
  if (kernel == Kernel::kAvx2) {
    sort_blocks = avx2_sort_blocks<Key>;
    vector_bytes = 32;
  }
#endif
#if MP_SIMD && defined(MP_KERNELS_HAVE_SSE4)
  if (kernel == Kernel::kSse4) {
    sort_blocks = sse4_sort_blocks<Key>;
    vector_bytes = 16;
  }
#endif
  // Compiled out (or a non-vector kernel): the caller forms its runs.
  (void)kernel;
  if (sort_blocks == nullptr) return 0;
  const std::size_t lanes = vector_bytes / sizeof(Key);
  const std::size_t width = kSortRegisters * lanes;
  const std::size_t full = n / width;
  if (full > 0) sort_blocks(data, full, kSortRegisters);
  const std::size_t begin = full * width;
  if (n - begin > 1) {
    // The tail goes through the smallest power-of-two block that holds
    // it, padded with the order's maximum: the pads sort to the back, so
    // the first n - begin outputs are the sorted tail.
    std::size_t regs = 1;
    while (regs * lanes < n - begin) regs *= 2;
    alignas(64) Key buf[kSortRegisters * 64 / sizeof(Key)];
    std::copy(data + begin, data + n, buf);
    std::fill(buf + (n - begin), buf + regs * lanes, sort_pad_max<Key>());
    sort_blocks(buf, 1, regs);
    std::copy(buf, buf + (n - begin), data + begin);
  }
  return width;
}

template <typename Key>
using SimdSortRunsFn = std::size_t(Kernel, Key*, std::size_t);

template SimdSortRunsFn<std::int32_t> simd_sort_runs<std::int32_t>;
template SimdSortRunsFn<std::uint32_t> simd_sort_runs<std::uint32_t>;
template SimdSortRunsFn<std::int64_t> simd_sort_runs<std::int64_t>;
template SimdSortRunsFn<std::uint64_t> simd_sort_runs<std::uint64_t>;
template SimdSortRunsFn<float> simd_sort_runs<float>;
template SimdSortRunsFn<double> simd_sort_runs<double>;

}  // namespace detail
}  // namespace mp::kernels

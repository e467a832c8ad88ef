// Tests for src/kernels/ (S24): byte-exact equivalence of every
// dispatchable kernel against merge_steps() across lengths 0..257 and the
// adversarial generator distributions, cursor-resume behavior under
// partial step budgets, the dispatch/override surface (parse, env
// resolution, set_kernel clamping), the MERGEPATH_SIMD=OFF inertness
// contract, the compile-time trait that keeps payload, comparator,
// unsigned and float merges off the vector path, the chained body under
// the scalar step (those merges) and under every vector step (one merge
// and whole passes, int32 and int64), and end-to-end equivalence through
// the wired hot paths (parallel merge, SPM, merge sort and its L2-blocked
// pass order, multiway).

#include "kernels/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <list>
#include <random>
#include <span>
#include <type_traits>
#include <vector>

#include "core/mergepath.hpp"
#include "kernels/simd_entry.hpp"
#include "test_support.hpp"
#include "util/data_gen.hpp"

namespace mp::kernels {
namespace {

/// Saves the selected kernel and restores it on scope exit, so a test
/// that forces a kernel cannot leak the choice into later tests.
struct KernelGuard {
  Kernel saved = selected_kernel();
  ~KernelGuard() { set_kernel(saved); }
};

std::vector<Kernel> supported_kernels() {
  std::vector<Kernel> out;
  for (Kernel k : kAllKernels)
    if (kernel_supported(k)) out.push_back(k);
  return out;
}

// Order-preserving widenings of the int32 generator output, so one
// generator covers all four vectorized key types. The sign-bit flip makes
// the unsigned order match the signed order; the low bits keep 64-bit
// keys collision-rich but distinct enough to stress the tie handling.
std::vector<std::uint32_t> as_u32(const std::vector<std::int32_t>& v) {
  std::vector<std::uint32_t> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    out[i] = static_cast<std::uint32_t>(v[i]) ^ 0x80000000u;
  return out;
}
std::vector<std::int64_t> as_i64(const std::vector<std::int32_t>& v) {
  std::vector<std::int64_t> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    out[i] = (static_cast<std::int64_t>(v[i]) << 16) - 3;
  return out;
}
std::vector<std::uint64_t> as_u64(const std::vector<std::int32_t>& v) {
  std::vector<std::uint64_t> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    out[i] = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(v[i]) ^
                                         0x80000000u)
              << 32) |
             0xfeedu;
  return out;
}

/// Merges (a, b) twice under a `steps` budget — scalar merge_steps() as
/// the oracle, merge_steps_auto() with `kernel` forced as the candidate —
/// and requires identical output bytes AND identical final cursors (the
/// resumability contract the lane machinery depends on).
template <typename T>
void expect_equivalent(const std::vector<T>& a, const std::vector<T>& b,
                       Kernel kernel, std::size_t steps) {
  std::vector<T> want(steps), got(steps);
  std::size_t wi = 0, wj = 0;
  merge_steps(a.data(), a.size(), b.data(), b.size(), &wi, &wj, want.data(),
              steps);
  KernelGuard guard;
  ASSERT_TRUE(set_kernel(kernel));
  std::size_t gi = 0, gj = 0;
  merge_steps_auto(a.data(), a.size(), b.data(), b.size(), &gi, &gj,
                   got.data(), steps);
  ASSERT_EQ(got, want) << to_string(kernel) << " m=" << a.size()
                       << " n=" << b.size() << " steps=" << steps;
  ASSERT_EQ(gi, wi) << to_string(kernel) << " a-cursor";
  ASSERT_EQ(gj, wj) << to_string(kernel) << " b-cursor";
}

TEST(KernelEquivalence, AllLengthsZeroTo257AllKernels) {
  // Every length through 257 crosses all the interesting boundaries: the
  // vector widths (2/4/8), the guard band where the loops must hand off
  // to the scalar tail, and the 256-element prefetch distance.
  for (Kernel kernel : supported_kernels()) {
    for (std::size_t len = 0; len <= 257; ++len) {
      const auto input =
          make_merge_input(Dist::kUniform, len, len, 0x5eed + len);
      expect_equivalent(input.a, input.b, kernel, 2 * len);
    }
  }
}

TEST(KernelEquivalence, AdversarialDistributions) {
  // All-ties, duplicate-heavy and presorted-adversarial inputs: the take
  // count must reproduce the scalar kernel's A-priority co-rank exactly,
  // which ties stress hardest (a[i] <= b[j] must count as an A take).
  for (Kernel kernel : supported_kernels()) {
    for (Dist dist : {Dist::kAllEqual, Dist::kFewDuplicates,
                      Dist::kDisjointLow, Dist::kDisjointHigh,
                      Dist::kInterleaved, Dist::kClustered,
                      Dist::kOrganPipe}) {
      for (std::size_t len : {31u, 64u, 100u, 257u}) {
        const auto input = make_merge_input(dist, len, len, 0xd157 + len);
        expect_equivalent(input.a, input.b, kernel, 2 * len);
      }
    }
  }
}

TEST(KernelEquivalence, AsymmetricShapes) {
  for (Kernel kernel : supported_kernels()) {
    for (std::size_t m : {0u, 1u, 7u, 33u, 128u, 257u}) {
      const auto input = make_merge_input(Dist::kUniform, m, 64, 0xa5 + m);
      expect_equivalent(input.a, input.b, kernel, m + 64);
    }
  }
}

TEST(KernelEquivalence, AllKeyWidthsAndSignedness) {
  const auto base = make_merge_input(Dist::kFewDuplicates, 200, 173, 0x3247);
  for (Kernel kernel : supported_kernels()) {
    expect_equivalent(base.a, base.b, kernel, 373);
    expect_equivalent(as_u32(base.a), as_u32(base.b), kernel, 373);
    expect_equivalent(as_i64(base.a), as_i64(base.b), kernel, 373);
    expect_equivalent(as_u64(base.a), as_u64(base.b), kernel, 373);
  }
}

TEST(KernelEquivalence, PartialBudgetsAndResume) {
  // The lane machinery calls the kernel with a step budget and resumes
  // from saved cursors; the vector loops must advance *a_pos/*b_pos
  // exactly as the scalar kernel would at every cut point.
  const auto input = make_merge_input(Dist::kClustered, 160, 160, 0xcafe);
  for (Kernel kernel : supported_kernels()) {
    for (std::size_t steps : {0u, 1u, 7u, 31u, 32u, 33u, 95u, 319u}) {
      expect_equivalent(input.a, input.b, kernel, steps);
    }
    // Resume: split one merge across two auto calls at an arbitrary cut
    // and compare against one full scalar pass.
    std::vector<std::int32_t> want(320), got(320);
    std::size_t wi = 0, wj = 0;
    merge_steps(input.a.data(), 160, input.b.data(), 160, &wi, &wj,
                want.data(), 320);
    KernelGuard guard;
    ASSERT_TRUE(set_kernel(kernel));
    std::size_t gi = 0, gj = 0;
    merge_steps_auto(input.a.data(), 160, input.b.data(), 160, &gi, &gj,
                     got.data(), 153);
    merge_steps_auto(input.a.data(), 160, input.b.data(), 160, &gi, &gj,
                     got.data() + 153, 167);
    ASSERT_EQ(got, want) << to_string(kernel);
    ASSERT_EQ(gi, wi);
    ASSERT_EQ(gj, wj);
  }
  // Long enough for the vector merges to cut chains: one merge resumed
  // through budgets that are no multiple of any W, and the chained
  // minimum's neighbours, against one scalar pass.
  const auto big = make_merge_input(Dist::kFewDuplicates, 3001, 2890, 0xbeef);
  const std::size_t total = big.a.size() + big.b.size();
  std::vector<std::int32_t> want(total);
  std::size_t wi = 0, wj = 0;
  merge_steps(big.a.data(), big.a.size(), big.b.data(), big.b.size(), &wi,
              &wj, want.data(), total);
  for (Kernel kernel : supported_kernels()) {
    KernelGuard guard;
    ASSERT_TRUE(set_kernel(kernel));
    std::vector<std::int32_t> got(total);
    std::size_t gi = 0, gj = 0, done = 0;
    for (std::size_t budget :
         {std::size_t{1}, detail::kVectorChainedMinSteps - 1,
          detail::kVectorChainedMinSteps, detail::kVectorChainedMinSteps + 1,
          std::size_t{999}, std::size_t{17}, std::size_t{1023},
          std::size_t{3}}) {
      merge_steps_auto(big.a.data(), big.a.size(), big.b.data(), big.b.size(),
                       &gi, &gj, got.data() + done, budget);
      done += budget;
      ASSERT_EQ(gi + gj, done) << to_string(kernel);
    }
    merge_steps_auto(big.a.data(), big.a.size(), big.b.data(), big.b.size(),
                     &gi, &gj, got.data() + done, total - done);
    ASSERT_EQ(got, want) << to_string(kernel);
    ASSERT_EQ(gi, wi) << to_string(kernel);
    ASSERT_EQ(gj, wj) << to_string(kernel);
  }
}

// ---------------------------------------------------------------------------
// The chained scalar body for types the vector trait refuses.

struct KeyOnly {
  bool operator()(const KeyedRecord& x, const KeyedRecord& y) const {
    return x.key < y.key;
  }
};

/// Merges `steps` outputs of (a, b) from (i0, j0) with merge_steps() as
/// the oracle, then with merge_steps_auto() and chained_merge_steps()
/// called directly (which also takes budgets below kChainedMinSteps), and
/// requires identical bytes and both cursors.
void expect_chained_equivalent(const std::vector<KeyedRecord>& a,
                               const std::vector<KeyedRecord>& b,
                               std::size_t i0, std::size_t j0,
                               std::size_t steps) {
  const KeyedRecord poison{-1, 0xdeadbeef};
  std::vector<KeyedRecord> want(steps + 1, poison);
  std::size_t wi = i0, wj = j0;
  merge_steps(a.data(), a.size(), b.data(), b.size(), &wi, &wj, want.data(),
              steps, KeyOnly{});
  for (const bool direct : {false, true}) {
    std::vector<KeyedRecord> got(steps + 1, poison);
    std::size_t gi = i0, gj = j0;
    KeyedRecord* end =
        direct ? detail::chained_merge_steps(
                     a.data(), a.size(), b.data(), b.size(), &gi, &gj,
                     got.data(), steps, detail::ScalarStep<KeyOnly>{})
               : merge_steps_auto(a.data(), a.size(), b.data(), b.size(), &gi,
                                  &gj, got.data(), steps, KeyOnly{});
    const auto where = ::testing::Message()
                       << (direct ? "direct" : "auto") << " m=" << a.size()
                       << " n=" << b.size() << " start=(" << i0 << "," << j0
                       << ") steps=" << steps;
    ASSERT_EQ(end, got.data() + steps) << where;
    ASSERT_EQ(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(KeyedRecord)),
              0)
        << where;
    ASSERT_EQ(gi, wi) << where << " a-cursor";
    ASSERT_EQ(gj, wj) << where << " b-cursor";
  }
}

/// Sorted records keyed key_of(t) for t in [0, n); payloads tag the side.
template <typename KeyOf>
std::vector<KeyedRecord> records(std::size_t n, std::uint32_t side,
                                 KeyOf key_of) {
  std::vector<KeyedRecord> out(n);
  for (std::size_t t = 0; t < n; ++t)
    out[t] = KeyedRecord{key_of(t), side << 24 | static_cast<std::uint32_t>(t)};
  return out;
}

TEST(Kernels, ChainedMergeMatchesMergeSteps) {
  // 8-byte {key, index} records under a key-only comparator: the vector
  // trait refuses them, so merge_steps_auto runs the chained body from
  // kChainedMinSteps up. Ties carry distinct payloads, so a chain that
  // started a tie class on the wrong side would change the bytes.
  static_assert(!use_vector_merge_v<const KeyedRecord*, const KeyedRecord*,
                                    KeyedRecord*, KeyOnly>);
  static_assert(detail::use_chained_merge_v<const KeyedRecord*,
                                            const KeyedRecord*, KeyedRecord*>);
  const auto mixed = make_keyed_input(500, 420, 9, 0xc4a1);
  const auto sparse = make_keyed_input(300, 333, 100000, 0xc4a2);
  const auto low = records(200, 1, [](std::size_t t) {
    return static_cast<std::int32_t>(t);
  });
  const auto high = records(180, 2, [](std::size_t t) {
    return static_cast<std::int32_t>(1000 + t);
  });
  const auto equal_a = records(150, 1, [](std::size_t) { return 7; });
  const auto equal_b = records(170, 2, [](std::size_t) { return 7; });
  const std::vector<KeyedRecord> empty;
  struct Shape {
    const std::vector<KeyedRecord>& a;
    const std::vector<KeyedRecord>& b;
  };
  const Shape shapes[] = {
      {mixed.a, mixed.b},
      {sparse.a, sparse.b},
      {low, high},          // all of A before B
      {high, low},          // all of B before A
      {equal_a, equal_b},   // all-equal keys
      {empty, mixed.b},     // one side empty
      {mixed.a, empty},
  };
  constexpr std::size_t kMin = detail::kChainedMinSteps;
  for (const Shape& shape : shapes) {
    const std::size_t m = shape.a.size();
    const std::size_t n = shape.b.size();
    // Start cursors: the origin, a path point (a lane slice's start) and
    // an arbitrary pair (the merge of the two suffixes).
    const PathPoint on_path = path_point_on_diagonal(
        shape.a.data(), m, shape.b.data(), n, (m + n) / 3, KeyOnly{});
    const PathPoint starts[] = {{0, 0}, on_path, {m / 2, n / 5}};
    for (const PathPoint start : starts) {
      const std::size_t left = (m - start.i) + (n - start.j);
      for (std::size_t steps :
           {std::size_t{0}, std::size_t{1}, std::size_t{3}, kMin - 1, kMin,
            kMin + 1, left / 2, left - 1, left}) {
        if (steps > left) continue;
        expect_chained_equivalent(shape.a, shape.b, start.i, start.j, steps);
      }
    }
  }
}

/// One bottom-up pass input: n records keyed key_of(t), every aligned
/// width-wide run stably sorted by key; payloads are the input index.
template <typename KeyOf>
std::vector<KeyedRecord> pass_input(std::size_t n, std::size_t width,
                                    KeyOf key_of) {
  std::vector<KeyedRecord> v(n);
  for (std::size_t t = 0; t < n; ++t)
    v[t] = KeyedRecord{key_of(t), static_cast<std::uint32_t>(t)};
  for (std::size_t begin = 0; begin < n; begin += width)
    std::stable_sort(v.begin() + static_cast<std::ptrdiff_t>(begin),
                     v.begin() + static_cast<std::ptrdiff_t>(
                                     std::min(begin + width, n)),
                     KeyOnly{});
  return v;
}

/// The five pass inputs both pass tests run: many ties, few ties, all
/// equal, all of A before B and all of B before A in every pair.
std::vector<std::vector<KeyedRecord>> pass_shapes(std::size_t n,
                                                  std::size_t width,
                                                  std::mt19937& rng) {
  std::vector<std::vector<KeyedRecord>> inputs;
  inputs.push_back(pass_input(n, width, [&](std::size_t) {
    return static_cast<std::int32_t>(rng() % 9);
  }));
  inputs.push_back(pass_input(n, width, [&](std::size_t) {
    return static_cast<std::int32_t>(rng() % 100000);
  }));
  inputs.push_back(pass_input(n, width, [](std::size_t) { return 7; }));
  inputs.push_back(pass_input(n, width, [](std::size_t t) {
    return static_cast<std::int32_t>(t);
  }));
  inputs.push_back(pass_input(n, width, [&](std::size_t t) {
    const bool in_a = t % (2 * width) < width;
    return static_cast<std::int32_t>(t % width + (in_a ? width : 0));
  }));
  return inputs;
}

/// Fills the slot past a pass's n outputs, which no pass may write.
constexpr KeyedRecord kPassPoison{-1, 0xdeadbeef};

/// The pass over src as one merge_steps() call per pair, plus the poison
/// slot past its end.
std::vector<KeyedRecord> reference_pass(const std::vector<KeyedRecord>& src,
                                        std::size_t width) {
  const std::size_t n = src.size();
  std::vector<KeyedRecord> want(n + 1, kPassPoison);
  for (std::size_t begin = 0; begin < n; begin += 2 * width) {
    const std::size_t mid = std::min(begin + width, n);
    const std::size_t end = std::min(begin + 2 * width, n);
    std::size_t i = 0, j = 0;
    merge_steps(src.data() + begin, mid - begin, src.data() + mid, end - mid,
                &i, &j, want.data() + begin, end - begin, KeyOnly{});
  }
  return want;
}

TEST(Kernels, ChainedPassMatchesMergeSteps) {
  // A whole pass as one chained loop (merge_pass_auto on records, and
  // detail::chained_merge_pass called directly) against the pass as one
  // merge_steps() call per pair. Chains cross pair boundaries, so every
  // width from the rank runs' 8 up, passes whose length is not a multiple
  // of 2·width (a trailing unpaired run or short B), passes shorter than
  // kMergeChains·width and a width at or past n (a pure copy) are covered.
  constexpr std::size_t K = detail::kMergeChains;
  std::mt19937 rng(0x9a55);
  for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{47},
                        std::size_t{48}, std::size_t{100}, std::size_t{1000},
                        std::size_t{4099}, std::size_t{8192}}) {
    for (std::size_t width :
         {std::size_t{8}, std::size_t{16}, std::size_t{24}, std::size_t{64},
          std::size_t{256}, std::size_t{1024}, n, 2 * n}) {
      const auto inputs = pass_shapes(n, width, rng);
      for (std::size_t shape = 0; shape < inputs.size(); ++shape) {
        const auto& src = inputs[shape];
        const auto want = reference_pass(src, width);
        for (const bool direct : {false, true}) {
          std::vector<KeyedRecord> got(n + 1, kPassPoison);
          if (direct)
            detail::chained_merge_pass(src.data(), got.data(), n, width,
                                       detail::ScalarStep<KeyOnly>{});
          else
            merge_pass_auto(src.data(), got.data(), n, width, KeyOnly{});
          ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                got.size() * sizeof(KeyedRecord)),
                    0)
              << (direct ? "direct" : "auto") << " n=" << n
              << " width=" << width << " shape=" << shape
              << (n < K * width ? " (n < K*width)" : "");
        }
      }
    }
  }
}

TEST(Kernels, ParityPassMatchesMergeSteps) {
  // Passes at widths up to kParityMaxWidth merge every whole group of
  // kParityPairs pairs as forward and backward walks, and the rest with the
  // chained loop. Against one merge_steps() per pair, byte for byte with a
  // poison slot past n, for n = 2·K·W·g + r: no group (g = 0), exact
  // groups (r = 0), a partial group (r >= 2W), a short B (r = 2W - 1) and
  // an unpaired run (r <= W, r = 2W + 3), at the parity widths and the
  // first width above the cap.
  constexpr std::size_t K = detail::kParityPairs;
  constexpr std::size_t cap = detail::kParityMaxWidth;
  std::mt19937 rng(0x9a7e);
  for (const std::size_t width : {std::size_t{8}, std::size_t{16},
                                  std::size_t{32}, std::size_t{64}, 2 * cap}) {
    for (const std::size_t groups :
         {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
      for (const std::size_t rest :
           {std::size_t{0}, std::size_t{1}, width - 1, width, 2 * width - 1,
            2 * width + 3}) {
        const std::size_t n = 2 * K * width * groups + rest;
        const auto inputs = pass_shapes(n, width, rng);
        for (std::size_t shape = 0; shape < inputs.size(); ++shape) {
          const auto& src = inputs[shape];
          const auto want = reference_pass(src, width);
          std::vector<KeyedRecord> got(n + 1, kPassPoison);
          merge_pass_auto(src.data(), got.data(), n, width, KeyOnly{});
          ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                got.size() * sizeof(KeyedRecord)),
                    0)
              << "width=" << width << " groups=" << groups
              << " rest=" << rest << " shape=" << shape;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The chained body under the vector steps: every vector kernel, every
// admitted key type.

std::vector<Kernel> vector_kernels() {
  std::vector<Kernel> out;
  for (Kernel k : supported_kernels())
    if (is_vector_kernel(k)) out.push_back(k);
  return out;
}

/// An order-preserving map of int32 keys onto each admitted key type.
template <typename T>
T key_as(std::int32_t k) {
  if constexpr (std::is_same_v<T, std::int32_t>) {
    return k;
  } else {
    return static_cast<std::int64_t>(k) * 65536 - 3;
  }
}

template <typename T>
std::vector<T> keys_as(const std::vector<std::int32_t>& keys) {
  std::vector<T> out(keys.size());
  std::transform(keys.begin(), keys.end(), out.begin(), key_as<T>);
  return out;
}

/// Width of one vector step for T under `kernel`.
template <typename T>
std::size_t step_width(Kernel kernel) {
  const std::size_t bytes = kernel == Kernel::kAvx512 ? 64
                            : kernel == Kernel::kAvx2 ? 32
                                                      : 16;
  return bytes / sizeof(T);
}

/// One pass over `src` (width-wide sorted runs) per vector kernel, as
/// detail::vector_merge_pass and as merge_pass_auto under the forced
/// kernel, against one merge_steps() call per pair: identical bytes, and
/// nothing written past n.
template <typename T>
void expect_vector_pass_equivalent(const std::vector<T>& src,
                                   std::size_t width, const char* shape) {
  using Key = detail::simd_key_t<T>;
  const std::size_t n = src.size();
  const T poison = key_as<T>(-12345);
  std::vector<T> want(n + 1, poison);
  for (std::size_t begin = 0; begin < n; begin += 2 * width) {
    const std::size_t mid = std::min(begin + width, n);
    const std::size_t end = std::min(begin + 2 * width, n);
    std::size_t i = 0, j = 0;
    merge_steps(src.data() + begin, mid - begin, src.data() + mid, end - mid,
                &i, &j, want.data() + begin, end - begin, std::less<>{});
  }
  for (Kernel kernel : vector_kernels()) {
    for (const bool direct : {false, true}) {
      std::vector<T> got(n + 1, poison);
      if (direct) {
        ASSERT_TRUE(detail::vector_merge_pass<Key>(
            kernel, reinterpret_cast<const Key*>(src.data()),
            reinterpret_cast<Key*>(got.data()), n, width));
      } else {
        KernelGuard guard;
        ASSERT_TRUE(set_kernel(kernel));
        merge_pass_auto(src.data(), got.data(), n, width, std::less<>{});
      }
      ASSERT_EQ(std::memcmp(got.data(), want.data(), (n + 1) * sizeof(T)), 0)
          << to_string(kernel) << (direct ? " direct" : " auto")
          << " sizeof=" << sizeof(T) << " n=" << n << " width=" << width
          << " shape=" << shape;
    }
  }
}

template <typename T>
void vector_pass_cases() {
  std::mt19937 rng(0x7ec + sizeof(T));
  // W is 2..16 and the chain count 4: n below K·W, at W multiples ± 1,
  // past kVectorChainedMinSteps (several chains) and with a trailing
  // unpaired or short run; widths below, at and above W, and at or past n
  // (a pure copy).
  for (std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                        std::size_t{15}, std::size_t{16}, std::size_t{17},
                        std::size_t{31}, std::size_t{33}, std::size_t{63},
                        std::size_t{64}, std::size_t{65}, std::size_t{257},
                        std::size_t{1000}, std::size_t{4099},
                        std::size_t{8197}}) {
    for (std::size_t width :
         {std::size_t{1}, std::size_t{3}, std::size_t{8}, std::size_t{17},
          std::size_t{64}, std::size_t{256}, n, 2 * n}) {
      const std::size_t pair_len = 2 * width;
      struct Shape {
        const char* name;
        std::vector<std::int32_t> keys;
      };
      Shape shapes[] = {{"many-ties", {}}, {"few-ties", {}},
                        {"all-equal", {}}, {"all-A-first", {}},
                        {"all-B-first", {}}};
      for (std::size_t t = 0; t < n; ++t) {
        const bool in_a = t % pair_len < width;
        shapes[0].keys.push_back(static_cast<std::int32_t>(rng() % 9) - 4);
        shapes[1].keys.push_back(static_cast<std::int32_t>(rng()));
        shapes[2].keys.push_back(7);
        shapes[3].keys.push_back(static_cast<std::int32_t>(t));
        shapes[4].keys.push_back(
            static_cast<std::int32_t>(t % width + (in_a ? width : 0)));
      }
      for (Shape& shape : shapes) {
        for (std::size_t begin = 0; begin < n; begin += width)
          std::sort(shape.keys.begin() + static_cast<std::ptrdiff_t>(begin),
                    shape.keys.begin() + static_cast<std::ptrdiff_t>(
                                             std::min(begin + width, n)));
        expect_vector_pass_equivalent(keys_as<T>(shape.keys), width,
                                      shape.name);
      }
    }
  }
}

TEST(Kernels, VectorChainedPassMatchesMergeSteps) {
  // A whole pass as one chained vector merge: chains cross pair
  // boundaries, stop on windows shorter than W and finish those with
  // merge_steps(); the bytes must not show any of it.
  if (vector_kernels().empty()) GTEST_SKIP() << "no vector kernel here";
  vector_pass_cases<std::int32_t>();
  vector_pass_cases<std::int64_t>();
}

/// Merges `steps` outputs of (a, b) from (i0, j0) with merge_steps() as
/// the oracle, then per vector kernel with detail::vector_merge_steps and
/// with merge_steps_auto under the forced kernel: identical bytes (nothing
/// written past `steps`) and identical cursors.
template <typename T>
void expect_vector_merge_equivalent(const std::vector<T>& a,
                                    const std::vector<T>& b, std::size_t i0,
                                    std::size_t j0, std::size_t steps) {
  using Key = detail::simd_key_t<T>;
  const T poison = key_as<T>(-12345);
  std::vector<T> want(steps + 1, poison);
  std::size_t wi = i0, wj = j0;
  merge_steps(a.data(), a.size(), b.data(), b.size(), &wi, &wj, want.data(),
              steps, std::less<>{});
  for (Kernel kernel : vector_kernels()) {
    for (const bool direct : {false, true}) {
      std::vector<T> got(steps + 1, poison);
      std::size_t gi = i0, gj = j0;
      if (direct) {
        ASSERT_TRUE(detail::vector_merge_steps<Key>(
            kernel, reinterpret_cast<const Key*>(a.data()), a.size(),
            reinterpret_cast<const Key*>(b.data()), b.size(), &gi, &gj,
            reinterpret_cast<Key*>(got.data()), steps));
      } else {
        KernelGuard guard;
        ASSERT_TRUE(set_kernel(kernel));
        ASSERT_EQ(merge_steps_auto(a.data(), a.size(), b.data(), b.size(),
                                   &gi, &gj, got.data(), steps,
                                   std::less<>{}),
                  got.data() + steps);
      }
      const auto where = ::testing::Message()
                         << to_string(kernel)
                         << (direct ? " direct" : " auto")
                         << " sizeof=" << sizeof(T) << " m=" << a.size()
                         << " n=" << b.size() << " start=(" << i0 << ","
                         << j0 << ") steps=" << steps;
      ASSERT_EQ(
          std::memcmp(got.data(), want.data(), (steps + 1) * sizeof(T)), 0)
          << where;
      ASSERT_EQ(gi, wi) << where << " a-cursor";
      ASSERT_EQ(gj, wj) << where << " b-cursor";
    }
  }
}

template <typename T>
void vector_merge_cases() {
  std::mt19937 rng(0x3e7 + sizeof(T));
  const auto sorted = [&](std::size_t len, auto key_of) {
    std::vector<std::int32_t> keys(len);
    for (std::size_t t = 0; t < len; ++t) keys[t] = key_of(t);
    std::sort(keys.begin(), keys.end());
    return keys_as<T>(keys);
  };
  const auto ties = [&](std::size_t) {
    return static_cast<std::int32_t>(rng() % 9) - 4;
  };
  const auto spread = [&](std::size_t) {
    return static_cast<std::int32_t>(rng());
  };
  const auto low = [](std::size_t t) { return static_cast<std::int32_t>(t); };
  const auto high = [](std::size_t t) {
    return static_cast<std::int32_t>(5000 + t);
  };
  const auto equal = [](std::size_t) { return 7; };
  struct Shape {
    std::vector<T> a, b;
  };
  const Shape shapes[] = {
      {sorted(700, ties), sorted(650, ties)},      // many ties
      {sorted(600, spread), sorted(713, spread)},  // few ties
      {sorted(500, low), sorted(420, high)},       // all of A before B
      {sorted(420, high), sorted(500, low)},       // all of B before A
      {sorted(333, equal), sorted(301, equal)},    // all equal
      {sorted(3, spread), sorted(900, spread)},    // A shorter than W
      {sorted(900, ties), sorted(5, ties)},        // B shorter than W
      {{}, sorted(300, spread)},                   // one side empty
      {sorted(300, spread), {}},
  };
  constexpr std::size_t K = detail::kVectorChains;
  const std::size_t kMin = detail::kVectorChainedMinSteps;
  for (const Shape& shape : shapes) {
    const std::size_t m = shape.a.size();
    const std::size_t n = shape.b.size();
    const PathPoint on_path =
        path_point_on_diagonal(shape.a.data(), m, shape.b.data(), n,
                               (m + n) / 3, std::less<>{});
    const PathPoint starts[] = {{0, 0}, on_path, {m / 2, n / 5}};
    for (const PathPoint start : starts) {
      const std::size_t left = (m - start.i) + (n - start.j);
      for (Kernel kernel : vector_kernels()) {
        const std::size_t W = step_width<T>(kernel);
        for (std::size_t steps :
             {std::size_t{0}, std::size_t{1}, W - 1, W, W + 1, K * W - 1,
              K * W + 1, kMin - 1, kMin, kMin + 1, left / 2 + 1, left - 1,
              left}) {
          if (steps > left) continue;
          expect_vector_merge_equivalent(shape.a, shape.b, start.i, start.j,
                                         steps);
        }
      }
    }
  }
}

TEST(Kernels, VectorChainedMergeMatchesMergeSteps) {
  // One merge as chained vector merges: the K - 1 cuts are A-priority
  // co-ranks, so bytes and both cursors equal merge_steps() for every
  // budget, W multiple or not, above and below the chained minimum.
  if (vector_kernels().empty()) GTEST_SKIP() << "no vector kernel here";
  vector_merge_cases<std::int32_t>();
  vector_merge_cases<std::int64_t>();
}

// ---------------------------------------------------------------------------
// Dispatch surface.

TEST(KernelDispatch, ParseRoundTripsAndRejectsUnknown) {
  for (Kernel k : kAllKernels) {
    const auto parsed = parse_kernel(to_string(k));
    ASSERT_TRUE(parsed.has_value()) << to_string(k);
    EXPECT_EQ(*parsed, k);
  }
  EXPECT_FALSE(parse_kernel("").has_value());
  EXPECT_FALSE(parse_kernel("auto").has_value());  // env-only spelling
  EXPECT_FALSE(parse_kernel("AVX2").has_value());
  EXPECT_FALSE(parse_kernel("banana").has_value());
  EXPECT_EQ(kernel_names(), "scalar|sse4|avx2|avx512");
}

TEST(KernelDispatch, ScalarAlwaysSupported) {
  EXPECT_TRUE(kernel_supported(Kernel::kScalar));
}

TEST(KernelDispatch, SimdSupportRequiresCompiledInTUs) {
  if (kSimdCompiledIn) GTEST_SKIP() << "SIMD TUs compiled in";
  EXPECT_FALSE(kernel_supported(Kernel::kSse4));
  EXPECT_FALSE(kernel_supported(Kernel::kAvx2));
  EXPECT_FALSE(kernel_supported(Kernel::kAvx512));
  EXPECT_EQ(widest_supported(), Kernel::kScalar);
}

TEST(KernelDispatch, WidestIsOrderedAndSupported) {
  const Kernel widest = widest_supported();
  EXPECT_TRUE(kernel_supported(widest));
  if (kernel_supported(Kernel::kAvx512)) {
    EXPECT_EQ(widest, Kernel::kAvx512);
  } else if (kernel_supported(Kernel::kAvx2)) {
    EXPECT_EQ(widest, Kernel::kAvx2);
  } else if (kernel_supported(Kernel::kSse4)) {
    EXPECT_EQ(widest, Kernel::kSse4);
  } else {
    EXPECT_EQ(widest, Kernel::kScalar);
  }
}

TEST(KernelDispatch, BranchlessIsNeverAutoSelected) {
  // "branchless" names no kernel, so --kernel branchless is a usage error
  // and set_kernel() cannot be handed it.
  EXPECT_FALSE(parse_kernel("branchless").has_value());
  EXPECT_EQ(kernel_names().find("branchless"), std::string::npos);
}

TEST(KernelDispatch, SetKernelRejectsUnsupportedAndKeepsSelection) {
  KernelGuard guard;
  ASSERT_TRUE(set_kernel(Kernel::kScalar));
  for (Kernel k : {Kernel::kSse4, Kernel::kAvx2, Kernel::kAvx512}) {
    if (kernel_supported(k)) {
      EXPECT_TRUE(set_kernel(k));
      EXPECT_EQ(selected_kernel(), k);
      ASSERT_TRUE(set_kernel(Kernel::kScalar));
    } else {
      EXPECT_FALSE(set_kernel(k));
      EXPECT_EQ(selected_kernel(), Kernel::kScalar) << "selection leaked";
    }
  }
}

TEST(KernelDispatch, BannerNamesSelectionAndIsa) {
  KernelGuard guard;
  ASSERT_TRUE(set_kernel(Kernel::kScalar));
  const std::string banner = kernel_banner();
  EXPECT_NE(banner.find("kernel scalar"), std::string::npos) << banner;
  EXPECT_NE(banner.find("isa "), std::string::npos) << banner;
}

TEST(KernelDispatch, CompiledOutSimdLoopsAreInert) {
  if (kSimdCompiledIn) GTEST_SKIP() << "SIMD TUs compiled in";
  // With MERGEPATH_SIMD=OFF the vector merge entry points must decline
  // every kernel: false, no cursor movement, no output written.
  const std::vector<std::int32_t> a(64, 1), b(64, 2);
  std::vector<std::int32_t> out(128, -1);
  std::vector<std::int64_t> wide(128, -1);
  const std::vector<std::int64_t> wa(64, 1), wb(64, 2);
  for (Kernel k : {Kernel::kSse4, Kernel::kAvx2, Kernel::kAvx512}) {
    std::size_t i = 0, j = 0;
    EXPECT_FALSE(detail::vector_merge_steps<std::int32_t>(
        k, a.data(), 64, b.data(), 64, &i, &j, out.data(), 128));
    EXPECT_EQ(i, 0u);
    EXPECT_EQ(j, 0u);
    EXPECT_EQ(out[0], -1);
    EXPECT_FALSE(detail::vector_merge_pass<std::int32_t>(k, a.data(),
                                                         out.data(), 64, 32));
    EXPECT_EQ(out[0], -1);
    std::size_t wi = 0, wj = 0;
    EXPECT_FALSE(detail::vector_merge_steps<std::int64_t>(
        k, wa.data(), 64, wb.data(), 64, &wi, &wj, wide.data(), 128));
    EXPECT_EQ(wi, 0u);
    EXPECT_EQ(wj, 0u);
    EXPECT_EQ(wide[0], -1);
  }
}

// ---------------------------------------------------------------------------
// The compile-time trait: exactly the byte-exactness-provable cases.

using I32Iter = const std::int32_t*;
using I32Out = std::int32_t*;
struct ByHalf {
  bool operator()(int x, int y) const { return x / 2 < y / 2; }
};

/// The trait over T* on all three sides.
template <typename T, typename Comp>
constexpr bool admits_v = use_vector_merge_v<const T*, const T*, T*, Comp>;

/// Admitted under both spellings of std::less.
template <typename T>
constexpr bool admitted_under_less_v =
    admits_v<T, std::less<>> && admits_v<T, std::less<T>>;

/// Refused under both spellings of std::less and under a custom comparator.
template <typename T>
constexpr bool refused_v = !admits_v<T, std::less<>> &&
                           !admits_v<T, std::less<T>> &&
                           !admits_v<T, std::greater<>>;

// Signed 32- and 64-bit integers under std::less are the vector path: the
// keys the programs sort (int32 everywhere, int64 in serve).
static_assert(admitted_under_less_v<int>);
static_assert(admitted_under_less_v<long>);
static_assert(admitted_under_less_v<long long>);
static_assert(admitted_under_less_v<std::int32_t>);
static_assert(admitted_under_less_v<std::int64_t>);
static_assert(use_vector_merge_v<std::vector<std::int64_t>::const_iterator,
                                 std::vector<std::int64_t>::const_iterator,
                                 std::vector<std::int64_t>::iterator,
                                 std::less<>>);
// Unsigned keys and floats take the scalar path under every comparator
// (floats under std::less could not ride it anyway: -0.0/+0.0 are equal
// but not bitwise identical, and NaN breaks the strict weak order).
static_assert(refused_v<std::uint32_t>);
static_assert(refused_v<std::uint64_t>);
static_assert(refused_v<float>);
static_assert(refused_v<double>);
// Payload records: reordering equal keys would break A-priority stability.
static_assert(!use_vector_merge_v<const KeyedRecord*, const KeyedRecord*,
                                  KeyedRecord*, std::less<>>);
// Custom comparators define their own tie classes; only std::less is
// provably equivalent to the integer min/max network.
static_assert(!use_vector_merge_v<I32Iter, I32Iter, I32Out, std::greater<>>);
static_assert(!use_vector_merge_v<I32Iter, I32Iter, I32Out, ByHalf>);
// Non-contiguous iterators (SPM's ring views, lists) cannot feed vector
// loads.
static_assert(!use_vector_merge_v<std::list<std::int32_t>::const_iterator,
                                  std::list<std::int32_t>::const_iterator,
                                  I32Out, std::less<>>);
static_assert(!use_vector_merge_v<
              std::vector<std::int32_t>::const_reverse_iterator,
              std::vector<std::int32_t>::const_reverse_iterator, I32Out,
              std::less<>>);
// Mixed key types on the two inputs stay scalar.
static_assert(!use_vector_merge_v<const std::int32_t*, const std::int64_t*,
                                  std::int64_t*, std::less<>>);
static_assert(!use_vector_merge_v<const bool*, const bool*, bool*,
                                  std::less<>>);

TEST(KernelTrait, PayloadAndComparatorMergesStayStable) {
  // Property sweep: merges the vector path must refuse — payload records
  // and tie-heavy custom comparators — produce the exact stable result
  // whichever kernel is forced, because they never reach the SIMD loops.
  for (Kernel kernel : supported_kernels()) {
    KernelGuard guard;
    ASSERT_TRUE(set_kernel(kernel));

    const auto keyed = make_keyed_input(700, 600, 5, 0x57ab);
    std::vector<KeyedRecord> out(1300), want(1300);
    parallel_merge(keyed.a.data(), keyed.a.size(), keyed.b.data(),
                   keyed.b.size(), out.data(), Executor{nullptr, 4});
    std::merge(keyed.a.begin(), keyed.a.end(), keyed.b.begin(),
               keyed.b.end(), want.begin());
    ASSERT_EQ(out, want) << to_string(kernel);

    // Tie classes of width 2: ByHalf considers 2k and 2k+1 equal, so a
    // kernel that compared raw integers would order them differently.
    auto input = make_merge_input(Dist::kFewDuplicates, 800, 800, 0x71e5);
    std::sort(input.a.begin(), input.a.end(), ByHalf{});
    std::sort(input.b.begin(), input.b.end(), ByHalf{});
    std::vector<std::int32_t> got2(1600), want2(1600);
    parallel_merge(input.a.data(), 800, input.b.data(), 800, got2.data(),
                   Executor{nullptr, 4}, ByHalf{});
    std::merge(input.a.begin(), input.a.end(), input.b.begin(),
               input.b.end(), want2.begin(), ByHalf{});
    ASSERT_EQ(got2, want2) << to_string(kernel);
  }
}

// ---------------------------------------------------------------------------
// Hot-path equivalence: the wired call sites produce identical results
// whichever kernel dispatch selects.

TEST(KernelHotPaths, ParallelMergeMatchesReference) {
  const auto input = make_merge_input(Dist::kUniform, 100000, 90001, 0x9a7);
  const auto want = test::reference_merge(input.a, input.b);
  for (Kernel kernel : supported_kernels()) {
    KernelGuard guard;
    ASSERT_TRUE(set_kernel(kernel));
    std::vector<std::int32_t> out(want.size());
    parallel_merge(input.a.data(), input.a.size(), input.b.data(),
                   input.b.size(), out.data(), Executor{nullptr, 4});
    ASSERT_EQ(out, want) << to_string(kernel);
  }
}

TEST(KernelHotPaths, SegmentedMergeMatchesReferenceAcrossRingWraps) {
  // A tiny, non-power-of-two segment length forces many ring refills and
  // wrapped windows — the flat-window fast path must hand wrapped windows
  // back to the CyclicView scalar path without missing elements.
  const auto input = make_merge_input(Dist::kClustered, 7001, 6400, 0x5e6);
  const auto want = test::reference_merge(input.a, input.b);
  SegmentedConfig config;
  config.segment_length = 192;
  for (Kernel kernel : supported_kernels()) {
    KernelGuard guard;
    ASSERT_TRUE(set_kernel(kernel));
    std::vector<std::int32_t> out(want.size());
    segmented_parallel_merge(input.a.data(), input.a.size(), input.b.data(),
                             input.b.size(), out.data(), config,
                             Executor{nullptr, 3});
    ASSERT_EQ(out, want) << to_string(kernel);
  }
}

TEST(KernelHotPaths, MergeSortMatchesStdSort) {
  std::vector<std::int32_t> data = make_merge_input(
      Dist::kUniform, 50000, 0, 0xf00d).a;
  std::mt19937 rng(7);
  std::shuffle(data.begin(), data.end(), rng);
  auto want = data;
  std::sort(want.begin(), want.end());
  for (Kernel kernel : supported_kernels()) {
    KernelGuard guard;
    ASSERT_TRUE(set_kernel(kernel));
    auto got = data;
    parallel_merge_sort(got.data(), got.size(), Executor{nullptr, 4});
    ASSERT_EQ(got, want) << to_string(kernel);
  }
  // sequential_merge_sort's L2-blocked pass order: a length that is no
  // multiple of the chunk (a short last chunk, then the wide passes), and
  // one the chunk covers whole.
  const std::size_t chunk = sort_chunk_elems(sizeof(std::int32_t));
  for (const std::size_t n : {2 * chunk + chunk / 3 + 5, chunk / 2 + 3}) {
    std::vector<std::int32_t> keys(n);
    for (auto& key : keys) key = static_cast<std::int32_t>(rng());
    auto sorted = keys;
    std::sort(sorted.begin(), sorted.end());
    for (Kernel kernel : supported_kernels()) {
      KernelGuard guard;
      ASSERT_TRUE(set_kernel(kernel));
      auto got = keys;
      std::vector<std::int32_t> scratch(n);
      sequential_merge_sort(got.data(), scratch.data(), n);
      ASSERT_EQ(got, sorted) << to_string(kernel) << " n=" << n;
    }
  }
}

TEST(KernelHotPaths, MultiwayPairwiseFallbackAndLoserTreeMatch) {
  const auto input = make_merge_input(Dist::kInterleaved, 40000, 35000, 0x2a);
  const auto want2 = test::reference_merge(input.a, input.b);
  const auto extra = make_merge_input(Dist::kUniform, 20000, 0, 0x2b).a;
  std::vector<std::int32_t> want3(want2.size() + extra.size());
  std::merge(want2.begin(), want2.end(), extra.begin(), extra.end(),
             want3.begin());
  for (Kernel kernel : supported_kernels()) {
    KernelGuard guard;
    ASSERT_TRUE(set_kernel(kernel));
    // k=2 takes the pairwise parallel_merge fallback (vector path).
    const std::vector<std::vector<std::int32_t>> two{input.a, input.b};
    ASSERT_EQ(parallel_multiway_merge(two, Executor{nullptr, 4}), want2)
        << to_string(kernel);
    // k=3 runs the pairwise-tree engine per lane; same bytes either way.
    const std::vector<std::vector<std::int32_t>> three{input.a, input.b,
                                                       extra};
    ASSERT_EQ(parallel_multiway_merge(three, Executor{nullptr, 4}), want3)
        << to_string(kernel);
  }
}

}  // namespace
}  // namespace mp::kernels

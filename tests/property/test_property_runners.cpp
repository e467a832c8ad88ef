// One differential table across both lane runners.
//
// Every fork-join entry point has one body; whether its lanes run plainly
// or under lane recovery is the executor's choice (util/recovery.hpp).
// This table pins the consequence: for each entry point, the output bytes
// are the std::merge / std::stable_sort reference whichever runner,
// thread count, kernel and key type runs it — including when a seeded
// 10% lane-fault schedule with straggler hedging is attacking the
// recovering runner.
//
// Axes:
//   runner {plain, recovering} x p {1, 2, 4, 17} x kernel {scalar, widest};
//   merge entries {parallel_merge, segmented_parallel_merge with L = 37
//     (the ring windows wrap), parallel_multiway_merge k = 2 and k = 5,
//     parallel_set_intersection, parallel_set_difference,
//     StreamMerger::pull over chunked pushes, small pulls and one pull
//     large enough for its parallel merge} x key {int32 under std::less,
//     KeyedRecord under a key-only comparator};
//   sort entries {parallel_merge_sort, sequential_merge_sort,
//     merge_round_balanced over five uneven runs} x key {int32, uint32,
//     int64, uint64 under std::less; float, double under a test-local
//     IEEE totalOrder comparator; KeyedRecord under the key-only
//     comparator} (only int32 and int64 reach the vector kernels: under
//     the widest kernel the other rows check the scalar path);
//   keys drawn from a 97-key generator (many ties, random order) and, for
//     the int32 and KeyedRecord rows, from every Dist shape of
//     util/data_gen.hpp (a merge's A and B are one make_merge_input pair;
//     a sort's input is such a pair concatenated);
//   plus a parallel_merge_sort of 20000 Zipf-keyed records (long tie runs
//   across lanes);
//   and the related-work baselines (src/baselines/) on int32 keys from the
//     97-key generator and every Dist shape, under both runners and every
//     p: shiloach_vishkin_merge, akl_santoro_merge, deo_sarkar_merge,
//     bitonic_merge, bitonic_sort and parallel_radix_sort. The incorrect
//     naive_split_merge is held to the plain runner's output instead.
// The references are std::merge, std::set_intersection,
// std::set_difference and std::stable_sort under the same comparator.
// Arithmetic outputs are compared byte for byte (-0.0 == +0.0 and NaN !=
// NaN would fool operator==); the unsigned keys include values above the
// signed range, and the floating-point keys include signed zeros and NaNs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "baselines/baselines.hpp"
#include "core/mergepath.hpp"
#include "fault/fault.hpp"
#include "kernels/kernels.hpp"
#include "util/data_gen.hpp"
#include "util/rng.hpp"
#include "../test_support.hpp"

namespace mp {
namespace {

constexpr std::uint64_t kSeed = 0x5eed;
constexpr double kLaneFaultRate = 0.10;

struct KeyOnly {
  bool operator()(const KeyedRecord& x, const KeyedRecord& y) const {
    return x.key < y.key;
  }
};

/// `n` values over a small key universe (many ties crossing lane
/// boundaries); records carry their origin index as payload so a tie
/// reordered anywhere changes the bytes. Negative keys wrap to the top of
/// the unsigned types' range. Floating-point keys add signed zeros and
/// NaNs, whose order only a totalOrder comparator defines.
template <typename T>
std::vector<T> make_values(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<T> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto key = static_cast<std::int32_t>(rng.bounded(97)) - 48;
    if constexpr (std::is_same_v<T, KeyedRecord>) {
      out[i] = KeyedRecord{key, static_cast<std::uint32_t>(seed << 20 | i)};
    } else if constexpr (std::is_floating_point_v<T>) {
      constexpr T kSpecials[] = {T{0}, -T{0},
                                 std::numeric_limits<T>::quiet_NaN(),
                                 -std::numeric_limits<T>::quiet_NaN()};
      out[i] = key % 8 == 0 ? kSpecials[rng.bounded(4)]
                            : static_cast<T>(key * 0.75);
    } else if constexpr (sizeof(T) == 8) {
      out[i] = static_cast<T>(static_cast<std::int64_t>(key) << 40 | (key & 7));
    } else {
      out[i] = static_cast<T>(key);
    }
  }
  return out;
}

/// `n` records with Zipf(s = 1) keys over 1024 ranks, shuffled: the top
/// key holds ~13% of them, so long tie runs cross every lane boundary and
/// every merge chain's cut. Payloads are input positions.
std::vector<KeyedRecord> make_zipf_records(std::size_t n, std::uint64_t seed) {
  const auto keys = make_zipf_values(n, 1024, 1.0, seed);
  std::vector<KeyedRecord> out(n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = KeyedRecord{keys[i], static_cast<std::uint32_t>(i)};
  Xoshiro256 rng(seed + 1);
  for (std::size_t i = n; i > 1; --i)
    std::swap(out[i - 1], out[rng.bounded(i)]);
  return out;
}

/// `n` sorted values of make_values<T>(n, seed).
template <typename T, typename Comp>
std::vector<T> make_sorted(std::size_t n, std::uint64_t seed, Comp comp) {
  auto out = make_values<T>(n, seed);
  std::stable_sort(out.begin(), out.end(), comp);
  return out;
}

/// Where a row's keys come from: the 97-key generator (std::nullopt) or
/// one Dist shape of util/data_gen.hpp.
using Shape = std::optional<Dist>;

/// Dist keys as T; records carry `tag << 20 | i` as payload, like
/// make_values, so a reordered tie changes the bytes.
template <typename T>
std::vector<T> from_keys(const std::vector<std::int32_t>& keys,
                         std::uint64_t tag) {
  std::vector<T> out(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if constexpr (std::is_same_v<T, KeyedRecord>)
      out[i] = KeyedRecord{keys[i], static_cast<std::uint32_t>(tag << 20 | i)};
    else
      out[i] = static_cast<T>(keys[i]);
  }
  return out;
}

/// Two sorted inputs: independent 97-key draws with seeds `seed` and
/// `seed + 1`, or one make_merge_input pair, so that the shape's relation
/// between A and B (disjoint, interleaved, all equal, ...) holds.
template <typename T, typename Comp>
std::pair<std::vector<T>, std::vector<T>> make_sorted_pair(
    Shape shape, std::size_t size_a, std::size_t size_b, std::uint64_t seed,
    Comp comp) {
  if (!shape)
    return {make_sorted<T>(size_a, seed, comp),
            make_sorted<T>(size_b, seed + 1, comp)};
  const MergeInput input = make_merge_input(*shape, size_a, size_b, seed);
  return {from_keys<T>(input.a, seed), from_keys<T>(input.b, seed + 1)};
}

/// `n` sort inputs: a 97-key draw, or a Dist pair concatenated (two sorted
/// runs; disjoint_low is already sorted, disjoint_high is rotated).
template <typename T>
std::vector<T> make_sort_input(Shape shape, std::size_t n,
                               std::uint64_t seed) {
  if (!shape) return make_values<T>(n, seed);
  const MergeInput input = make_merge_input(*shape, n / 2, n - n / 2, seed);
  auto out = from_keys<T>(input.a, seed);
  const auto b = from_keys<T>(input.b, seed + 1);
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

/// Byte equality for the arithmetic keys, operator== for records.
template <typename T>
::testing::AssertionResult same_output(const std::vector<T>& got,
                                       const std::vector<T>& want) {
  bool equal = got.size() == want.size();
  if constexpr (std::is_arithmetic_v<T>) {
    equal = equal && (got.empty() || std::memcmp(got.data(), want.data(),
                                                 got.size() * sizeof(T)) == 0);
  } else {
    equal = equal && got == want;
  }
  if (equal) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << "output differs from the reference";
}

/// The sort entry points against std::stable_sort: parallel_merge_sort
/// (Section III), its sequential base case, and one of its flattened
/// merge rounds, over five uneven runs so the unpaired last one is copied.
template <typename T, typename Comp>
void check_sort_entry_points(const Executor& exec, Comp comp,
                             const std::string& label,
                             Shape shape = std::nullopt) {
  const auto data = make_sort_input<T>(shape, 3001, kSeed + 3);
  auto expected = data;
  std::stable_sort(expected.begin(), expected.end(), comp);

  auto sorted = data;
  parallel_merge_sort(sorted.data(), sorted.size(), exec, comp);
  EXPECT_TRUE(same_output(sorted, expected))
      << label << " parallel_merge_sort";

  sorted = data;
  sequential_merge_sort(std::span<T>(sorted), comp);
  EXPECT_TRUE(same_output(sorted, expected))
      << label << " sequential_merge_sort";

  const std::vector<Run> runs{
      {0, 700}, {700, 703}, {703, 1500}, {1500, 2990}, {2990, 3001}};
  auto src = data;
  for (const Run& run : runs)
    std::stable_sort(src.begin() + static_cast<std::ptrdiff_t>(run.begin),
                     src.begin() + static_cast<std::ptrdiff_t>(run.end), comp);
  std::vector<T> round_expected(src.size());
  std::merge(src.begin(), src.begin() + 700, src.begin() + 700,
             src.begin() + 703, round_expected.begin(), comp);
  std::merge(src.begin() + 703, src.begin() + 1500, src.begin() + 1500,
             src.begin() + 2990, round_expected.begin() + 703, comp);
  std::copy(src.begin() + 2990, src.end(), round_expected.begin() + 2990);
  std::vector<T> round_out(src.size());
  const auto merged =
      merge_round_balanced(src.data(), round_out.data(), runs, exec, comp);
  EXPECT_EQ(merged.size(), 3u) << label << " merge_round_balanced";
  EXPECT_TRUE(same_output(round_out, round_expected))
      << label << " merge_round_balanced";
}

/// The sort entry point on stable Zipf-keyed records.
void check_zipf_record_sort(const Executor& exec, const std::string& label) {
  auto data = make_zipf_records(20000, kSeed + 4);
  auto expected = data;
  std::stable_sort(expected.begin(), expected.end(), KeyOnly{});
  parallel_merge_sort(data.data(), data.size(), exec, KeyOnly{});
  EXPECT_TRUE(same_output(data, expected))
      << label << " parallel_merge_sort zipf records";
}

/// StreamMerger::pull: chunked pushes with small pulls between them, then
/// the rest in one pull above the merger's parallel-pull threshold.
template <typename T, typename Comp>
void check_stream_merger(const Executor& exec, Comp comp,
                         const std::string& label, Shape shape) {
  const auto [a, b] =
      make_sorted_pair<T>(shape, 24000, 20000, kSeed + 5, comp);
  std::vector<T> expected(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), expected.begin(), comp);

  constexpr std::size_t kChunk = 1000, kPull = 700, kChunkedRounds = 6;
  StreamMerger<T, Comp> merger(comp, exec);
  std::vector<T> out(expected.size());
  const std::span<T> sink(out);
  std::size_t written = 0;
  for (std::size_t r = 0; r < kChunkedRounds; ++r) {
    merger.push_a(std::span(a).subspan(r * kChunk, kChunk));
    merger.push_b(std::span(b).subspan(r * kChunk, kChunk));
    written += merger.pull(sink.subspan(written, kPull));
  }
  merger.push_a(std::span(a).subspan(kChunkedRounds * kChunk));
  merger.push_b(std::span(b).subspan(kChunkedRounds * kChunk));
  merger.close_a();
  merger.close_b();
  written += merger.pull(sink.subspan(written));
  EXPECT_EQ(written, expected.size()) << label << " StreamMerger::pull";
  EXPECT_EQ(out, expected) << label << " StreamMerger::pull";
}

/// Runs every entry point of the table on `exec` and checks it against
/// the sequential standard-library reference.
template <typename T, typename Comp>
void check_entry_points(const Executor& exec, Comp comp,
                        const std::string& label,
                        Shape shape = std::nullopt) {
  // A Dist row merges 600 + 400: segmented_parallel_merge forks once per
  // 37 outputs, and sixteen Dist rows per kernel would otherwise dominate
  // the table's run time.
  const auto [a, b] = make_sorted_pair<T>(shape, shape ? 600 : 1700,
                                          shape ? 400 : 1300, kSeed + 1, comp);
  std::vector<T> merged(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), merged.begin(), comp);
  {  // parallel_merge (Algorithm 1)
    std::vector<T> out(merged.size());
    parallel_merge(a.data(), a.size(), b.data(), b.size(), out.data(), exec,
                   comp);
    EXPECT_EQ(out, merged) << label << " parallel_merge";
  }
  {  // segmented_parallel_merge (Algorithm 2): a prime L keeps the ring
     // heads wrapping at changing offsets.
    SegmentedConfig config;
    config.segment_length = 37;
    std::vector<T> out(merged.size());
    segmented_parallel_merge(a.data(), a.size(), b.data(), b.size(),
                             out.data(), config, exec, comp);
    EXPECT_EQ(out, merged) << label << " segmented_parallel_merge";
  }
  {  // parallel_set_intersection / parallel_set_difference
    std::vector<T> intersection, difference;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(intersection), comp);
    std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(difference), comp);
    EXPECT_EQ(parallel_set_intersection(a, b, exec, comp), intersection)
        << label << " parallel_set_intersection";
    EXPECT_EQ(parallel_set_difference(a, b, exec, comp), difference)
        << label << " parallel_set_difference";
  }
  for (const std::size_t k : {2u, 5u}) {  // parallel_multiway_merge
    std::vector<std::vector<T>> runs;
    for (std::size_t t = 0; t < k; t += 2) {  // run t has seed kSeed + 10 + t
      auto [even, odd] = make_sorted_pair<T>(shape, 400 + 150 * t,
                                             550 + 150 * t, kSeed + 10 + t,
                                             comp);
      runs.push_back(std::move(even));
      if (t + 1 < k) runs.push_back(std::move(odd));
    }
    std::vector<T> expected;  // run order, then stable by key
    for (const std::vector<T>& run : runs)
      expected.insert(expected.end(), run.begin(), run.end());
    std::stable_sort(expected.begin(), expected.end(), comp);
    std::vector<std::span<const T>> views(runs.begin(), runs.end());
    std::vector<T> out(expected.size());
    parallel_multiway_merge(std::span<const std::span<const T>>(views),
                            out.data(), exec, comp);
    EXPECT_EQ(out, expected) << label << " parallel_multiway_merge k=" << k;
  }
  check_stream_merger<T>(exec, comp, label, shape);
  check_sort_entry_points<T>(exec, comp, label, shape);
}

/// The baselines on int32 keys: the merges against std::merge, the sorts
/// against std::stable_sort. naive_split_merge splits A and B at the same
/// fractions, which is wrong by design, so its output only has to be the
/// one the plain runner computes at the same p on a clean pool.
void check_baselines(const Executor& exec, const std::string& label,
                     Shape shape) {
  using baselines::naive_split_merge;
  const auto [a, b] =
      make_sorted_pair<std::int32_t>(shape, 1700, 1300, kSeed + 6,
                                     std::less<>{});
  std::vector<std::int32_t> merged(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), merged.begin());
  EXPECT_EQ(baselines::shiloach_vishkin_merge(a, b, exec), merged)
      << label << " shiloach_vishkin_merge";
  EXPECT_EQ(baselines::akl_santoro_merge(a, b, exec), merged)
      << label << " akl_santoro_merge";
  EXPECT_EQ(baselines::deo_sarkar_merge(a, b, exec), merged)
      << label << " deo_sarkar_merge";
  EXPECT_EQ(baselines::bitonic_merge(a, b, exec), merged)
      << label << " bitonic_merge";
  EXPECT_EQ(naive_split_merge(a, b, exec),
            naive_split_merge(a, b, Executor{nullptr, exec.threads}))
      << label << " naive_split_merge";

  const auto data = make_sort_input<std::int32_t>(shape, 3001, kSeed + 7);
  auto expected = data;
  std::stable_sort(expected.begin(), expected.end());
  auto sorted = data;
  baselines::bitonic_sort(std::span<std::int32_t>(sorted), exec);
  EXPECT_EQ(sorted, expected) << label << " bitonic_sort";
  sorted = data;
  baselines::parallel_radix_sort(std::span<std::int32_t>(sorted), exec);
  EXPECT_EQ(sorted, expected) << label << " parallel_radix_sort";
}

enum class Runner { kPlain, kRecovering };

/// p lanes on a 3-worker pool; the recovering runner arms a lane-fault
/// plan on the pool and recovers through `recovery`.
class RunnerTable
    : public ::testing::TestWithParam<std::tuple<Runner, unsigned>> {
 protected:
  RunnerTable() {
    recovery.config.hedge.enabled = true;
    if (runner() == Runner::kRecovering) {
      pool.set_fault_plan(&plan);
      exec.recovery = &recovery;
    }
  }

  void TearDown() override {
    // The schedule must actually bite for the recovering rows to mean
    // anything.
    if (runner() == Runner::kRecovering && p() > 1) {
      EXPECT_GT(recovery.report.injected_faults, 0u);
      EXPECT_GT(recovery.report.retried_lanes, 0u);
    }
  }

  static Runner runner() { return std::get<0>(GetParam()); }
  static unsigned p() { return std::get<1>(GetParam()); }

  fault::FaultPlan plan{
      fault::FaultConfig{kSeed + p(), kLaneFaultRate, 250.0, 200.0}};
  ThreadPool pool{3};  // declared after the plan: detached by dying first
  LaneRecovery recovery;
  Executor exec{&pool, p()};
};

TEST_P(RunnerTable, EveryEntryPointMatchesTheStableReference) {
  const kernels::Kernel saved = kernels::selected_kernel();
  for (const kernels::Kernel kernel :
       {kernels::Kernel::kScalar, kernels::widest_supported()}) {
    ASSERT_TRUE(kernels::set_kernel(kernel));
    const std::string label =
        std::string("kernel=") + kernels::to_string(kernel);
    check_entry_points<std::int32_t>(exec, std::less<>{}, label + " int32");
    check_entry_points<KeyedRecord>(exec, KeyOnly{}, label + " records");
    for (const Dist dist : kAllDists) {
      const std::string shaped = label + " dist=" + to_string(dist);
      check_entry_points<std::int32_t>(exec, std::less<>{}, shaped + " int32",
                                       dist);
      check_entry_points<KeyedRecord>(exec, KeyOnly{}, shaped + " records",
                                      dist);
    }
    check_sort_entry_points<std::uint32_t>(exec, std::less<>{},
                                           label + " uint32");
    check_sort_entry_points<std::int64_t>(exec, std::less<>{},
                                          label + " int64");
    check_sort_entry_points<std::uint64_t>(exec, std::less<>{},
                                           label + " uint64");
    check_sort_entry_points<float>(exec, test::TotalOrderLess{},
                                   label + " float");
    check_sort_entry_points<double>(exec, test::TotalOrderLess{},
                                    label + " double");
    check_zipf_record_sort(exec, label);
  }
  kernels::set_kernel(saved);
}

TEST_P(RunnerTable, BaselinesMatchTheReference) {
  check_baselines(exec, "int32", std::nullopt);
  for (const Dist dist : kAllDists)
    check_baselines(exec, std::string("int32 dist=") + to_string(dist), dist);
}

INSTANTIATE_TEST_SUITE_P(
    Runners, RunnerTable,
    ::testing::Combine(::testing::Values(Runner::kPlain, Runner::kRecovering),
                       ::testing::Values(1u, 2u, 4u, 17u)),
    [](const ::testing::TestParamInfo<RunnerTable::ParamType>& param_info) {
      return std::string(std::get<0>(param_info.param) == Runner::kPlain
                             ? "plain"
                             : "recovering") +
             "_p" + std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace mp

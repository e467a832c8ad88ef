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
// Axes: entry {parallel_merge, parallel_merge_sort,
// parallel_multiway_merge k=2 and k=5} x runner {plain, recovering} x
// p {1, 2, 4, 17} x kernel {scalar, widest} x key {int32 under std::less,
// KeyedRecord under a key-only comparator}, plus a sort of 20000
// Zipf-keyed records (long tie runs across lanes). The sort entry point also
// runs on int64 under std::less and double under TotalOrderLess, whose
// vector base case is the 64-bit register sort; their outputs are compared byte for byte (-0.0 == +0.0 and NaN
// != NaN would fool operator==).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/mergepath.hpp"
#include "fault/fault.hpp"
#include "kernels/kernels.hpp"
#include "util/data_gen.hpp"
#include "util/rng.hpp"

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
/// reordered anywhere changes the bytes. Doubles add signed zeros and
/// NaNs, whose order only TotalOrderLess defines.
template <typename T>
std::vector<T> make_values(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<T> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto key = static_cast<std::int32_t>(rng.bounded(97)) - 48;
    if constexpr (std::is_same_v<T, KeyedRecord>) {
      out[i] = KeyedRecord{key, static_cast<std::uint32_t>(seed << 20 | i)};
    } else if constexpr (std::is_same_v<T, double>) {
      constexpr double kSpecials[] = {
          0.0, -0.0, std::numeric_limits<double>::quiet_NaN(),
          -std::numeric_limits<double>::quiet_NaN()};
      out[i] = key % 8 == 0 ? kSpecials[rng.bounded(4)] : key * 0.75;
    } else if constexpr (std::is_same_v<T, std::int64_t>) {
      out[i] = static_cast<std::int64_t>(key) << 40 | (key & 7);
    } else {
      out[i] = key;
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

/// The sort entry point, parallel_merge_sort (Section III), against
/// std::stable_sort.
template <typename T, typename Comp>
void check_sort_entry_point(const Executor& exec, Comp comp,
                            const std::string& label) {
  auto data = make_values<T>(3001, kSeed + 3);
  auto expected = data;
  std::stable_sort(expected.begin(), expected.end(), comp);
  parallel_merge_sort(data.data(), data.size(), exec, comp);
  EXPECT_TRUE(same_output(data, expected)) << label << " parallel_merge_sort";
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

/// Runs every entry point of the table on `exec` and checks it against
/// the sequential standard-library reference.
template <typename T, typename Comp>
void check_entry_points(const Executor& exec, Comp comp,
                        const std::string& label) {
  {  // parallel_merge (Algorithm 1)
    auto a = make_values<T>(1700, kSeed + 1);
    auto b = make_values<T>(1300, kSeed + 2);
    std::stable_sort(a.begin(), a.end(), comp);
    std::stable_sort(b.begin(), b.end(), comp);
    std::vector<T> expected(a.size() + b.size());
    std::merge(a.begin(), a.end(), b.begin(), b.end(), expected.begin(),
               comp);
    std::vector<T> out(a.size() + b.size());
    parallel_merge(a.data(), a.size(), b.data(), b.size(), out.data(), exec,
                   comp);
    EXPECT_EQ(out, expected) << label << " parallel_merge";
  }
  for (const std::size_t k : {2u, 5u}) {  // parallel_multiway_merge
    std::vector<std::vector<T>> runs(k);
    std::vector<T> expected;  // run order, then stable by key
    for (std::size_t t = 0; t < k; ++t) {
      runs[t] = make_values<T>(400 + 150 * t, kSeed + 10 + t);
      std::stable_sort(runs[t].begin(), runs[t].end(), comp);
      expected.insert(expected.end(), runs[t].begin(), runs[t].end());
    }
    std::stable_sort(expected.begin(), expected.end(), comp);
    std::vector<std::span<const T>> views(runs.begin(), runs.end());
    std::vector<T> out(expected.size());
    parallel_multiway_merge(std::span<const std::span<const T>>(views),
                            out.data(), exec, comp);
    EXPECT_EQ(out, expected) << label << " parallel_multiway_merge k=" << k;
  }
  check_sort_entry_point<T>(exec, comp, label);
}

enum class Runner { kPlain, kRecovering };

class RunnerTable
    : public ::testing::TestWithParam<std::tuple<Runner, unsigned>> {};

TEST_P(RunnerTable, EveryEntryPointMatchesTheStableReference) {
  const auto [runner, p] = GetParam();
  const kernels::Kernel saved = kernels::selected_kernel();
  fault::FaultPlan plan(
      fault::FaultConfig{kSeed + p, kLaneFaultRate, 250.0, 200.0});
  ThreadPool pool(3);  // declared after the plan: detached by dying first
  LaneRecovery recovery;
  recovery.config.hedge.enabled = true;
  Executor exec{&pool, p};
  if (runner == Runner::kRecovering) {
    pool.set_fault_plan(&plan);
    exec.recovery = &recovery;
  }
  for (const kernels::Kernel kernel :
       {kernels::Kernel::kScalar, kernels::widest_supported()}) {
    ASSERT_TRUE(kernels::set_kernel(kernel));
    const std::string label =
        std::string("kernel=") + kernels::to_string(kernel);
    check_entry_points<std::int32_t>(exec, std::less<>{}, label + " int32");
    check_entry_points<KeyedRecord>(exec, KeyOnly{}, label + " records");
    check_sort_entry_point<std::int64_t>(exec, std::less<>{},
                                         label + " int64");
    check_sort_entry_point<double>(exec, kernels::TotalOrderLess{},
                                   label + " double");
    check_zipf_record_sort(exec, label);
  }
  kernels::set_kernel(saved);
  if (runner == Runner::kRecovering && p > 1 && fault::kFaultCompiledIn) {
    // The schedule must actually bite for the recovering rows to mean
    // anything.
    EXPECT_GT(recovery.report.injected_faults, 0u);
    EXPECT_GT(recovery.report.retried_lanes, 0u);
  }
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

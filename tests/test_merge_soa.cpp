// Tests for core/merge_soa.hpp: multi-column SoA merging — keys match the
// plain merge, every column follows its key, heterogeneous column types.

#include "core/merge_soa.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "test_support.hpp"
#include "util/data_gen.hpp"

namespace mp {
namespace {

TEST(MergeSoa, KeysAndTwoColumnsTravelTogether) {
  const auto input = make_merge_input(Dist::kFewDuplicates, 800, 600, 1201);
  const std::size_t m = input.a.size(), n = input.b.size();
  // Column 1: origin-tagged ints; column 2: doubles derived from the key.
  std::vector<std::uint32_t> tag_a(m), tag_b(n);
  std::vector<double> val_a(m), val_b(n);
  for (std::size_t i = 0; i < m; ++i) {
    tag_a[i] = (0u << 24) | static_cast<std::uint32_t>(i);
    val_a[i] = input.a[i] * 1.5;
  }
  for (std::size_t j = 0; j < n; ++j) {
    tag_b[j] = (1u << 24) | static_cast<std::uint32_t>(j);
    val_b[j] = input.b[j] * 1.5;
  }

  std::vector<std::int32_t> keys_out(m + n);
  std::vector<std::uint32_t> tags_out(m + n);
  std::vector<double> vals_out(m + n);
  for (unsigned p : {1u, 4u, 9u}) {
    parallel_merge_soa(
        input.a.data(), m, input.b.data(), n, keys_out.data(),
        std::tuple{SoaColumn<std::uint32_t>{tag_a.data(), tag_b.data(),
                                            tags_out.data()},
                   SoaColumn<double>{val_a.data(), val_b.data(),
                                     vals_out.data()}},
        Executor{nullptr, p});

    EXPECT_EQ(keys_out, test::reference_merge(input.a, input.b)) << p;
    for (std::size_t s = 0; s < keys_out.size(); ++s) {
      const bool from_b = (tags_out[s] >> 24) == 1;
      const std::uint32_t idx = tags_out[s] & 0xffffffu;
      const std::int32_t original =
          from_b ? input.b[idx] : input.a[idx];
      ASSERT_EQ(keys_out[s], original) << "p=" << p << " s=" << s;
      ASSERT_EQ(vals_out[s], original * 1.5) << "p=" << p << " s=" << s;
    }
    // Stability: equal keys keep A-then-B, input order within each.
    for (std::size_t s = 1; s < keys_out.size(); ++s) {
      if (keys_out[s - 1] == keys_out[s]) {
        ASSERT_LT(tags_out[s - 1], tags_out[s]) << "p=" << p;
      }
    }
  }
}

TEST(MergeSoa, StringColumn) {
  const std::vector<std::int32_t> ka{1, 3}, kb{2, 4};
  const std::vector<std::string> sa{"one", "three"}, sb{"two", "four"};
  std::vector<std::int32_t> keys(4);
  std::vector<std::string> strs(4);
  parallel_merge_soa(ka.data(), 2, kb.data(), 2, keys.data(),
                     std::tuple{SoaColumn<std::string>{sa.data(), sb.data(),
                                                       strs.data()}});
  const std::vector<std::string> expected{"one", "two", "three", "four"};
  EXPECT_EQ(strs, expected);
}

TEST(MergeSoa, NoColumnsDegeneratesToPlainMerge) {
  const auto input = make_merge_input(Dist::kUniform, 1000, 1000, 1203);
  std::vector<std::int32_t> out(2000);
  parallel_merge_soa(input.a.data(), 1000, input.b.data(), 1000, out.data(),
                     std::tuple<>{}, Executor{nullptr, 4});
  EXPECT_EQ(out, test::reference_merge(input.a, input.b));
}

TEST(MergeSoa, EmptySides) {
  const std::vector<std::int32_t> keys{5, 6};
  const std::vector<std::int32_t> vals{50, 60};
  std::vector<std::int32_t> keys_out(2), vals_out(2);
  parallel_merge_soa(keys.data(), 2, keys.data(), 0, keys_out.data(),
                     std::tuple{SoaColumn<std::int32_t>{
                         vals.data(), vals.data(), vals_out.data()}});
  EXPECT_EQ(vals_out, vals);
}

}  // namespace
}  // namespace mp

#pragma once
/// \file xsort.hpp
/// Workload `xsort-4m`: the checkpointed sharded external sort
/// (pipeline::Pipeline) over 4 Mi int32 on a fresh in-memory BlockDevice
/// per operation, with the `mpsort xsort` defaults.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common.hpp"

namespace pb {

inline constexpr std::size_t kXsortElems = std::size_t{4} << 20;

/// Uniform int32 input; a pure function of `seed`.
std::vector<std::int32_t> make_xsort_input(std::uint64_t seed,
                                           std::size_t n = kXsortElems);

void run_xsort(const Args& args, Result& result);

}  // namespace pb

#pragma once
/// \file check.hpp
/// Output checks shared by the workloads and the self-tests. Each returns
/// an empty string when the output is right and a one-line reason when it
/// is not.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace pb {

/// Byte-for-byte comparison of an operation's output with its reference.
template <typename T>
std::string compare_bytes(const T* got, const T* want, std::size_t n,
                          const char* what) {
  if (std::memcmp(got, want, n * sizeof(T)) == 0) return {};
  std::size_t i = 0;
  while (i < n && std::memcmp(&got[i], &want[i], sizeof(T)) == 0) ++i;
  return std::string(what) + ": output differs from the reference at element " +
         std::to_string(i) + " of " + std::to_string(n);
}

/// Checks that each session's responses arrive in submission order.
class SessionOrder {
 public:
  explicit SessionOrder(std::size_t sessions) : next_(sessions, 0) {}

  std::string accept(std::uint64_t session, std::uint64_t sequence) {
    if (session >= next_.size())
      return "response for unknown session " + std::to_string(session);
    if (sequence != next_[session])
      return "session " + std::to_string(session) + " got sequence " +
             std::to_string(sequence) + ", expected " +
             std::to_string(next_[session]);
    ++next_[session];
    return {};
  }

 private:
  std::vector<std::uint64_t> next_;
};

}  // namespace pb

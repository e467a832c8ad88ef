#include "util/hw.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <thread>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace mp {
namespace {

// Parses sysfs numbers: "3", and sizes such as "32K" / "12288K" / "12M".
// Anything unparsable reads as 0.
std::size_t parse_size(const std::string& text) {
  std::size_t value = 0;
  std::size_t i = 0;
  while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
    value = value * 10 + static_cast<std::size_t>(text[i] - '0');
    ++i;
  }
  if (i < text.size()) {
    if (text[i] == 'K' || text[i] == 'k') value <<= 10;
    if (text[i] == 'M' || text[i] == 'm') value <<= 20;
  }
  return value;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::string text;
  std::getline(in, text);
  return text;
}

HostInfo probe_host() {
  HostInfo info;
  info.logical_cpus = std::max(1u, std::thread::hardware_concurrency());

  const std::string base = "/sys/devices/system/cpu/cpu0/cache/";
  for (int index = 0; index < 8; ++index) {
    const std::string dir = base + "index" + std::to_string(index) + "/";
    const std::string type = read_file(dir + "type");
    if (type.empty()) break;
    if (type != "Data" && type != "Unified") continue;
    CacheLevel level;
    level.level = static_cast<int>(parse_size(read_file(dir + "level")));
    level.size_bytes = parse_size(read_file(dir + "size"));
    const std::string line = read_file(dir + "coherency_line_size");
    if (!line.empty()) level.line_bytes = parse_size(line);
    const std::string ways = read_file(dir + "ways_of_associativity");
    if (!ways.empty()) level.associativity =
        static_cast<unsigned>(std::stoul(ways));
    // Heuristic: a cache listed with >1 CPU in shared_cpu_list is shared.
    level.shared = read_file(dir + "shared_cpu_list").find_first_of(",-") !=
                   std::string::npos;
    if (level.level > 0 && level.size_bytes > 0) info.caches.push_back(level);
  }
  std::sort(info.caches.begin(), info.caches.end(),
            [](const CacheLevel& x, const CacheLevel& y) {
              return x.level < y.level;
            });
  return info;
}

CpuFeatures probe_cpu() {
  CpuFeatures features;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  features.sse42 = __builtin_cpu_supports("sse4.2") != 0;
  features.avx2 = __builtin_cpu_supports("avx2") != 0;
  features.avx512f = __builtin_cpu_supports("avx512f") != 0;
  features.avx512bw = __builtin_cpu_supports("avx512bw") != 0;
#endif
  return features;
}

}  // namespace

std::size_t HostInfo::l1d_bytes() const {
  for (const auto& c : caches)
    if (c.level == 1) return c.size_bytes;
  return 32u << 10;
}

std::size_t HostInfo::l2_bytes() const {
  for (const auto& c : caches)
    if (c.level == 2) return c.size_bytes;
  return std::clamp<std::size_t>(256u << 10, l1d_bytes(),
                                 std::max(l1d_bytes(), llc_bytes()));
}

std::size_t HostInfo::llc_bytes() const {
  if (!caches.empty()) return caches.back().size_bytes;
  return 12u << 20;
}

const HostInfo& host_info() {
  static const HostInfo info = probe_host();
  return info;
}

const CpuFeatures& cpu_features() {
  static const CpuFeatures features = probe_cpu();
  return features;
}

HostInfo paper_machine() {
  HostInfo info;
  info.logical_cpus = 12;  // 2 sockets x 6 cores, HT disabled per Section VI
  info.caches = {
      CacheLevel{1, 32u << 10, 64, 8, false},
      CacheLevel{2, 256u << 10, 64, 8, false},
      CacheLevel{3, 12u << 20, 64, 16, true},
  };
  return info;
}

std::string isa_string(const CpuFeatures& features) {
  std::string isa;
  auto append = [&](const char* name) {
    if (!isa.empty()) isa += '+';
    isa += name;
  };
  if (features.sse42) append("sse4.2");
  if (features.avx2) append("avx2");
  if (features.avx512f && features.avx512bw) append("avx512");
  return isa.empty() ? "baseline" : isa;
}

std::string describe(const HostInfo& info) {
  std::ostringstream os;
  os << info.logical_cpus << " logical CPU(s)";
  for (const auto& c : info.caches) {
    os << ", L" << c.level << (c.shared ? " shared " : " ")
       << (c.size_bytes >> 10) << "KiB/" << c.associativity << "-way";
  }
  return os.str();
}

void advise_huge_pages(void* data, std::size_t bytes) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  constexpr std::uintptr_t kHugePage = std::uintptr_t{2} << 20;
  const auto begin = reinterpret_cast<std::uintptr_t>(data);
  const std::uintptr_t lo = (begin + kHugePage - 1) & ~(kHugePage - 1);
  const std::uintptr_t hi = (begin + bytes) & ~(kHugePage - 1);
  // A refusal (THP disabled, an old kernel) leaves 4 KiB pages: ignored.
  if (lo < hi)
    (void)madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_HUGEPAGE);
#else
  (void)data;
  (void)bytes;
#endif
}

}  // namespace mp

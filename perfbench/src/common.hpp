#pragma once
/// \file common.hpp
/// Shared plumbing of the end-to-end benchmark: command line, the seeded
/// generator, clocks, memory and thread probes, order statistics, and the
/// result line the benchmark prints last.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace pb {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Parses `--workload W --seed N --seconds S --trace 0|1`. Throws
/// std::invalid_argument on anything else.
Args parse_args(int argc, char** argv);

/// SplitMix64. The benchmark owns its generator so that changes to the
/// library's util/rng or data generators cannot change the load.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint32_t below(std::uint32_t n) {
    return static_cast<std::uint32_t>(((next() >> 32) * n) >> 32);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Independent generator for input `label` of run `seed`.
inline Rng stream(std::uint64_t seed, std::uint64_t label) {
  Rng mix(seed ^ (label * 0xD1B54A32D192ED03ull));
  return Rng(mix.next());
}

/// Order-independent checksum of a multiset of keys: equal for any
/// permutation, different (with overwhelming probability) after any
/// element changes.
inline std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ull;
  return x ^ (x >> 33);
}
template <typename T>
std::uint64_t multiset_hash(const T* data, std::size_t n) {
  std::uint64_t h = n;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t bits = 0;
    static_assert(sizeof(T) <= sizeof(bits));
    std::memcpy(&bits, &data[i], sizeof(T));
    h += mix64(bits);
  }
  return h;
}

/// Logical CPUs this process may run on (what `nproc` prints).
unsigned nproc();
/// Steady-clock seconds since an arbitrary origin.
double now_s();
/// CPU seconds consumed by every thread of the process. The kernel leaves
/// out time the hypervisor gave to other guests (steal), so CPU time does
/// not grow when the host is busy, unlike wall time.
double cpu_s();
/// CPU seconds consumed by the calling thread.
double thread_cpu_s();
/// The calling thread's kernel thread id.
long thread_id();

/// CPU time each thread of the process used since construction, read from
/// the kernel's per-thread CPU clocks (steal left out, as for cpu_s()).
class ThreadCpu {
 public:
  ThreadCpu();
  /// Milliseconds used by the thread that used the most, leaving out
  /// thread `skip` and threads that have exited. A fork-join operation
  /// cannot finish before its busiest lane has done its share, so this
  /// grows when work stops being spread over the lanes even if the total
  /// does not.
  double busiest_ms(long skip = 0) const;

 private:
  std::vector<std::pair<long, double>> start_;
};

/// Peak resident set size, MiB (from /proc/self/status).
double peak_rss_mib();
/// Restarts the peak-RSS high-water mark at the current RSS.
void reset_peak_rss();
/// Threads currently alive in the process.
unsigned thread_count();

/// Share of the host's CPU time the hypervisor gave to other guests
/// (`steal` in /proc/stat) between construction and steal_frac(): a high
/// value marks a run taken while the host was busy.
class StealMeter {
 public:
  StealMeter();
  double steal_frac() const;

 private:
  std::uint64_t steal_ = 0, total_ = 0;
};

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}
/// Distance between the first and third quartile.
double iqr(const std::vector<double>& values);
/// The highest percentile with at least 10 samples beyond it at `samples`
/// samples (the `*_tail` statistic); 0.5 when `samples` < 20.
double tail_quantile(std::size_t samples);

/// One benchmark run's outcome: the last line of standard output.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Run metadata, printed on its own line before the result.
  void meta(const std::string& key, const std::string& json_value);
  void meta(const std::string& key, double value);
  void attempt() { ++attempted_; }
  /// Records a failed operation (and why, on stderr).
  void fail(const std::string& why);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool has_metric(const std::string& name) const;
  /// Adds `other`'s operations, the metrics this result does not have
  /// yet, and its metadata with `meta_prefix` before each key.
  void absorb(const Result& other, const std::string& meta_prefix);
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// What every workload measures for the end-to-end metrics. Each workload
/// defines its own operation and sample; the names printed are the same
/// for all. Times that decide the bounded metrics are CPU times, which the
/// hypervisor's steal does not move; wall times go to the metadata.
struct EndToEnd {
  std::vector<double> setup_cpu_s;   ///< CPU time of each set-up
  std::vector<double> setup_wall_s;  ///< wall time of each set-up
  std::vector<double> cpu_ms;        ///< CPU ms per operation, per sample
  std::vector<double> busiest_ms;    ///< busiest thread's ms per operation
  std::vector<double> wall_ms;       ///< wall ms of each operation
  std::vector<double> peak_rss_mib;  ///< peak RSS of each sample
  /// CPU samples a run is designed to reach; fixes the `*_tail` quantile.
  std::size_t tail_samples = 0;
};

/// Times one set-up into `e`.
template <typename Fn>
auto timed_setup(EndToEnd& e, Fn&& set_up) {
  const double c = cpu_s();
  const double t = now_s();
  auto state = set_up();
  e.setup_wall_s.push_back(now_s() - t);
  e.setup_cpu_s.push_back(cpu_s() - c);
  return state;
}

/// Prints `e` as the end-to-end metrics setup_s, cpu_ms_p50, cpu_ms_tail,
/// busiest_thread_ms_p50 and peak_rss_mib, and the wall times and sample
/// counts as metadata.
void report(Result& result, const EndToEnd& e);

/// Quotes and escapes `s` as a JSON string.
std::string json_string(const std::string& s);

}  // namespace pb

#include "common.hpp"

#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <tuple>

namespace pb {

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    const std::invalid_argument bad("bad value '" + value + "' for " + flag);
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (value.empty() || value.find_first_not_of("0123456789") !=
                               std::string::npos)
        throw bad;
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      char* end = nullptr;
      args.seconds = std::strtod(value.c_str(), &end);
      if (end != value.c_str() + value.size() || !(args.seconds > 0.0))
        throw bad;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw bad;
      args.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return args;
}

unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  const int count = CPU_COUNT(&set);
  return count > 0 ? static_cast<unsigned>(count) : 1;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

long thread_id() { return static_cast<long>(syscall(SYS_gettid)); }

namespace {

/// CPU seconds of thread `tid` of this process, or a negative value once
/// it has exited. The clock id encoding is the kernel's
/// (MAKE_THREAD_CPUCLOCK(tid, CPUCLOCK_SCHED)).
double thread_cpu_s(long tid) {
  const auto clock = static_cast<clockid_t>((~static_cast<unsigned long>(tid)
                                             << 3) | 6u);
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return -1.0;
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

std::vector<std::pair<long, double>> all_thread_cpu() {
  std::vector<std::pair<long, double>> out;
  std::error_code ec;
  for (auto it = std::filesystem::directory_iterator("/proc/self/task", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    const long tid = std::strtol(it->path().filename().c_str(), nullptr, 10);
    const double s = thread_cpu_s(tid);
    if (tid > 0 && s >= 0) out.emplace_back(tid, s);
  }
  return out;
}

}  // namespace

ThreadCpu::ThreadCpu() : start_(all_thread_cpu()) {}

double ThreadCpu::busiest_ms(long skip) const {
  double busiest = 0;
  for (const auto& [tid, now] : all_thread_cpu()) {
    if (tid == skip) continue;
    double before = 0;  // a thread started since the snapshot used it all
    for (const auto& [t0, s0] : start_)
      if (t0 == tid) before = s0;
    busiest = std::max(busiest, now - before);
  }
  return busiest * 1e3;
}

namespace {

double status_kib(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':')
      return std::stod(line.substr(len + 1));
  }
  return 0.0;
}

}  // namespace

double peak_rss_mib() { return status_kib("VmHWM") / 1024.0; }

void reset_peak_rss() {
  // "5" resets the process's peak-RSS counter (Linux >= 4.0).
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

unsigned thread_count() {
  unsigned count = 0;
  std::error_code ec;
  for (auto it = std::filesystem::directory_iterator("/proc/self/task", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec))
    ++count;
  return count;
}

namespace {

/// (steal, total) jiffies of the aggregate "cpu" line of /proc/stat.
std::pair<std::uint64_t, std::uint64_t> cpu_jiffies() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  std::uint64_t steal = 0, total = 0, v = 0;
  for (int field = 0; field < 8 && in >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

}  // namespace

StealMeter::StealMeter() { std::tie(steal_, total_) = cpu_jiffies(); }

double StealMeter::steal_frac() const {
  const auto [steal, total] = cpu_jiffies();
  return total > total_ ? static_cast<double>(steal - steal_) /
                              static_cast<double>(total - total_)
                        : 0.0;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  const auto n = values.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double iqr(const std::vector<double>& values) {
  return percentile(values, 0.75) - percentile(values, 0.25);
}

double tail_quantile(std::size_t samples) {
  if (samples < 20) return 0.5;
  // Whole percent, rounded down so that >= 10 samples stay above it.
  const double pct =
      std::floor(100.0 * static_cast<double>(samples - 10) /
                 static_cast<double>(samples));
  return pct / 100.0;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

namespace {

std::string json_number(double v) {
  // JSON has no infinities; a latency that never completed reads as the
  // largest finite double.
  if (std::isnan(v)) v = 0.0;
  if (std::isinf(v))
    v = std::copysign(std::numeric_limits<double>::max(), v);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

void Result::meta(const std::string& key, const std::string& json_value) {
  meta_.emplace_back(key, json_value);
}

void Result::meta(const std::string& key, double value) {
  meta(key, json_number(value));
}

void Result::fail(const std::string& why) {
  ++failed_;
  if (failed_ <= 10) std::cerr << "perfbench: FAILED: " << why << "\n";
}

bool Result::has_metric(const std::string& name) const {
  return std::any_of(metrics_.begin(), metrics_.end(),
                     [&](const Metric& m) { return m.name == name; });
}

void Result::absorb(const Result& other, const std::string& meta_prefix) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  for (const Metric& m : other.metrics_)
    if (!has_metric(m.name)) metrics_.push_back(m);
  for (const auto& [key, value] : other.meta_)
    meta_.emplace_back(meta_prefix + key, value);
}

void report(Result& result, const EndToEnd& e) {
  const double q = tail_quantile(e.tail_samples);
  result.metric("setup_s", median(e.setup_cpu_s), "s");
  result.metric("cpu_ms_p50", median(e.cpu_ms), "ms");
  result.metric("cpu_ms_tail", percentile(e.cpu_ms, q), "ms");
  result.metric("busiest_thread_ms_p50", median(e.busiest_ms), "ms");
  result.metric("peak_rss_mib", median(e.peak_rss_mib), "MiB");
  result.meta("samples", static_cast<double>(e.cpu_ms.size()));
  result.meta("tail_quantile", q);
  result.meta("setup_wall_s", median(e.setup_wall_s));
  const double wq = tail_quantile(e.wall_ms.size());
  result.meta("wall_ms_p50", median(e.wall_ms));
  result.meta("wall_ms_tail", percentile(e.wall_ms, wq));
  result.meta("wall_samples", static_cast<double>(e.wall_ms.size()));
  result.meta("wall_tail_quantile", wq);
}

void Result::print() const {
  std::ostringstream meta;
  meta << "{\"meta\": {";
  for (std::size_t i = 0; i < meta_.size(); ++i)
    meta << (i ? ", " : "") << json_string(meta_[i].first) << ": "
         << meta_[i].second;
  meta << "}}";
  std::ostringstream out;
  out << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i)
    out << (i ? ", " : "") << json_string(metrics_[i].name)
        << ": {\"value\": " << json_number(metrics_[i].value)
        << ", \"unit\": " << json_string(metrics_[i].unit) << "}";
  out << "}}";
  std::cout << meta.str() << "\n" << out.str() << std::endl;
}

}  // namespace pb

// Self-tests of the benchmark: seeded inputs, the output checks, and the
// traced layer split. Exit status 0 when every check holds.
//
//   cmake --build .bench_build --target perfbench_selftest
//   .bench_build/perfbench_selftest

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "check.hpp"
#include "common.hpp"
#include "inmem.hpp"
#include "serve_small.hpp"
#include "xsort.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

const pb::InmemSizes kSmall{std::size_t{1} << 20, std::size_t{1} << 19,
                            std::size_t{1} << 19};

std::uint64_t inmem_digest(const pb::InmemInputs& in) {
  return pb::multiset_hash(in.i32.data(), in.i32.size()) ^
         pb::mix64(pb::multiset_hash(in.rec.data(), in.rec.size())) ^
         pb::mix64(pb::multiset_hash(in.a.data(), in.a.size()) + 1) ^
         pb::mix64(pb::multiset_hash(in.b.data(), in.b.size()) + 2);
}

std::uint64_t streams_digest(
    const std::vector<std::vector<pb::RequestTemplate>>& streams) {
  std::uint64_t h = 0;
  for (const auto& s : streams)
    for (const auto& t : s) h = pb::mix64(h ^ t.hash) + t.elements;
  return h;
}

void test_inputs_are_seeded() {
  const pb::InmemInputs a = pb::make_inmem_inputs(7, kSmall);
  const pb::InmemInputs b = pb::make_inmem_inputs(7, kSmall);
  const pb::InmemInputs c = pb::make_inmem_inputs(8, kSmall);
  expect(std::equal(a.i32.begin(), a.i32.end(), b.i32.begin()) &&
             a.a == b.a && a.b == b.b &&
             std::equal(a.rec.begin(), a.rec.end(), b.rec.begin(),
                        [](const pb::Rec& x, const pb::Rec& y) {
                          return x.key == y.key && x.index == y.index;
                        }),
         "inmem inputs: same seed, identical inputs");
  expect(inmem_digest(a) == inmem_digest(b),
         "inmem inputs: same seed, identical checksums");
  expect(inmem_digest(a) != inmem_digest(c) && a.i32 != c.i32,
         "inmem inputs: other seed, other inputs");
  expect(std::is_sorted(a.a.begin(), a.a.end()) &&
             std::is_sorted(a.b.begin(), a.b.end()),
         "inmem inputs: merge halves are sorted");

  const auto s1 = pb::make_request_streams(7);
  const auto s2 = pb::make_request_streams(7);
  const auto s3 = pb::make_request_streams(8);
  expect(streams_digest(s1) == streams_digest(s2) && s1[0][0].a32 == s2[0][0].a32,
         "serve stream: same seed, identical requests and checksums");
  expect(streams_digest(s1) != streams_digest(s3),
         "serve stream: other seed, other requests");

  std::size_t big = 0, merges = 0, wide = 0, total = 0;
  for (const auto& s : s1)
    for (const auto& t : s) {
      ++total;
      big += t.elements == pb::ServeMix::kBig;
      merges += t.kind == mp::serve::RequestKind::kMerge;
      wide += t.width == mp::serve::KeyWidth::k64;
    }
  expect(big * 32 == total && merges * 4 == total && wide * 4 == total,
         "serve stream: 1/32 big sorts, 1/4 merges, 1/4 64-bit keys");

  expect(pb::make_xsort_input(7, 1 << 16) == pb::make_xsort_input(7, 1 << 16),
         "xsort input: same seed, identical input");
  expect(pb::make_xsort_input(7, 1 << 16) != pb::make_xsort_input(8, 1 << 16),
         "xsort input: other seed, other input");
}

void test_checks_catch_defects() {
  std::vector<std::int32_t> ref = pb::make_xsort_input(3, 1 << 12);
  std::sort(ref.begin(), ref.end());
  std::vector<std::int32_t> got = ref;
  expect(pb::compare_bytes(got.data(), ref.data(), ref.size(), "t").empty(),
         "byte check: passes an exact copy");
  reinterpret_cast<unsigned char*>(got.data())[4001] ^= 0x01;
  expect(!pb::compare_bytes(got.data(), ref.data(), ref.size(), "t").empty(),
         "byte check: catches one flipped byte");

  // A key-sorted but unstable result: two equal-key records swapped.
  std::vector<pb::Rec> recs(64);
  for (std::uint32_t i = 0; i < recs.size(); ++i)
    recs[i] = pb::Rec{static_cast<std::int32_t>(i % 5), i};
  std::vector<pb::Rec> stable = recs;
  std::stable_sort(stable.begin(), stable.end(), pb::KeyLess{});
  std::vector<pb::Rec> unstable = stable;
  std::swap(unstable[3], unstable[4]);
  expect(unstable[3].key == unstable[4].key &&
             std::is_sorted(unstable.begin(), unstable.end(), pb::KeyLess{}),
         "stability check: the swapped pair is still key-sorted");
  expect(!pb::compare_bytes(unstable.data(), stable.data(), stable.size(), "t")
              .empty(),
         "stability check: catches two equal-key records swapped");

  pb::SessionOrder order(2);
  expect(order.accept(0, 0).empty() && order.accept(1, 0).empty() &&
             order.accept(0, 1).empty(),
         "session order: accepts FIFO delivery");
  expect(!order.accept(1, 2).empty(),
         "session order: catches a response delivered out of order");

  const auto streams = pb::make_request_streams(5);
  const pb::RequestTemplate* merge = nullptr;
  for (const auto& t : streams[0])
    if (t.kind == mp::serve::RequestKind::kMerge &&
        t.width == mp::serve::KeyWidth::k32 && t.elements > 8)
      merge = &t;
  expect(merge != nullptr, "serve check: the stream has a 32-bit merge");
  if (merge == nullptr) return;
  mp::serve::Response r;
  r.keys32 = merge->a32;
  r.keys32.insert(r.keys32.end(), merge->b32.begin(), merge->b32.end());
  std::sort(r.keys32.begin(), r.keys32.end());
  expect(pb::check_response(*merge, r).empty(),
         "serve check: passes the right answer");
  mp::serve::Response flipped = r;
  flipped.keys32.back() ^= 1 << 20;
  std::sort(flipped.keys32.begin(), flipped.keys32.end());
  expect(!pb::check_response(*merge, flipped).empty(),
         "serve check: catches a changed element");
  mp::serve::Response unsorted = r;
  std::swap(unsorted.keys32.front(), unsorted.keys32.back());
  expect(!pb::check_response(*merge, unsorted).empty(),
         "serve check: catches an unsorted response");
  mp::serve::Response failed = r;
  failed.outcome = mp::serve::Outcome::kCancelled;
  expect(!pb::check_response(*merge, failed).empty(),
         "serve check: counts a cancellation as failed");
}

void test_trace_residuals() {
  pb::Args args;
  args.workload = "inmem-64mib";
  args.seed = 11;
  args.seconds = 3.0;
  args.trace = true;
  pb::Result result;
  pb::InmemTrace trace;
  pb::run_inmem(args, result, kSmall, &trace);
  expect(result.failed() == 0 && result.attempted() > 0,
         "traced run: every operation and phase replay checks out");
  for (const auto* l : {&trace.i32, &trace.rec}) {
    const bool ok = l->residual_ms >= -l->e2e_iqr_ms;
    char line[160];
    std::snprintf(line, sizeof(line),
                  "traced run: residual %.3f ms not below -spread %.3f ms",
                  l->residual_ms, l->e2e_iqr_ms);
    expect(ok, line);
  }
}

void test_cpu_clocks() {
  // A thread spins for at least 100 ms of its own CPU time while this one
  // sleeps: it is the busiest, and leaving it out leaves almost nothing.
  std::atomic<long> spinner{0};
  std::atomic<bool> stop{false};
  const pb::ThreadCpu threads;
  std::thread t([&] {
    spinner = pb::thread_id();
    const double start = pb::thread_cpu_s();
    while (pb::thread_cpu_s() - start < 0.1 || !stop) {
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const double busiest = threads.busiest_ms();
  const double without = threads.busiest_ms(spinner);
  stop = true;
  t.join();
  char line[160];
  std::snprintf(line, sizeof(line),
                "thread clocks: the spinning thread is the busiest (%.1f ms), "
                "the rest idle (%.1f ms)",
                busiest, without);
  expect(busiest > 50 && without < 20, line);
}

void test_report_names() {
  pb::EndToEnd e;
  e.setup_cpu_s = {1.0, 1.1, 0.9};
  e.setup_wall_s = {1.2, 1.3, 1.1};
  for (int i = 1; i <= 40; ++i) {
    e.cpu_ms.push_back(i);
    e.busiest_ms.push_back(i / 2.0);
    e.wall_ms.push_back(i / 3.0);
    e.peak_rss_mib.push_back(100 + i);
  }
  e.tail_samples = 40;
  pb::Result r;
  pb::report(r, e);
  bool all = true;
  for (const char* name : {"setup_s", "cpu_ms_p50", "cpu_ms_tail",
                           "busiest_thread_ms_p50", "peak_rss_mib"})
    all = all && r.has_metric(name);
  expect(all, "report: prints every end-to-end metric by name");
}

}  // namespace

int main() {
  test_inputs_are_seeded();
  test_checks_catch_defects();
  test_cpu_clocks();
  test_report_names();
  test_trace_residuals();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}

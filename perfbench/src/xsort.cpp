#include "xsort.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <string>

#include "check.hpp"
#include "core/merge_sort.hpp"
#include "extmem/block_device.hpp"
#include "extmem/run_file.hpp"
#include "pipeline/manifest.hpp"
#include "pipeline/pipeline.hpp"
#include "util/threading.hpp"

namespace pb {

namespace {

constexpr int kSetups = 3;
/// Operations a 30-second run is designed to reach; fixes the `*_tail`
/// percentile.
constexpr std::size_t kTailSamples = 25;
constexpr int kFormReps = 20;
constexpr int kBlockIoReps = 200;
constexpr int kManifestReps = 50;

/// The pool (caller plus nproc-2 workers) and the `mpsort xsort` defaults.
struct State {
  std::vector<std::int32_t> input;
  std::unique_ptr<mp::ThreadPool> pool;
  mp::pipeline::PipelineConfig cfg;
  unsigned lanes = 1;
};

struct Op {
  double ms = 0;
  double cpu_ms = 0;
  double busiest_ms = 0;
  mp::pipeline::PipelineReport report;
  mp::extmem::DeviceStats stats;
  mp::pipeline::Manifest manifest;
  std::vector<std::int32_t> output;
  std::string error;  ///< non-empty when the pipeline threw
};

/// One operation: a fresh device holding the input, then the timed
/// start().run(), then the output read back (untimed).
Op run_op(const State& s) {
  Op op;
  try {
    mp::extmem::BlockDevice device;  // realize_scale 0: no modelled sleeps
    mp::extmem::RunWriter<std::int32_t> writer(device);
    writer.append(s.input.data(), s.input.size());
    const mp::extmem::RunHandle input = writer.finish();
    device.reset_stats();

    const ThreadCpu threads;
    const double c = cpu_s();
    const double t = now_s();
    auto pipe = mp::pipeline::Pipeline<std::int32_t>::start(device, input,
                                                            s.cfg);
    op.report = pipe.run();
    op.ms = (now_s() - t) * 1e3;
    op.cpu_ms = (cpu_s() - c) * 1e3;
    op.busiest_ms = threads.busiest_ms();

    op.stats = device.stats();
    op.manifest = pipe.manifest();
    mp::extmem::RunReader<std::int32_t> reader(device, op.report.output);
    op.output.reserve(s.input.size());
    while (!reader.empty()) op.output.push_back(reader.next());
  } catch (const std::exception& e) {
    op.error = std::string("xsort threw: ") + e.what();
  }
  return op;
}

std::unique_ptr<State> set_up(std::uint64_t seed, unsigned host_cpus) {
  auto s = std::make_unique<State>();
  s->input = make_xsort_input(seed);
  s->lanes = host_cpus > 1 ? host_cpus - 1 : 1;
  s->pool = std::make_unique<mp::ThreadPool>(static_cast<int>(s->lanes) - 1);
  s->cfg.exec = mp::Executor{s->pool.get(), s->lanes};
  run_op(*s);
  return s;
}

void check_op(Result& result, const Op& op,
              const std::vector<std::int32_t>& ref) {
  result.attempt();
  if (!op.error.empty()) {
    result.fail(op.error);
  } else if (op.output.size() != ref.size()) {
    result.fail("xsort output has " + std::to_string(op.output.size()) +
                " elements, want " + std::to_string(ref.size()));
  } else if (std::string e = compare_bytes(op.output.data(), ref.data(),
                                           ref.size(), "xsort");
             !e.empty()) {
    result.fail(e);
  }
}

/// Exact work counts of one operation; they must repeat on every run.
struct Counts {
  std::uint64_t runs_formed, checkpoints, reads, writes, net_bytes;
  bool operator==(const Counts&) const = default;
};
Counts counts_of(const Op& op) {
  return Counts{op.report.runs_formed, op.report.checkpoints,
                op.stats.block_reads, op.stats.block_writes,
                op.report.net.bytes};
}

}  // namespace

std::vector<std::int32_t> make_xsort_input(std::uint64_t seed, std::size_t n) {
  Rng rng = stream(seed, 300);
  std::vector<std::int32_t> v(n);
  for (auto& x : v) x = static_cast<std::int32_t>(rng.next() >> 32);
  return v;
}

void run_xsort(const Args& args, Result& result) {
  const unsigned cpus = nproc();
  EndToEnd e2e;
  std::unique_ptr<State> s;
  // A traced run reports no set-up time and sets up once.
  for (int k = 0; k < (args.trace ? 1 : kSetups); ++k) {
    s.reset();
    s = timed_setup(e2e, [&] { return set_up(args.seed, cpus); });
  }
  result.meta("lanes", s->lanes);
  std::vector<std::int32_t> ref = s->input;
  std::sort(ref.begin(), ref.end());

  const StealMeter steal;
  unsigned max_threads = thread_count();
  const double deadline = now_s() + args.seconds;
  std::vector<double>& ms = e2e.wall_ms;
  std::vector<double> form_ms, io_us, manifest_us;
  Op first;
  bool have_first = false;
  while (now_s() < deadline) {
    reset_peak_rss();
    Op op = run_op(*s);
    e2e.peak_rss_mib.push_back(peak_rss_mib());
    check_op(result, op, ref);
    max_threads = std::max(max_threads, thread_count());
    if (!op.error.empty()) continue;
    ms.push_back(op.ms);
    e2e.cpu_ms.push_back(op.cpu_ms);
    e2e.busiest_ms.push_back(op.busiest_ms);
    if (!have_first) {
      first = std::move(op);
      first.output = {};  // only its counts and manifest are kept
      have_first = true;
    } else if (!(counts_of(op) == counts_of(first))) {
      result.fail("xsort work counts differ between operations");
    }
    if (!args.trace) continue;

    // Layer costs, each timed on its own right after the operation.
    std::vector<std::int32_t> run(s->input.begin(),
                                  s->input.begin() + s->cfg.memory_elems);
    std::vector<double> f;
    for (int r = 0; r < kFormReps; ++r) {
      std::copy(s->input.begin(), s->input.begin() + run.size(), run.begin());
      const double t = now_s();
      mp::parallel_merge_sort(run.data(), run.size(), s->cfg.exec);
      f.push_back((now_s() - t) * 1e3);
    }
    result.attempt();
    if (!std::is_sorted(run.begin(), run.end()))
      result.fail("run formation sort not sorted");
    form_ms.push_back(median(f));

    mp::extmem::BlockDevice device;
    const std::uint32_t bytes = device.config().block_bytes;
    std::vector<unsigned char> block(bytes, 0x5A), back(bytes);
    const std::uint64_t b = device.allocate(1);
    const double t_io = now_s();
    for (int r = 0; r < kBlockIoReps; ++r) {
      device.write_block(b, block.data(), bytes);
      device.read_block(b, back.data(), bytes);
    }
    // One write plus one read is two transfers.
    io_us.push_back((now_s() - t_io) * 1e6 / (2.0 * kBlockIoReps));

    mp::extmem::BlockDevice mdev;
    auto store = mp::pipeline::ManifestStore::create(
        mdev, mp::pipeline::worst_case_manifest_bytes(
                  s->cfg.shards, s->input.size(), s->cfg.memory_elems));
    mp::pipeline::Manifest m = first.manifest;
    const double t_m = now_s();
    for (int r = 0; r < kManifestReps; ++r) store.write(m);
    manifest_us.push_back((now_s() - t_m) * 1e6 / kManifestReps);
  }
  result.meta("max_threads", max_threads);
  result.meta("host_steal_frac", steal.steal_frac());
  if (!args.trace) {
    e2e.tail_samples = kTailSamples;
    report(result, e2e);
    return;
  }
  if (!have_first) return;
  result.meta("samples", static_cast<double>(ms.size()));
  const Counts c = counts_of(first);
  const double form = median(form_ms) * static_cast<double>(c.runs_formed);
  const double io =
      median(io_us) * static_cast<double>(c.reads + c.writes) * 1e-3;
  const double manifest =
      median(manifest_us) * static_cast<double>(c.checkpoints) * 1e-3;
  result.metric("pipeline.runs_formed", static_cast<double>(c.runs_formed),
                "count");
  result.metric("pipeline.checkpoints", static_cast<double>(c.checkpoints),
                "count");
  result.metric("extmem.block_reads", static_cast<double>(c.reads), "count");
  result.metric("extmem.block_writes", static_cast<double>(c.writes), "count");
  // Bytes written over input bytes; every write moves one whole block.
  result.metric("extmem.write_amp",
                static_cast<double>(c.writes) *
                    mp::extmem::DeviceConfig{}.block_bytes /
                    (static_cast<double>(s->input.size()) *
                     sizeof(std::int32_t)),
                "ratio");
  result.metric("dist.net_bytes", static_cast<double>(c.net_bytes), "B");
  result.metric("pipeline.form_ms", form, "ms");
  result.metric("extmem.block_io_us", io * 1e3, "us");
  result.metric("pipeline.manifest_write_us", manifest * 1e3, "us");
  result.metric("pipeline.residual_ms", median(ms) - form - io - manifest,
                "ms");
}

}  // namespace pb

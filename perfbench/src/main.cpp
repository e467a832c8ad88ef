// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload inmem-64mib|serve-small|xsort-4m --seed N
//             --seconds S --trace 0|1
//
// Prints a metadata line and then, as the last line, the result object
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics of the workload; --trace 1 reports the per-layer split
// of every module instead. See perfbench/README.md.

#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"
#include "inmem.hpp"
#include "kernels/kernels.hpp"
#include "serve_small.hpp"
#include "xsort.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using Runner = void (*)(const pb::Args&, pb::Result&);

void run_inmem_default(const pb::Args& args, pb::Result& result) {
  pb::run_inmem(args, result);
}

struct Workload {
  const char* name;
  Runner run;
};
constexpr Workload kWorkloads[] = {
    {"inmem-64mib", run_inmem_default},
    {"serve-small", pb::run_serve_small},
    {"xsort-4m", pb::run_xsort},
};

/// Runs `w`, counting an escaped exception as a failed operation.
void run_guarded(const Workload& w, const pb::Args& args, pb::Result& result) {
  try {
    w.run(args, result);
  } catch (const std::exception& e) {
    result.attempt();
    result.fail(std::string("uncaught: ") + e.what());
  }
}

}  // namespace

int main(int argc, char** argv) {
  pb::Args args;
  try {
    args = pb::parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what()
              << "\nusage: perfbench --workload inmem-64mib|serve-small|"
                 "xsort-4m --seed N --seconds S --trace 0|1\n";
    return 2;
  }
  const Workload* named = nullptr;
  for (const Workload& w : kWorkloads)
    if (args.workload == w.name) named = &w;
  if (named == nullptr) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  pb::Result result;
  result.meta("workload", pb::json_string(args.workload));
  result.meta("seed", std::to_string(args.seed));
  result.meta("trace", args.trace ? "true" : "false");
  result.meta("nproc", pb::nproc());
  result.meta("kernel", pb::json_string(mp::kernels::kernel_banner()));
  result.meta("build_type", pb::json_string(PERFBENCH_BUILD_TYPE));
  if (!args.trace) {
    run_guarded(*named, args, result);
  } else {
    // Every traced run reports the layer rows of every module: the named
    // workload's own layers get half of the time, each other workload a
    // quarter. A row two workloads both measure (threading.forkjoin_us)
    // is the named workload's.
    pb::Args own = args;
    own.seconds = args.seconds / 2;
    run_guarded(*named, own, result);
    for (const Workload& w : kWorkloads) {
      if (&w == named) continue;
      pb::Args other = args;
      other.workload = w.name;
      other.seconds = args.seconds / 4;
      pb::Result part;
      run_guarded(w, other, part);
      result.absorb(part, std::string(w.name) + ".");
    }
  }
  result.print();
  return 0;
}

#!/usr/bin/env python3
"""Runs the bench_micro kernel ablation and emits BENCH_5.json.

Usage:
    bench_kernels.py [--bench PATH] [--out BENCH_5.json] [--repetitions N]
    bench_kernels.py --check [BENCH_5.json]

The run mode drives bench_micro's ablation families
(BM_KernelMerge32/64 and BM_SortRuns256) on the pinned inputs (uniform
32-bit keys, seed 42, m = n = 65536, plus the order-preserving 64-bit
widening — see bench/bench_micro.cpp) once per compiled+supported
kernel, then writes one JSON document:

    {
      "schema": "mergepath-kernel-bench-v3",
      "host_isa": "sse4.2+avx2+avx512",
      "input": {...pinned-generator description...},
      "kernels": {
        "scalar": {"key32_ns_per_element": ..., "key64_ns_per_element": ...,
                   "speedup32_vs_scalar": 1.0, "speedup64_vs_scalar": 1.0},
        "avx512": {...}
      },
      "sort_small": {
        "grain": 256,
        "insertion_ns_per_element": ...,
        "kernels": {"scalar": {...}, "avx512": {...,
                    "speedup_vs_insertion": ...}}
      }
    }

ns/element = 1e9 / items_per_second as reported by google-benchmark, so
the numbers regenerate with nothing but this script and the bench binary.
The seeded perf trajectory (ROADMAP): future PRs re-run this script and
diff the speedup columns.

--check validates the schema instead of running anything: the scalar
baseline must be present with speedups exactly 1.0, every kernel row must
carry positive timings, and any sse4/avx2/avx512 rows must not be slower
than scalar by more than 2x (a vector kernel that lost that badly means
the dispatch default is wrong). The sort_small block, when present, needs
a positive insertion baseline and positive per-kernel timings. Exit 0 on
success, 1 with a diagnostic.
"""

import argparse
import json
import os
import subprocess
import sys

SCHEMA = "mergepath-kernel-bench-v3"
KERNELS = ["scalar", "sse4", "avx2", "avx512"]
MERGE_FAMILIES = {
    "BM_KernelMerge32": "key32",
    "BM_KernelMerge64": "key64",
}
SORT_FAMILY = "BM_SortRuns256"
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BENCH = os.path.join(REPO_ROOT, "build", "bench", "bench_micro")
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_5.json")

# What bench_micro pins for the ablation families (kAblationN etc.);
# recorded in the artifact so a reader does not need the source to
# interpret it.
PINNED_INPUT = {
    "distribution": "uniform",
    "seed": 42,
    "elements_per_array": 65536,
    "key32": "int32 from the pinned generator",
    "key64": "int64 widening (key << 16) of the same keys",
    "sort_small": "64 Ki unsorted int32 (xoshiro, seed 42) sorted as "
                  "independent 256-key runs by sequential_merge_sort "
                  "(insertion = forced scalar kernel; timed memcpy "
                  "refreshes the bytes each iteration)",
}


def fail(message):
    print(f"bench_kernels: {message}", file=sys.stderr)
    sys.exit(1)


def run_bench(bench_path, repetitions):
    """Runs the ablation families once; returns (merge, sort) result maps."""
    if not os.path.exists(bench_path):
        fail(f"bench binary not found at {bench_path} (build first, or pass --bench)")
    families = "|".join(list(MERGE_FAMILIES) + [SORT_FAMILY])
    cmd = [
        bench_path,
        f"--benchmark_filter=^({families})/",
        "--benchmark_format=json",
        f"--benchmark_repetitions={repetitions}",
        "--benchmark_report_aggregates_only=true",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    doc = json.loads(proc.stdout)

    merge, sort_small = {}, {}
    for row in doc.get("benchmarks", []):
        # Aggregate rows are named BM_KernelMerge32/<kernel>_mean etc.;
        # take the mean (with repetitions=1 the raw row is the only row).
        name = row["name"]
        if repetitions > 1 and row.get("aggregate_name") != "mean":
            continue
        base = name.removesuffix("_mean")
        try:
            family, kernel = base.split("/", 1)
        except ValueError:
            continue
        ips = row.get("items_per_second")
        if family in MERGE_FAMILIES or family == SORT_FAMILY:
            if not ips or ips <= 0:
                fail(f"{name}: missing items_per_second")
        if family in MERGE_FAMILIES:
            merge.setdefault(kernel, {})[MERGE_FAMILIES[family]] = 1e9 / ips
        elif family == SORT_FAMILY:
            sort_small[kernel] = 1e9 / ips
    if "scalar" not in merge:
        fail("no scalar baseline in benchmark output (wrong filter or binary?)")
    if "insertion" not in sort_small:
        fail(f"no insertion baseline in {SORT_FAMILY} output")
    return merge, sort_small


def host_isa(bench_path):
    """The 'isa ...' part of the bench_micro banner line."""
    proc = subprocess.run(
        [bench_path, "--kernel", "scalar", "--benchmark_filter=NothingMatches"],
        capture_output=True,
        text=True,
    )
    banner = (proc.stderr or "").splitlines()
    for line in banner:
        if "(isa " in line:
            return line.split("(isa ", 1)[1].split(")", 1)[0]
    return "unknown"


def write_artifact(out_path, isa, merge, sort_small):
    scalar = merge["scalar"]
    kernels = {}
    for kernel in KERNELS:
        if kernel not in merge:
            continue  # not compiled in / not supported on this host
        row = merge[kernel]
        entry = {}
        for bits in MERGE_FAMILIES.values():
            entry[f"{bits}_ns_per_element"] = round(row[bits], 4)
        entry["speedup32_vs_scalar"] = round(scalar["key32"] / row["key32"], 3)
        entry["speedup64_vs_scalar"] = round(scalar["key64"] / row["key64"], 3)
        kernels[kernel] = entry
    insertion = sort_small["insertion"]
    sort_doc = {
        "grain": 256,
        "insertion_ns_per_element": round(insertion, 4),
        "kernels": {
            kernel: {
                "ns_per_element": round(ns, 4),
                "speedup_vs_insertion": round(insertion / ns, 3),
            }
            for kernel, ns in sort_small.items()
            if kernel != "insertion"
        },
    }
    doc = {
        "schema": SCHEMA,
        "host_isa": isa,
        "input": PINNED_INPUT,
        "kernels": kernels,
        "sort_small": sort_doc,
    }
    with open(out_path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    return doc


def check(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        fail(f"{path}: {err}")
    if doc.get("schema") != SCHEMA:
        fail(f"{path}: schema is {doc.get('schema')!r}, want {SCHEMA!r}")
    if not doc.get("host_isa"):
        fail(f"{path}: missing host_isa")
    kernels = doc.get("kernels")
    if not isinstance(kernels, dict) or "scalar" not in kernels:
        fail(f"{path}: kernels must be an object with a scalar baseline")
    timing_keys = [f"{bits}_ns_per_element" for bits in MERGE_FAMILIES.values()]
    speedup_keys = ["speedup32_vs_scalar", "speedup64_vs_scalar"]
    for name, row in kernels.items():
        if name not in KERNELS:
            fail(f"{path}: unknown kernel {name!r}")
        for key in timing_keys + speedup_keys:
            value = row.get(key)
            if not isinstance(value, (int, float)) or value <= 0:
                fail(f"{path}: kernels.{name}.{key} must be > 0, got {value!r}")
    for key in speedup_keys:
        if kernels["scalar"][key] != 1.0:
            fail(f"{path}: scalar {key} must be exactly 1.0")
    for name in ("sse4", "avx2", "avx512"):
        if name in kernels and kernels[name]["speedup32_vs_scalar"] < 0.5:
            fail(f"{path}: {name} is >2x slower than scalar — dispatch default is wrong")
    sort_small = doc.get("sort_small")
    if sort_small is not None:
        insertion = sort_small.get("insertion_ns_per_element")
        if not isinstance(insertion, (int, float)) or insertion <= 0:
            fail(f"{path}: sort_small.insertion_ns_per_element must be > 0")
        rows = sort_small.get("kernels")
        if not isinstance(rows, dict) or not rows:
            fail(f"{path}: sort_small.kernels must be a non-empty object")
        for name, row in rows.items():
            if name not in KERNELS:
                fail(f"{path}: unknown sort_small kernel {name!r}")
            for key in ("ns_per_element", "speedup_vs_insertion"):
                value = row.get(key)
                if not isinstance(value, (int, float)) or value <= 0:
                    fail(f"{path}: sort_small.kernels.{name}.{key} must be > 0")
    print(f"{path}: ok ({', '.join(sorted(kernels))}; isa {doc['host_isa']})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", default=DEFAULT_BENCH,
                        help="path to the bench_micro binary")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="where to write the artifact")
    parser.add_argument("--repetitions", type=int, default=3,
                        help="benchmark repetitions to average over")
    parser.add_argument("--check", nargs="?", const=DEFAULT_OUT, default=None,
                        metavar="BENCH_5.json",
                        help="validate an existing artifact instead of running")
    args = parser.parse_args()

    if args.check is not None:
        check(args.check)
        return

    merge, sort_small = run_bench(args.bench, args.repetitions)
    doc = write_artifact(args.out, host_isa(args.bench), merge, sort_small)
    print(f"wrote {args.out}")
    for name, row in doc["kernels"].items():
        print(
            f"  {name:10s} {row['key32_ns_per_element']:8.3f} ns/elem (32-bit, "
            f"{row['speedup32_vs_scalar']:.2f}x)  "
            f"{row['key64_ns_per_element']:8.3f} ns/elem (64-bit, "
            f"{row['speedup64_vs_scalar']:.2f}x)"
        )
    sort_doc = doc["sort_small"]
    print(f"  sort_small grain={sort_doc['grain']} insertion "
          f"{sort_doc['insertion_ns_per_element']:.3f} ns/elem")
    for name, row in sort_doc["kernels"].items():
        print(
            f"    {name:10s} {row['ns_per_element']:8.3f} ns/elem "
            f"({row['speedup_vs_insertion']:.2f}x vs insertion)"
        )


if __name__ == "__main__":
    main()

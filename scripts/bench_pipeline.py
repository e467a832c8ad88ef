#!/usr/bin/env python3
"""Runs the E18 pipeline bench and emits BENCH_9.json.

Usage:
    bench_pipeline.py [--bench PATH] [--out BENCH_9.json] [--full]
                      [extra bench flags...]
    bench_pipeline.py --check [BENCH_9.json]

The run mode drives `bench_pipeline --json <out>` (the harness itself
writes the artifact after verifying every mode's output against
std::sort) and echoes the summary lines. The artifact records two modes
of the identical sharded external sort — checkpointed ("serial": all I/O
on the calling thread, as the pipeline runs) and without intermediate
checkpoints — each run `repeats` times, alternating; a mode's wall_ms is
the median of its wall_ms_runs. The derived headline number is

    checkpoint_overhead_pct  (serial - no-checkpoint) / no-checkpoint

--check validates the schema instead of running anything: both modes
must be present with positive wall times, both must do the same work
(reads, steps, runs, segments, ranks), the no-checkpoint run must write
fewer blocks and record exactly 1 checkpoint (the final completion
manifest), and the derived number must be consistent with the per-mode
wall times.
Read amplification is bounded: apart from the exchange's co-rank probes
(probe_reads), every mode reads at most the blocks each unit's windows
cover, once, plus one block straddling the unit boundary per input run
(see data_read_bound). Exit 0 on success, 1 with a diagnostic.
"""

import argparse
import json
import os
import subprocess
import sys

SCHEMA = "mergepath-bench-pipeline-v2"
MODES = ["serial", "no-checkpoint"]
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BENCH = os.path.join(REPO_ROOT, "build", "bench", "bench_pipeline")
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_9.json")


def fail(message):
    print(f"bench_pipeline: {message}", file=sys.stderr)
    sys.exit(1)


def run_bench(bench_path, out_path, extra):
    if not os.path.exists(bench_path):
        fail(f"bench binary not found at {bench_path} (build first, or pass --bench)")
    cmd = [bench_path, "--json", out_path] + extra
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    sys.stdout.write(proc.stdout)


def data_read_bound(doc):
    """Most non-probe block reads a clean run may issue, from the geometry.

    Shards, formed runs and merge segments are cut exactly as the pipeline
    cuts them. Every unit reads each block its windows cover at most once,
    plus one block straddling the unit boundary per input run: a formed
    run reads its input window; a merge segment reads its shard's runs; an
    exchange rank reads every shard's sorted run.
    """
    n, shards, memory = doc["n"], doc["shards"], doc["memory_elems"]
    epb = doc["block_bytes"] // doc["elem_bytes"]
    segment = doc["segment_blocks"] * epb

    def covered(first, count):
        return (first + count - 1) // epb - first // epb + 1 if count else 0

    bound = 0
    sizes = []
    for s in range(shards):
        lo = s * n // shards
        size = (s + 1) * n // shards - lo
        sizes.append(size)
        runs = [(f, min(memory, size - f)) for f in range(0, size, memory)]
        bound += sum(covered(lo + f, count) for f, count in runs)
        if len(runs) > 1:  # a single run is aliased, not merged
            segments = -(-size // segment)
            bound += sum(covered(0, count) for _, count in runs)
            bound += segments * len(runs)
    bound += sum(covered(0, size) for size in sizes) + shards * shards
    return bound


def check(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        fail(f"{path}: {err}")
    if doc.get("schema") != SCHEMA:
        fail(f"{path}: schema is {doc.get('schema')!r}, want {SCHEMA!r}")
    for key in ("host", "n", "shards", "memory_elems", "segment_blocks",
                "block_bytes", "elem_bytes"):
        if not doc.get(key):
            fail(f"{path}: missing {key}")
    if not (isinstance(doc.get("realize_scale"), (int, float))
            and doc["realize_scale"] > 0):
        fail(f"{path}: realize_scale must be > 0 (else the wall times "
             "carry no I/O)")

    modes = {m.get("mode"): m for m in doc.get("modes", [])}
    if sorted(modes) != sorted(MODES):
        fail(f"{path}: modes must be exactly {MODES}, got {sorted(modes)}")
    for name, row in modes.items():
        for key in ("wall_ms", "modeled_io_us", "block_reads", "block_writes",
                    "steps", "runs_formed", "segments_merged",
                    "ranks_exchanged"):
            value = row.get(key)
            if not isinstance(value, (int, float)) or value <= 0:
                fail(f"{path}: modes.{name}.{key} must be > 0, got {value!r}")

    serial, nockpt = (modes[m] for m in MODES)
    # Checkpoints write manifests; they never change what the units read.
    for key in ("block_reads", "probe_reads", "steps", "runs_formed",
                "segments_merged", "ranks_exchanged"):
        if serial.get(key) != nockpt.get(key):
            fail(f"{path}: serial vs no-checkpoint disagree on {key} "
                 f"({serial.get(key)} vs {nockpt.get(key)})")
    # Read amplification: each unit reads each block it needs once, plus
    # one straddling block per input run; only the probes come on top.
    bound = data_read_bound(doc)
    for name, row in modes.items():
        probes = row.get("probe_reads")
        if not isinstance(probes, int) or not 0 <= probes <= row["block_reads"]:
            fail(f"{path}: modes.{name}.probe_reads must be in "
                 f"[0, block_reads], got {probes!r}")
        if row["block_reads"] - probes > bound:
            fail(f"{path}: modes.{name} read {row['block_reads'] - probes} "
                 f"blocks besides probes, more than the {bound} its units "
                 "need (each block once plus one straddling block per run)")
    # checkpoints=false still writes the final completion manifest.
    if nockpt.get("checkpoints") != 1:
        fail(f"{path}: no-checkpoint run must record exactly 1 checkpoint, "
             f"got {nockpt.get('checkpoints')!r}")
    if serial["checkpoints"] <= 1:
        fail(f"{path}: checkpointed run recorded no intermediate checkpoints")
    if nockpt["block_writes"] >= serial["block_writes"]:
        fail(f"{path}: no-checkpoint run must write fewer blocks "
             f"({nockpt['block_writes']} vs {serial['block_writes']})")

    overhead = doc.get("checkpoint_overhead_pct")
    if not isinstance(overhead, (int, float)):
        fail(f"{path}: checkpoint_overhead_pct missing")
    want = (serial["wall_ms"] - nockpt["wall_ms"]) / nockpt["wall_ms"] * 100
    if abs(overhead - want) > 0.5:
        fail(f"{path}: checkpoint_overhead_pct {overhead} inconsistent with "
             f"wall times (want {want:.2f})")
    print(f"{path}: ok (checkpoint overhead {overhead:.1f}%)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", default=DEFAULT_BENCH,
                        help="path to the bench_pipeline binary")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="where to write the artifact")
    parser.add_argument("--full", action="store_true",
                        help="paper-scale sizes (slower)")
    parser.add_argument("--check", nargs="?", const=DEFAULT_OUT, default=None,
                        metavar="BENCH_9.json",
                        help="validate an existing artifact instead of running")
    args, extra = parser.parse_known_args()

    if args.check is not None:
        check(args.check)
        return

    if args.full:
        extra = ["--full"] + extra
    run_bench(args.bench, args.out, extra)
    check(args.out)


if __name__ == "__main__":
    main()

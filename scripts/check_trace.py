#!/usr/bin/env python3
"""Validates the observability artifacts the library emits.

Usage:
    check_trace.py TRACE.json [--metrics METRICS.json ...] [--min-events N]
                   [--require-known-names] [--min-span-depth N]
                   [--flight] [--require-span-stats]
                   [--traceprof PROF.json ...]

TRACE.json is a Chrome/Perfetto trace_event file written by
`mpsort --trace`, a bench harness's `--trace` flag, or (with --flight) a
flight-recorder snapshot from `--flight-dump` / MP_FLIGHT_DUMP; each
--metrics argument is a metrics report written by `--metrics-json` /
`--lane-metrics`; each --traceprof argument is a `traceprof --json`
report. Checks (schema reference: docs/OBSERVABILITY.md):

  trace:   parses as JSON; has traceEvents; every event carries the
           required keys for its phase; timestamps are non-negative and
           sorted; per-thread "X" spans nest properly (no partial overlap,
           which would indicate a corrupted snapshot); otherData.clock
           names the timestamp source that stamped the file.
  flight:  with --flight, the trace must declare itself a flight-recorder
           snapshot (otherData.flight_recorder true) and carry the
           degradation reason key.
  metrics: schema tag mergepath-lane-metrics-v2; every lane row carries
           its index, run count and lane time (op counts are the PRAM
           model's, not the report's); the lane_time summary is present and
           self-consistent (max >= min, imbalance >= 1 when any lane
           recorded time). When span_stats is present each row's
           percentiles must be ordered (p50 <= p95 <= p99 <= max) and
           consistent with count/sum; --require-span-stats makes a
           missing or empty span_stats section a failure.
  profile: each --traceprof report must carry the
           mergepath-traceprof-v1 schema, a positive wall-clock, a
           non-empty critical path whose attributed time does not exceed
           the total, and per-thread rows (busy = time in pool.lane
           spans) whose busy/idle split is self-consistent.
  names:   with --require-known-names, every non-metadata event name must
           belong to the library's span taxonomy below, so a renamed or
           typo'd span fails CI instead of silently vanishing from
           dashboards.

Exit status 0 on success, 1 with a diagnostic on the first failure.
"""

import argparse
import json
import sys


# Every span/instant/counter name the library emits (docs/OBSERVABILITY.md).
# Grouped by subsystem; extend this set in the same change that adds a span.
KNOWN_NAMES = {
    # thread pool (incl. the lane-fault recovery surface)
    "pool.checkout", "pool.lane", "pool.job", "pool.barrier",
    "pool.recover", "pool.lane_fault", "pool.hedge", "pool.fallback",
    # two-array merge (core)
    "merge", "merge.partition", "merge.segment",
    # flight recorder: instant marking the moment recovery degraded
    "flight.degraded",
    # segmented (cache-aware) merge
    "spm", "spm.fetch", "spm.segment", "spm.segment_len", "spm.flush",
    # multiway merge
    "mwm", "mwm.select", "mwm.merge",
    # in-memory merge sort; sort.runs / sort.chunks / sort.pass are the
    # layers of one sequential_merge_sort call
    "sort", "sort.round", "sort.round_slice", "sort.partition",
    "sort.block", "sort.copyback", "sort.round_index",
    "sort.runs", "sort.chunks", "sort.pass",
    # streaming merger
    "stream.pull", "stream.push",
    # external-memory run files (extmem): one retried block transfer
    "xsort.retry",
    # distributed merge (dist)
    "dist.exchange", "dist.tree", "dist.gather",
    "dist.segment_retry",
    # SIMT cost-model kernels (simt)
    "simt.direct", "simt.staged", "simt.sort", "simt.tile",
    "simt.blocksort", "simt.round",
    # serving layer (serve): serve.batch wraps each dispatched batch;
    # serve.reject / serve.shed / serve.merge_fallback are instants;
    # serve.request / serve.queue_wait / serve.service are
    # record_span_duration percentile names surfaced via --metrics-json
    # span_stats (listed here so the taxonomy stays one set).
    "serve.batch", "serve.request", "serve.queue_wait", "serve.service",
    "serve.reject", "serve.shed", "serve.merge_fallback",
    # crash-consistent pipeline (pipeline): pipe.sort wraps the whole
    # drive; pipe.form / pipe.segment / pipe.exchange / pipe.select /
    # pipe.checkpoint are phase and unit spans; pipe.crash /
    # pipe.resume / pipe.retry are instants; pipe.runs_formed /
    # pipe.segments_merged / pipe.ranks_exchanged / pipe.checkpoints /
    # pipe.crashes / pipe.resumes / pipe.probe_reads are counters.
    "pipe.sort", "pipe.form", "pipe.segment", "pipe.exchange",
    "pipe.select", "pipe.checkpoint",
    "pipe.crash", "pipe.resume", "pipe.retry",
    "pipe.runs_formed", "pipe.segments_merged", "pipe.ranks_exchanged",
    "pipe.checkpoints", "pipe.crashes", "pipe.resumes", "pipe.probe_reads",
}


def fail(msg: str) -> None:
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_trace(path: str, min_events: int,
                require_known_names: bool = False,
                min_span_depth: int = 0,
                flight: bool = False) -> None:
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: not readable as JSON: {e}")

    if "traceEvents" not in doc:
        fail(f"{path}: missing traceEvents")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        fail(f"{path}: traceEvents is not a list")

    other = doc.get("otherData", {})
    clock = other.get("clock")
    if not isinstance(clock, dict) or clock.get("source") not in ("tsc",
                                                                  "steady"):
        fail(f"{path}: otherData.clock missing or invalid: {clock!r}")
    if flight:
        if other.get("flight_recorder") is not True:
            fail(f"{path}: expected a flight-recorder snapshot but "
                 f"otherData.flight_recorder is {other.get('flight_recorder')!r}")
        if "reason" not in other:
            fail(f"{path}: flight snapshot missing the degradation reason")

    required = {
        "X": {"name", "ph", "ts", "dur", "pid", "tid"},
        "C": {"name", "ph", "ts", "pid", "args"},
        "i": {"name", "ph", "ts", "pid", "tid"},
        "M": {"name", "ph", "pid"},
    }
    payload = [e for e in events if e.get("ph") != "M"]
    if len(payload) < min_events:
        fail(f"{path}: {len(payload)} non-metadata events, "
             f"expected at least {min_events}")

    last_ts = {}
    spans_by_tid = {}
    for k, e in enumerate(events):
        ph = e.get("ph")
        if ph not in required:
            fail(f"{path}: event {k} has unknown phase {ph!r}")
        missing = required[ph] - set(e)
        if missing:
            fail(f"{path}: event {k} ({ph}) missing keys {sorted(missing)}")
        if ph == "M":
            continue
        ts = e["ts"]
        if ts < 0:
            fail(f"{path}: event {k} has negative ts {ts}")
        tid = e.get("tid", 0)
        if ts < last_ts.get(tid, 0):
            fail(f"{path}: event {k} breaks per-thread ts order "
                 f"({ts} after {last_ts[tid]} on tid {tid})")
        last_ts[tid] = ts
        if ph == "X":
            if e["dur"] < 0:
                fail(f"{path}: span {k} has negative dur")
            spans_by_tid.setdefault(tid, []).append((ts, ts + e["dur"],
                                                     e["name"]))

    # Spans on one thread must nest: a span starting inside another must
    # also end inside it. The exporter sorts ties parent-first, so a simple
    # stack sweep suffices. The same sweep measures the deepest nesting
    # (for --min-span-depth: a trace of a fork-join run must show spans
    # inside spans, or the pool instrumentation regressed).
    max_depth = 0
    for tid, spans in spans_by_tid.items():
        stack = []
        for begin, end, name in spans:
            while stack and begin >= stack[-1][1]:
                stack.pop()
            if stack and end > stack[-1][1] + 1e-9:
                fail(f"{path}: span {name!r} [{begin}, {end}) on tid {tid} "
                     f"partially overlaps {stack[-1][2]!r} "
                     f"[{stack[-1][0]}, {stack[-1][1]})")
            stack.append((begin, end, name))
            max_depth = max(max_depth, len(stack))
    if min_span_depth > 0 and max_depth < min_span_depth:
        fail(f"{path}: deepest span nesting is {max_depth}, expected at "
             f"least {min_span_depth} (nested fork-join spans missing?)")

    names = sorted({e["name"] for e in payload})
    if require_known_names:
        unknown = [n for n in names if n not in KNOWN_NAMES]
        if unknown:
            fail(f"{path}: event name(s) outside the span taxonomy: "
                 f"{', '.join(unknown)} (update KNOWN_NAMES and "
                 f"docs/OBSERVABILITY.md together)")
    print(f"check_trace: {path}: OK "
          f"({len(payload)} events, {len(spans_by_tid)} thread(s), "
          f"span depth {max_depth}, "
          f"names: {', '.join(names[:12])}{'...' if len(names) > 12 else ''})")


def check_span_stats(path: str, doc: dict, required: bool) -> None:
    stats = doc.get("span_stats")
    if stats is None or not stats:
        if required:
            fail(f"{path}: span_stats missing or empty "
                 f"(--require-span-stats)")
        return
    for row in stats:
        for key in ("name", "count", "sum_ns", "p50_ns", "p95_ns",
                    "p99_ns", "max_ns"):
            if key not in row:
                fail(f"{path}: span_stats row missing {key!r}: {row}")
        if row["count"] <= 0:
            fail(f"{path}: span_stats row {row['name']!r} has count 0")
        if not (row["p50_ns"] <= row["p95_ns"] <= row["p99_ns"]
                <= row["max_ns"]):
            fail(f"{path}: span_stats row {row['name']!r} has unordered "
                 f"percentiles: {row}")
        if row["sum_ns"] < row["max_ns"]:
            fail(f"{path}: span_stats row {row['name']!r}: sum < max")
    print(f"check_trace: {path}: span_stats OK ({len(stats)} span name(s): "
          f"{', '.join(r['name'] for r in stats[:8])}"
          f"{'...' if len(stats) > 8 else ''})")


def check_metrics(path: str, require_span_stats: bool = False) -> None:
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: not readable as JSON: {e}")

    check_span_stats(path, doc, require_span_stats)
    report = doc.get("lane_report", doc)
    if report.get("schema") != "mergepath-lane-metrics-v2":
        fail(f"{path}: bad or missing schema tag: {report.get('schema')!r}")
    for key in ("jobs", "barrier", "lanes", "lane_time"):
        if key not in report:
            fail(f"{path}: lane_report missing {key!r}")
    for key in ("waits", "wait_ns", "checkouts", "checkout_ns"):
        if key not in report["barrier"]:
            fail(f"{path}: barrier section missing {key!r}")
    if not report["lanes"]:
        fail(f"{path}: no lanes recorded anything")
    for row in report["lanes"]:
        for key in ("lane", "runs", "lane_ns"):
            if key not in row:
                fail(f"{path}: lane row missing {key!r}: {row}")
    summary = report["lane_time"]
    for key in ("max_ns", "min_ns", "mean_ns", "imbalance"):
        if key not in summary:
            fail(f"{path}: lane_time missing {key!r}")
    if summary["max_ns"] < summary["min_ns"]:
        fail(f"{path}: lane_time max < min")
    timed = any(row["lane_ns"] > 0 for row in report["lanes"])
    if timed and summary["imbalance"] < 1.0:
        fail(f"{path}: imbalance {summary['imbalance']} < 1 with timed lanes")
    print(f"check_trace: {path}: OK ({len(report['lanes'])} lane(s), "
          f"imbalance {summary['imbalance']})")


def check_traceprof(path: str) -> None:
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: not readable as JSON: {e}")

    if doc.get("schema") != "mergepath-traceprof-v1":
        fail(f"{path}: bad or missing schema tag: {doc.get('schema')!r}")
    if doc.get("wall_ns", 0) <= 0:
        fail(f"{path}: wall_ns must be positive: {doc.get('wall_ns')!r}")
    if doc.get("clock") not in ("tsc", "steady", "unknown"):
        fail(f"{path}: bad clock source: {doc.get('clock')!r}")
    cp = doc.get("critical_path")
    if not isinstance(cp, dict) or "total_ns" not in cp:
        fail(f"{path}: critical_path section missing")
    entries = cp.get("entries", [])
    if not entries:
        fail(f"{path}: critical path is empty (no spans attributed)")
    attributed = 0
    for entry in entries:
        for key in ("name", "ns", "segments"):
            if key not in entry:
                fail(f"{path}: critical-path entry missing {key!r}: {entry}")
        attributed += entry["ns"]
    if attributed > cp["total_ns"]:
        fail(f"{path}: critical-path entries sum to {attributed} ns > "
             f"total {cp['total_ns']} ns")
    if cp["total_ns"] > doc["wall_ns"]:
        fail(f"{path}: critical path {cp['total_ns']} ns exceeds wall "
             f"{doc['wall_ns']} ns")
    workers = doc.get("workers", [])
    if not workers:
        fail(f"{path}: no per-worker rows")
    for worker in workers:
        for key in ("tid", "busy_ns", "idle_ns", "lanes"):
            if key not in worker:
                fail(f"{path}: worker row missing {key!r}: {worker}")
        if worker["busy_ns"] + worker["idle_ns"] > doc["wall_ns"] * 1.001 + 1:
            fail(f"{path}: worker {worker['tid']}: busy+idle exceeds wall")
    print(f"check_trace: {path}: OK (critical path "
          f"{cp['total_ns']} ns across {len(entries)} span name(s), "
          f"{len(workers)} worker(s))")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="Chrome trace_event JSON to validate")
    parser.add_argument("--metrics", action="append", default=[],
                        help="metrics JSON report(s) to validate")
    parser.add_argument("--min-events", type=int, default=1,
                        help="minimum non-metadata trace events")
    parser.add_argument("--require-known-names", action="store_true",
                        help="reject event names outside the span taxonomy")
    parser.add_argument("--min-span-depth", type=int, default=0,
                        help="minimum nesting depth the span tree must "
                             "reach (nested fork-join traces are > 1)")
    parser.add_argument("--flight", action="store_true",
                        help="require the trace to be a flight-recorder "
                             "snapshot (otherData.flight_recorder)")
    parser.add_argument("--require-span-stats", action="store_true",
                        help="fail if a --metrics report lacks span "
                             "percentiles")
    parser.add_argument("--traceprof", action="append", default=[],
                        help="traceprof --json report(s) to validate")
    args = parser.parse_args()
    check_trace(args.trace, args.min_events, args.require_known_names,
                args.min_span_depth, args.flight)
    for path in args.metrics:
        check_metrics(path, args.require_span_stats)
    for path in args.traceprof:
        check_traceprof(path)


if __name__ == "__main__":
    main()

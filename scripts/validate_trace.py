#!/usr/bin/env python3
"""Minimal schema check for grtx telemetry and profiler artifacts.

Usage:
  validate_trace.py <chrome-trace.json> <telemetry-report.json>
  validate_trace.py --profile <chrome-trace.json> <prof-report.json>

Default mode validates that the Chrome trace is loadable trace-event
JSON with per-thread name metadata and well-formed complete events, and
that the TelemetryReport JSON carries the v1 schema with the span/
counter/histogram sections the pipeline is expected to populate.

`--profile` mode validates grtx-prof artifacts instead: every trace
track must be a simulated SM (`sm-NN`) with monotone non-decreasing
virtual-clock timestamps, and the report must carry the grtx-prof-v1
schema with a complete per-(launch, SM) counter matrix (every cell
linked to a known launch, hit counts bounded by access counts, digest
and occupancy fields well-formed). Exits non-zero with a message on the
first violation.
"""

import json
import re
import sys


def fail(message: str) -> None:
    print(f"validate_trace: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def validate_trace(path: str) -> None:
    with open(path) as f:
        trace = json.load(f)
    if trace.get("displayTimeUnit") != "ms":
        fail("trace missing displayTimeUnit=ms")
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("trace has no traceEvents")
    threads = {}
    spans = 0
    for event in events:
        ph = event.get("ph")
        if ph == "M":
            if event.get("name") != "thread_name":
                fail(f"unexpected metadata event {event}")
            threads[event["tid"]] = event["args"]["name"]
        elif ph == "X":
            for key in ("pid", "tid", "name", "ts", "dur"):
                if key not in event:
                    fail(f"complete event missing {key}: {event}")
            if event["ts"] < 0 or event["dur"] < 0:
                fail(f"negative timestamp in {event}")
            spans += 1
        else:
            fail(f"unexpected event phase {ph!r}")
    if not threads:
        fail("trace names no threads")
    if spans == 0:
        fail("trace contains no spans")
    orphans = {e["tid"] for e in events if e["ph"] == "X"} - set(threads)
    if orphans:
        fail(f"span tids without thread_name metadata: {sorted(orphans)}")
    # Structural track checks, deliberately count-free: exact span counts
    # shift with workload and scheduler changes, so pinning them makes
    # the check brittle. What must hold is the track *shape* — uniquely
    # named tracks, at least one of them a worker pool.
    named = sorted(set(threads.values()))
    if len(named) != len(threads):
        dupes = sorted(
            name for name in set(threads.values())
            if sum(1 for v in threads.values() if v == name) > 1
        )
        fail(f"duplicate track names: {dupes}")
    if not any(re.fullmatch(r"[a-z]+(-[a-z]+)*-worker-\d{2}", name) for name in named):
        fail(f"no worker-pool track (expected some '*-worker-NN') among: {named}")
    print(f"validate_trace: trace OK — {spans} spans on {len(threads)} threads: {named}")


def validate_report(path: str) -> None:
    with open(path) as f:
        report = json.load(f)
    if report.get("schema") != "grtx-telemetry-v1":
        fail("report schema is not grtx-telemetry-v1")
    for section in ("spans", "counters", "histograms", "threads"):
        if not isinstance(report.get(section), list):
            fail(f"report missing list section {section!r}")
    for span in report["spans"]:
        for key in ("path", "count", "total_us", "max_us"):
            if key not in span:
                fail(f"span row missing {key}: {span}")
    for counter in report["counters"]:
        if "name" not in counter or "value" not in counter:
            fail(f"malformed counter row: {counter}")
    for hist in report["histograms"]:
        for key in ("name", "count", "p50", "p95", "p99", "max"):
            if key not in hist:
                fail(f"histogram row missing {key}: {hist}")
        if not hist["p50"] <= hist["p95"] <= hist["p99"] <= hist["max"]:
            fail(f"histogram percentiles out of order: {hist}")
    hist_names = {h["name"] for h in report["histograms"]}
    for expected in ("pipeline.frame_latency_us",):
        if expected not in hist_names:
            fail(f"report missing expected histogram {expected!r}")
    print(
        "validate_trace: report OK — "
        f"{len(report['spans'])} span paths, {len(report['counters'])} counters, "
        f"{len(report['histograms'])} histograms"
    )


def validate_profile_trace(path: str) -> None:
    """The profiler's Chrome trace: one track per simulated SM, virtual
    timestamps (cycles) monotone non-decreasing within each track."""
    with open(path) as f:
        trace = json.load(f)
    if trace.get("displayTimeUnit") != "ms":
        fail("profile trace missing displayTimeUnit=ms")
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("profile trace has no traceEvents")
    threads = {}
    spans = 0
    last_ts = {}
    for event in events:
        ph = event.get("ph")
        if ph == "M":
            if event.get("name") != "thread_name":
                fail(f"unexpected metadata event {event}")
            threads[event["tid"]] = event["args"]["name"]
        elif ph == "X":
            for key in ("pid", "tid", "name", "ts", "dur"):
                if key not in event:
                    fail(f"complete event missing {key}: {event}")
            if event["ts"] < 0 or event["dur"] < 0:
                fail(f"negative timestamp in {event}")
            if event["name"] not in ("launch", "warp"):
                fail(f"profile span must be 'launch' or 'warp': {event}")
            tid = event["tid"]
            if event["ts"] < last_ts.get(tid, 0):
                fail(
                    f"virtual clock ran backwards on tid {tid}: "
                    f"{event['ts']} after {last_ts[tid]}"
                )
            last_ts[tid] = event["ts"]
            spans += 1
        else:
            fail(f"unexpected event phase {ph!r}")
    if not threads:
        fail("profile trace names no tracks")
    if spans == 0:
        fail("profile trace contains no spans")
    bad = [name for name in threads.values() if not re.fullmatch(r"sm-\d{2}", name)]
    if bad:
        fail(f"profile tracks must be simulated SMs (sm-NN), got: {sorted(bad)}")
    orphans = {e["tid"] for e in events if e["ph"] == "X"} - set(threads)
    if orphans:
        fail(f"span tids without thread_name metadata: {sorted(orphans)}")
    named = sorted(set(threads.values()))
    print(f"validate_trace: profile trace OK — {spans} spans on {len(threads)} SM tracks: {named}")


# Every per-(launch, SM) matrix cell must carry the full counter set:
# the 19 SimStats fields plus the memory-system counters.
PROF_CELL_COUNTERS = (
    "busy_cycles",
    "warps",
    "node_fetches_total",
    "node_fetches_unique",
    "internal_fetches_total",
    "internal_fetches_unique",
    "fetch_latency_cycles",
    "box_tests",
    "triangle_tests",
    "sphere_tests",
    "ellipsoid_tests",
    "ray_transforms",
    "any_hit_invocations",
    "checkpoint_writes",
    "checkpoint_reads",
    "eviction_writes",
    "peak_checkpoint_entries",
    "peak_eviction_entries",
    "rounds",
    "rays",
    "blended_gaussians",
    "l1_accesses",
    "l1_hits",
    "l2_accesses",
    "l2_hits",
    "dram_accesses",
    "prefetch_installs",
)


def validate_profile_report(path: str) -> None:
    with open(path) as f:
        report = json.load(f)
    if report.get("schema") != "grtx-prof-v1":
        fail("report schema is not grtx-prof-v1")
    gpu = report.get("gpu")
    if not isinstance(gpu, dict):
        fail("profile report missing gpu description")
    for key in ("num_sms", "clock_mhz", "warp_size", "warp_buffer_size"):
        if key not in gpu:
            fail(f"gpu description missing {key}")
    launches = report.get("launches")
    matrix = report.get("matrix")
    if not isinstance(launches, list) or not launches:
        fail("profile report has no launches")
    if not isinstance(matrix, list) or not matrix:
        fail("profile report has no counter matrix")
    keys = [launch["key"] for launch in launches]
    if len(set(keys)) != len(keys):
        fail(f"duplicate launch keys: {keys}")
    cells_per_launch = {key: 0 for key in keys}
    seen_cells = set()
    for cell in matrix:
        for key in ("launch", "sm") + PROF_CELL_COUNTERS:
            if key not in cell:
                fail(f"matrix cell missing {key!r}: launch={cell.get('launch')} sm={cell.get('sm')}")
            if key in PROF_CELL_COUNTERS and cell[key] < 0:
                fail(f"negative counter {key} in cell {cell['launch']}/{cell['sm']}")
        if cell["launch"] not in cells_per_launch:
            fail(f"matrix cell references unknown launch {cell['launch']}")
        if not 0 <= cell["sm"] < gpu["num_sms"]:
            fail(f"matrix cell SM {cell['sm']} out of range for {gpu['num_sms']} SMs")
        if (cell["launch"], cell["sm"]) in seen_cells:
            fail(f"duplicate matrix cell ({cell['launch']}, {cell['sm']})")
        seen_cells.add((cell["launch"], cell["sm"]))
        if cell["l1_hits"] > cell["l1_accesses"] or cell["l2_hits"] > cell["l2_accesses"]:
            fail(f"cache hits exceed accesses in cell {cell['launch']}/{cell['sm']}")
        for digest in ("lane_occupancy", "divergence"):
            d = cell.get(digest)
            if not isinstance(d, dict) or not {"count", "mean", "p50", "p95", "max"} <= set(d):
                fail(f"malformed {digest} digest in cell {cell['launch']}/{cell['sm']}")
        for sample in cell.get("occupancy", []):
            if len(sample) != 4 or any(v < 0 for v in sample):
                fail(f"malformed occupancy sample {sample} in cell {cell['launch']}/{cell['sm']}")
        cells_per_launch[cell["launch"]] += 1
    empty = [key for key, count in cells_per_launch.items() if count == 0]
    if empty:
        fail(f"launches with no matrix cells: {empty}")
    print(
        "validate_trace: profile report OK — "
        f"{len(launches)} launches, {len(matrix)} matrix cells, "
        f"{gpu['num_sms']} SMs @ {gpu['clock_mhz']} MHz"
    )


def main() -> None:
    args = sys.argv[1:]
    if args and args[0] == "--profile":
        if len(args) != 3:
            fail("usage: validate_trace.py --profile <chrome-trace.json> <prof-report.json>")
        validate_profile_trace(args[1])
        validate_profile_report(args[2])
        return
    if len(args) != 2:
        fail("usage: validate_trace.py <chrome-trace.json> <telemetry-report.json>")
    validate_trace(args[0])
    validate_report(args[1])


if __name__ == "__main__":
    main()

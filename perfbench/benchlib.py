"""Helpers behind perfbench/run.py: percentiles and the tail rule,
span self times, the per-layer metrics derived from a traced replay,
the reference-table compare, and the metric name and unit grammar.

Everything here is pure Python on plain data, so
perfbench/test_benchlib.py can test it without building libpca.
"""

import math
import re

# Percentiles tried for a tail, highest first.
TAIL_LADDER = (99.99, 99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)
# A tail percentile needs at least this many samples above it.
TAIL_MIN_BEYOND = 10


def percentile(samples, pct):
    """Nearest-rank percentile of a non-empty sample list."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n):
    """The highest ladder percentile with at least TAIL_MIN_BEYOND of
    n samples strictly above its nearest rank, or 50 (the median)
    when n is too small for any tail."""
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= TAIL_MIN_BEYOND:
            return pct
    return 50.0


def timing_summary(samples):
    """Median, tail percentile and its value, and the sample count."""
    pct = tail_percentile(len(samples))
    return {
        "n": len(samples),
        "p50": percentile(samples, 50.0),
        "tail_pct": pct,
        "tail": percentile(samples, pct),
    }


def self_times_ns(spans):
    """Self time of each span: its duration minus the part of its
    interval covered by its children. Returns {span id: ns}."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start_ns"], s["end_ns"]
        covered = 0
        reach = lo
        kids = sorted(children.get(s["id"], ()),
                      key=lambda c: c["start_ns"])
        for c in kids:
            a, b = max(c["start_ns"], reach), min(c["end_ns"], hi)
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = (hi - lo) - covered
    return out


def replay_layers(spans, summary):
    """Per-layer numbers of one traced replay.

    spans: the replay's span records (id, parent, name, start_ns,
    end_ns, ...); summary: pcabench replay's JSON summary. Durations
    are returned in microseconds, totals in seconds.
    """
    selfs = self_times_ns(spans)
    roots = [s for s in spans if s["name"] == "core.replay"]
    if len(roots) != 1:
        raise ValueError("a replay has exactly one core.replay span")
    wall_ns = roots[0]["end_ns"] - roots[0]["start_ns"]
    threads = summary["threads"]

    def durations_us(name):
        return [(s["end_ns"] - s["start_ns"]) / 1e3
                for s in spans if s["name"] == name]

    def self_s(name):
        return sum(selfs[s["id"]] for s in spans
                   if s["name"] == name) / 1e9

    build_s = self_s("harness.session_build")
    run_s = self_s("harness.run")
    busy_s = sum(s["end_ns"] - s["start_ns"] for s in spans
                 if s["name"] == "core.point") / 1e9
    capacity_s = threads * wall_ns / 1e9
    return {
        "wall_s": wall_ns / 1e9,
        "build_us": durations_us("harness.session_build"),
        "run_us": durations_us("harness.run"),
        "build_self_s": build_s,
        "run_self_s": run_s,
        "busy_frac": busy_s / capacity_s,
        "covered_frac": (build_s + run_s) / capacity_s,
        "guest_minstr_per_s": summary["guest_instrs"] / run_s / 1e6,
    }


def compare_tables(reference, candidate):
    """Compare two study tables as DataTable::writeCsv text, row by
    row and byte for byte.

    Returns (rows, failed): rows is the number of data rows attempted
    (the longer of the two tables), failed the rows that differ from
    the reference, are missing or extra, or carry a degraded status.
    A header mismatch fails every row.
    """
    ref = reference.splitlines()
    got = candidate.splitlines()
    ref_rows, got_rows = ref[1:], got[1:]
    rows = max(len(ref_rows), len(got_rows))
    if not ref or not got or ref[0] != got[0]:
        return rows, rows
    header = got[0].split(",")
    has_status = header[-1] == "status"
    failed = abs(len(ref_rows) - len(got_rows))
    for r, g in zip(ref_rows, got_rows):
        degraded = has_status and g.rsplit(",", 1)[-1] != "ok"
        if r != g or degraded:
            failed += 1
    return rows, failed


NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#!/usr/bin/env python3
"""Study-level benchmark for libpca.

Runs one of the paper's reference studies through its public entry
point as a closed batch workload (one study call per timed unit, each
in a fresh process, as the exhibits run them) and checks every table
against the reference:

  null_sweep      core::runNullErrorStudy, 1920 configurations x 3
                  runs, 1 thread; reference results/null_errors.csv
                  at seed 1.
  duration_sweep  core::runDurationStudy, 162 programs x 5 runs,
                  1 thread; reference results/duration_uk.csv at
                  seed 2.
  cycle_sweep     core::runCycleStudy, 672 programs x 2 runs, at
                  min(4, CPUs) threads; reference results/cycles.csv
                  at seed 3.

At any other seed the reference is the same study run at the other
thread count (1 <-> min(4, CPUs)). Every run also re-measures a seeded
sample of points on the pure-interpretation path (fast-forward, decode
cache and trace tier off) and requires identical counters.

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

--trace 0 prints the end-to-end metrics (paper_rel_err always at the
workload's reference seed, where the table is also checked against the
committed CSV); --trace 1 replays the study
through the per-point API with spans and SPCs and prints the per-layer
metrics. The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; the exit code is
nonzero when any table, replay or oracle check fails. The first run
in a checkout builds libpca and pcabench (Release) under
.bench_build/perfbench; spans of a traced run are written there too.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
CHILD_TIMEOUT_S = 120


def cpu_count():
    return len(os.sched_getaffinity(0))


WORKLOADS = {
    "null_sweep": {"seed": 1, "reference": "results/null_errors.csv",
                   "threads": 1, "oracle_sample": 64},
    "duration_sweep": {"seed": 2, "reference": "results/duration_uk.csv",
                       "threads": 1, "oracle_sample": 8},
    "cycle_sweep": {"seed": 3, "reference": "results/cycles.csv",
                    "threads": min(4, cpu_count()), "oracle_sample": 8},
}

SPC_METRICS = (
    "fast_forward_iters", "superblocks_formed", "superblock_exits",
    "decoded_escape_callret", "decoded_escape_timeread",
    "decoded_escape_syscall", "decoded_escape_other", "machine_reboots",
    "program_cache_misses", "interrupts_timer", "kernel_instrs")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def child_env():
    # Timed runs see no tracing, SPC, fault, checkpoint or engine
    # toggles: only what run.py passes on its command line.
    return {k: v for k, v in os.environ.items() if not k.startswith("PCA_")}


def build():
    """Configure once and (re)build pcabench; output goes to stderr."""
    BUILD.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"] + gen
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    cmd = ["cmake", "--build", str(BUILD), "--target", "pcabench",
           "-j", str(min(4, cpu_count()))]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return BUILD / "pcabench"


class Runner:
    def __init__(self, exe, workload, seed, workdir):
        self.exe = exe
        self.workload = workload
        self.seed = seed
        self.spec = WORKLOADS[workload]
        self.workdir = workdir
        self.env = child_env()
        self.calls = 0

    def child(self, *args):
        """Run one pcabench subcommand; returns (spawn time, JSON)."""
        cmd = [str(self.exe)] + [str(a) for a in args]
        spawned = time.monotonic_ns()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=self.env,
                              timeout=CHILD_TIMEOUT_S, text=True)
        if proc.returncode != 0:
            fail("%s exited with %d" % (" ".join(cmd), proc.returncode))
        return spawned, json.loads(proc.stdout.strip().splitlines()[-1])

    def common(self, threads, seed=None):
        return ["--workload", self.workload,
                "--seed", self.seed if seed is None else seed,
                "--threads", threads]

    def study(self, threads, *extra, seed=None):
        """One study call in a fresh process; returns (JSON, CSV text,
        host seconds from spawn to the call)."""
        self.calls += 1
        csv = self.workdir / ("study-%d.csv" % self.calls)
        spawned, out = self.child("study", *self.common(threads, seed),
                                  "--csv", csv, *extra)
        text = csv.read_text()
        csv.unlink()
        return out, text, (out["call_start_ns"] - spawned) / 1e9

    def reference(self):
        """The table every run must reproduce: the committed CSV at the
        workload's reference seed, else the same study at the other
        thread count."""
        if self.seed == self.spec["seed"]:
            return (ROOT / self.spec["reference"]).read_text()
        threads = self.spec["threads"]
        other = 1 if threads > 1 else min(4, cpu_count())
        _, text, _ = self.study(other)
        return text

    def reference_seed_study(self):
        """The study at the workload's reference seed, untimed: its
        table against the committed CSV, and its paper_rel_err."""
        out, text, _ = self.study(self.spec["threads"],
                                  seed=self.spec["seed"])
        committed = (ROOT / self.spec["reference"]).read_text()
        rows, bad = benchlib.compare_tables(committed, text)
        return rows, bad, out["paper_rel_err"]

    def oracle(self):
        _, out = self.child("oracle", "--workload", self.workload,
                            "--seed", self.seed, "--sample",
                            self.spec["oracle_sample"])
        return out

    def replay(self):
        self.calls += 1
        csv = self.workdir / ("replay-%d.csv" % self.calls)
        spans = self.workdir / "spans.jsonl"  # the last replay's stays
        _, out = self.child("replay", *self.common(self.spec["threads"]),
                            "--csv", csv, "--spans", spans)
        text = csv.read_text()
        csv.unlink()
        with open(spans) as f:
            records = [json.loads(line) for line in f]
        return out, text, records, spans


def e2e_run(runner, ref, seconds):
    """Timed study calls until `seconds` have passed."""
    calls = []
    attempted = failed = 0
    deadline = time.monotonic() + seconds
    while not calls or time.monotonic() < deadline:
        out, text, setup = runner.study(runner.spec["threads"])
        rows, bad = benchlib.compare_tables(ref, text)
        attempted += rows
        failed += bad
        calls.append((out, setup))
    # paper_rel_err is taken at the reference seed whatever --seed is:
    # across seeds the paper's statistics themselves vary (the fig07
    # slopes by a quarter), which would drown a change in accuracy.
    if runner.seed == runner.spec["seed"]:
        rel_err = calls[0][0]["paper_rel_err"]
    else:
        rows, bad, rel_err = runner.reference_seed_study()
        attempted += rows
        failed += bad
    print("perfbench: %s seed %d: %d study calls, %d runs, %d failed" %
          (runner.workload, runner.seed, len(calls), attempted, failed),
          file=sys.stderr)
    med = statistics.median
    metrics = {
        "runs_per_s": (med([o["runs"] / o["call_s"] for o, _ in calls]),
                       "1/s"),
        "setup_s": (med([s for _, s in calls]), "s"),
        "peak_rss_mb": (med([o["peak_rss_mb"] for o, _ in calls]), "MB"),
        "ok_run_frac": ((attempted - failed) / attempted, "frac"),
        "paper_rel_err": (rel_err, "frac"),
    }
    return attempted, failed, metrics


def traced_run(runner, ref, seconds):
    """SPC capture, standalone machine timings and traced replays."""
    attempted = failed = 0

    def check(text, what):
        nonlocal attempted, failed
        rows, bad = benchlib.compare_tables(ref, text)
        attempted += rows
        failed += bad
        if bad:
            print("perfbench: %s: %d of %d rows differ from the "
                  "reference" % (what, bad, rows), file=sys.stderr)

    _, machines = runner.child("machines")

    # Each round: one untraced study call, one with every SPC attached
    # and the tracer on (its table must not change), one replay.
    study_walls, obs_outs, reps = [], [], []
    deadline = time.monotonic() + seconds
    while not reps or time.monotonic() < deadline:
        out, text, _ = runner.study(runner.spec["threads"])
        check(text, "untraced study")
        study_walls.append(out["call_s"])
        out, text, _ = runner.study(runner.spec["threads"], "--obs")
        check(text, "study with SPCs and tracing on")
        obs_outs.append(out)
        summary, text, spans, span_file = runner.replay()
        check(text, "replay")
        reps.append((summary, benchlib.replay_layers(spans, summary)))
    print("perfbench: spans of the last replay in %s" % span_file,
          file=sys.stderr)

    med = statistics.median
    summary = reps[-1][0]
    layers = [l for _, l in reps]
    # Percentiles per replay, so the sample count (and with it the
    # tail percentile) is fixed by the workload, then the median over
    # replays.
    def timings(key):
        per_rep = [benchlib.timing_summary(l[key]) for l in layers]
        return {"n": per_rep[0]["n"], "tail_pct": per_rep[0]["tail_pct"],
                "p50": med([s["p50"] for s in per_rep]),
                "tail": med([s["tail"] for s in per_rep])}

    builds, runs = timings("build_us"), timings("run_us")
    for what, t in (("harness.session_build", builds),
                    ("harness.run", runs)):
        print("perfbench: %s: p50 %.1f us, p%g %.1f us (n=%d per replay,"
              " median of %d replays)" % (what, t["p50"], t["tail_pct"],
                                          t["tail"], t["n"], len(reps)),
              file=sys.stderr)
    study_wall = med(study_walls)
    build_run_s = med([l["build_self_s"] + l["run_self_s"]
                       for l in layers])
    threads = summary["threads"]
    hits, misses = summary["cache_hits"], summary["cache_misses"]
    m = {
        "harness.session_build.count": (misses, "count"),
        "harness.session_build.self_s":
            (med([l["build_self_s"] for l in layers]), "s"),
        "harness.session_build.p50_us": (builds["p50"], "us"),
        "harness.session_build.tail_us": (builds["tail"], "us"),
        "harness.machine_ctor.p50_us":
            (benchlib.percentile(machines["machine_ctor_us"], 50), "us"),
        "harness.finalize.p50_us":
            (benchlib.percentile(machines["finalize_us"], 50), "us"),
        "harness.reboot.p50_us":
            (benchlib.percentile(machines["reboot_us"], 50), "us"),
        "harness.run.count": (summary["runs"], "count"),
        "harness.run.self_s":
            (med([l["run_self_s"] for l in layers]), "s"),
        "harness.run.p50_us": (runs["p50"], "us"),
        "harness.run.tail_us": (runs["tail"], "us"),
        "harness.cache.hit_rate": (hits / (hits + misses), "frac"),
        "cpu.guest_minstr_per_s":
            (med([l["guest_minstr_per_s"] for l in layers]), "Minstr/s"),
        "cpu.ff_iter_frac":
            (summary["ff_iters"] / summary["loop_iters"]
             if summary["loop_iters"] else 0.0, "frac"),
        "cpu.guest_instrs": (summary["guest_instrs"], "count"),
        "cpu.sim_cycles": (summary["sim_cycles"], "count"),
        "support.parallel.busy_frac":
            (med([l["busy_frac"] for l in layers]), "frac"),
        "core.study.wall_s": (study_wall, "s"),
        "core.study.overhead_frac":
            ((threads * study_wall - build_run_s) /
             (threads * study_wall), "frac"),
        "core.replay.wall_s": (med([l["wall_s"] for l in layers]), "s"),
        "core.replay.covered_frac":
            (med([l["covered_frac"] for l in layers]), "frac"),
        # The same study call with and without SPCs and tracing.
        "obs.trace_overhead_frac":
            (med([o["call_s"] for o in obs_outs]) / study_wall - 1, "frac"),
    }
    for name in SPC_METRICS:
        counts = [o["spc"][name] for o in obs_outs]
        m["spc." + name] = (statistics.median_low(counts), "count")
    return attempted, failed, m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    spec = WORKLOADS[args.workload]
    for need in ("CMakeLists.txt", "src/CMakeLists.txt", spec["reference"],
                 "BENCHMARK.json"):
        if not (ROOT / need).is_file():
            fail("%s not found: run from a libpca checkout" % need)
    bench_spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    exe = build()
    workdir = BUILD / "runs" / ("%s-s%d-t%d-%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(exe, args.workload, args.seed, workdir)

    ref = runner.reference()
    oracle = runner.oracle()
    if args.trace:
        attempted, failed, metrics = traced_run(runner, ref, args.seconds)
        metrics["oracle.mismatches"] = (oracle["mismatches"], "count")
        expected = bench_spec["per_layer"]
    else:
        attempted, failed, metrics = e2e_run(runner, ref, args.seconds)
        shutil.rmtree(workdir)
        expected = bench_spec["end_to_end"]
    print("perfbench: oracle: %d of %d runs at points %s differ from "
          "pure interpretation" % (oracle["mismatches"], oracle["runs"],
                                   oracle["points"]), file=sys.stderr)

    names = {m["name"]: m["unit"] for m in expected}
    if names != {k: u for k, (_, u) in metrics.items()}:
        fail("metrics do not match BENCHMARK.json: %s" % sorted(
            set(names).symmetric_difference(metrics)))
    correct = failed == 0 and oracle["mismatches"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

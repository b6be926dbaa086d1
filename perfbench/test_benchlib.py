"""Tests of the benchmark's own helpers.

    python3 perfbench/test_benchlib.py
"""

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import benchlib  # noqa: E402
import run  # noqa: E402

ROOT = HERE.parent


def span(sid, parent, name, start, end):
    return {"id": sid, "parent": parent, "name": name,
            "start_ns": start, "end_ns": end}


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(100, 0, -1))  # 1..100, unsorted
        self.assertEqual(benchlib.percentile(xs, 50), 50)
        self.assertEqual(benchlib.percentile(xs, 99), 99)
        self.assertEqual(benchlib.percentile(xs, 100), 100)
        self.assertEqual(benchlib.percentile(xs, 0), 1)
        self.assertEqual(benchlib.percentile([7], 99.9), 7)
        with self.assertRaises(ValueError):
            benchlib.percentile([], 50)

    def test_tail_rule_at_the_workloads_sample_counts(self):
        # session builds: null 1920, duration 162; runs: null 5760,
        # duration 810.
        self.assertEqual(benchlib.tail_percentile(1920), 99.0)
        self.assertEqual(benchlib.tail_percentile(162), 90.0)
        self.assertEqual(benchlib.tail_percentile(5760), 99.5)
        self.assertEqual(benchlib.tail_percentile(810), 95.0)

    def test_tail_keeps_ten_samples_beyond(self):
        for n in list(range(1, 300)) + [810, 1344, 1920, 5760]:
            pct = benchlib.tail_percentile(n)
            xs = list(range(n))
            beyond = sum(1 for x in xs
                         if x > benchlib.percentile(xs, pct))
            if pct != 50.0:
                self.assertGreaterEqual(beyond, 10, n)
            higher = [p for p in benchlib.TAIL_LADDER if p > pct]
            for p in higher:
                self.assertLess(
                    sum(1 for x in xs if x > benchlib.percentile(xs, p)),
                    10, (n, p))

    def test_too_few_samples_fall_back_to_the_median(self):
        self.assertEqual(benchlib.tail_percentile(5), 50.0)
        s = benchlib.timing_summary([3.0, 1.0, 2.0])
        self.assertEqual(s, {"n": 3, "p50": 2.0, "tail_pct": 50.0,
                             "tail": 2.0})


class Spans(unittest.TestCase):
    def test_self_time_subtracts_covered_child_time(self):
        spans = [
            span(1, 0, "core.point", 0, 100),
            span(2, 1, "a", 10, 30),
            span(3, 1, "b", 20, 50),    # overlaps a
            span(4, 1, "c", 90, 120),   # runs past the parent
        ]
        selfs = benchlib.self_times_ns(spans)
        self.assertEqual(selfs[1], 100 - 40 - 10)
        self.assertEqual(selfs[2], 20)
        self.assertEqual(selfs[4], 30)

    def test_replay_layers(self):
        spans = [
            span(0, -1, "core.replay", 0, 1000),
            span(1, 0, "core.point", 0, 500),
            span(2, 1, "harness.session_build", 0, 300),
            span(3, 1, "harness.run", 300, 480),
            span(4, 0, "core.point", 500, 950),
            span(5, 4, "harness.session_hit", 500, 510),
            span(6, 4, "harness.run", 510, 950),
        ]
        summary = {"threads": 1, "guest_instrs": 6200}
        got = benchlib.replay_layers(spans, summary)
        self.assertAlmostEqual(got["wall_s"], 1e-6)
        self.assertEqual(got["build_us"], [0.3])
        self.assertEqual(got["run_us"], [0.18, 0.44])
        self.assertAlmostEqual(got["build_self_s"], 300e-9)
        self.assertAlmostEqual(got["run_self_s"], 620e-9)
        self.assertAlmostEqual(got["busy_frac"], 0.95)
        self.assertAlmostEqual(got["covered_frac"], 0.92)
        self.assertAlmostEqual(got["guest_minstr_per_s"], 1e4)

        summary["threads"] = 2
        got = benchlib.replay_layers(spans, summary)
        self.assertAlmostEqual(got["busy_frac"], 0.475)

    def test_replay_needs_one_root(self):
        with self.assertRaises(ValueError):
            benchlib.replay_layers([], {"threads": 1, "guest_instrs": 0})


CSV = ("processor,interface,loopsize,run,error\n"
       "PD,pm,1,0,999.000000\n"
       "PD,pm,1,1,4803.000000\n"
       "PD,pm,1,2,999.000000\n")


class ReferenceCompare(unittest.TestCase):
    def test_identical(self):
        self.assertEqual(benchlib.compare_tables(CSV, CSV), (3, 0))

    def test_each_differing_row_counts(self):
        bad = CSV.replace("4803.000000", "4804.000000")
        self.assertEqual(benchlib.compare_tables(CSV, bad), (3, 1))

    def test_missing_and_extra_rows_count(self):
        short = "".join(CSV.splitlines(True)[:-1])
        self.assertEqual(benchlib.compare_tables(CSV, short), (3, 1))
        self.assertEqual(benchlib.compare_tables(short, CSV), (3, 1))

    def test_header_mismatch_fails_every_row(self):
        other = CSV.replace("error", "cycles")
        self.assertEqual(benchlib.compare_tables(CSV, other), (3, 3))

    def test_degraded_rows_count_even_when_expected(self):
        lines = CSV.splitlines()
        with_status = "\n".join(
            [lines[0] + ",status",
             lines[1] + ",ok",
             "PD,pm,1,1,nan,degraded:busy:EBUSY",
             lines[3] + ",ok"]) + "\n"
        self.assertEqual(
            benchlib.compare_tables(with_status, with_status), (3, 1))


class ReplayEqualsStudy(unittest.TestCase):
    """The traced run compares each replayed table with the reference
    through compare_tables; a replay that drifts in one run fails."""

    def test_on_a_committed_table(self):
        study = (ROOT / "results" / "cycles.csv").read_text()
        self.assertEqual(benchlib.compare_tables(study, study),
                         (1344, 0))
        lines = study.splitlines(True)
        lines[700] = lines[700].replace(",", ";", 1)
        replay = "".join(lines)
        self.assertEqual(benchlib.compare_tables(study, replay),
                         (1344, 1))


class MetricGrammar(unittest.TestCase):
    def spec(self):
        return json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_benchmark_json_names_and_units(self):
        s = self.spec()
        metrics = s["end_to_end"] + s["per_layer"]
        names = [w["name"] for w in s["workloads"]] + \
            [m["name"] for m in metrics]
        for name in names:
            self.assertTrue(benchlib.NAME_RE.match(name), name)
        self.assertEqual(len(set(names)), len(names))
        for m in metrics:
            self.assertTrue(benchlib.UNIT_RE.match(m["unit"]), m)

    def test_names_and_units(self):
        for name in ("runs_per_s", "harness.session_build.p50_us",
                     "spc.fast_forward_iters", "9lives"):
            self.assertTrue(benchlib.NAME_RE.match(name), name)
        for name in ("", ".x", "_x", "a b", "a/b", "x" * 65):
            self.assertFalse(benchlib.NAME_RE.match(name), name)
        for unit in ("ms", "s", "1/s", "count", "%", "Minstr/s"):
            self.assertTrue(benchlib.UNIT_RE.match(unit), unit)
        for unit in ("", "m s", "x" * 17, "µs"):
            self.assertFalse(benchlib.UNIT_RE.match(unit), unit)

    def test_spc_metrics_match_run_py(self):
        listed = {m["name"][len("spc."):] for m in self.spec()["per_layer"]
                  if m["name"].startswith("spc.")}
        self.assertEqual(listed, set(run.SPC_METRICS))

    def test_workloads_match_run_py(self):
        listed = {w["name"] for w in self.spec()["workloads"]}
        self.assertEqual(listed, set(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()

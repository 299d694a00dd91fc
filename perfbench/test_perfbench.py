"""Tests of perfbench/run.py and its helpers. From the repository root:

    python3 -m unittest perfbench/test_perfbench.py

The smoke test builds and runs the benchmark (the minimum 20 timed
requests of every workload, untraced and traced: about two minutes); set
PERFBENCH_SKIP_SMOKE=1 to skip it.
"""

import json
import os
import random
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import benchlib as bl  # noqa: E402
import run  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(bl.percentile(list(range(19)), 50))
        self.assertEqual(bl.percentile(list(range(1, 21)), 50), 10)
        self.assertIsNone(bl.percentile(list(range(99)), 90))
        self.assertEqual(bl.percentile(list(range(1, 101)), 90), 90)
        self.assertIsNone(bl.percentile(list(range(999)), 99))
        self.assertEqual(bl.percentile(list(range(1, 1001)), 99), 990)
        self.assertIsNone(bl.percentile([], 50))

    def test_order_does_not_matter(self):
        xs = list(range(1, 201))
        random.Random(3).shuffle(xs)
        self.assertEqual(bl.percentile(xs, 50), 100)
        self.assertEqual(bl.percentile(xs, 90), 180)


class HostClock(unittest.TestCase):
    def test_segments_scale_by_their_marks(self):
        clock = bl.HostClock(ref_ns=100)
        clock.mark(0.0, 0.5, 100)  # kernel at reference speed
        self.assertEqual(clock.segment(), 0)
        clock.mark(2.5, 3.0, 100)
        clock.mark(4.0, 4.5, 300)  # host at half speed by the next mark
        self.assertEqual(clock.segment(), 2)
        self.assertAlmostEqual(clock.factor(0), 1.0)
        self.assertAlmostEqual(clock.factor(1), 0.5)
        # Calibration time (0.5 s per mark) belongs to no segment.
        self.assertAlmostEqual(clock.span_s(0, 1), 2.0)
        self.assertAlmostEqual(clock.span_s(1, 2), 0.5)
        self.assertAlmostEqual(clock.span_s(0, 2), 2.5)
        self.assertEqual(clock.span_s(1, 1), 0)

    def test_marks_close_to_a_segment_count_towards_its_factor(self):
        clock = bl.HostClock(ref_ns=100)
        for i, ns in enumerate([100, 400, 100, 100, 100, 200, 100]):
            clock.mark(i * 0.1, i * 0.1 + 0.01, ns)
        # Segment 2 lies between marks 2 and 3; marks 0..5 end within 0.2 s.
        self.assertAlmostEqual(clock.factor(2), 1.0)
        # Segment 0 sees marks 0..3: median of 100, 400, 100, 100.
        self.assertAlmostEqual(clock.factor(0), 1.0)
        # Segment 5 sees marks 3..6: median of 100, 100, 200, 100.
        self.assertAlmostEqual(clock.factor(5), 1.0)
        spread_out = bl.HostClock(ref_ns=100)
        for i, ns in enumerate([100, 400, 100]):
            spread_out.mark(i * 1.0, i * 1.0 + 0.01, ns)
        self.assertAlmostEqual(spread_out.factor(0), 100 / 250)


class Geomean(unittest.TestCase):
    def test_values(self):
        self.assertAlmostEqual(bl.geomean([1, 4]), 2.0)
        self.assertAlmostEqual(bl.geomean([2, 2, 2]), 2.0)
        self.assertAlmostEqual(bl.geomean([0.5, 2.0]), 1.0)
        self.assertIsNone(bl.geomean([]))

    def test_speedups_count_each_row_once(self):
        c = checker()
        for _ in range(3):
            self.assertIsNone(c.check("mcf", workload_response("mcf", 100, 50, 60, 30)))
        self.assertIsNone(c.check("vpr", workload_response("vpr", 100, 25, 60, 60)))
        io, ooo = bl.speedup_geomeans(c)
        self.assertAlmostEqual(io, 8 ** 0.5)
        self.assertAlmostEqual(ooo, 2 ** 0.5)

    def test_quartile_spread(self):
        self.assertAlmostEqual(bl.quartile_spread([10] * 10), 0.0)
        self.assertGreater(bl.quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]), 0.9)


def workload_response(name, base_io, ssp_io, base_ooo, ssp_ooo):
    row = {"name": name, "base_io": base_io, "ssp_io": ssp_io, "base_ooo": base_ooo,
           "ssp_ooo": ssp_ooo, "noop": False, "regression": False}
    return json.dumps({"kind": "workload", "row": row, "plan_digest": "0", "slices": 1,
                       "skipped": 0})


def tune_row(name, model, base, tuned, candidates):
    return {"name": name, "model": model, "base_cycles": base, "tuned_cycles": tuned,
            "candidates": candidates}


def checker():
    suite = {"mcf": json.loads(workload_response("mcf", 100, 50, 60, 30))["row"],
             "vpr": json.loads(workload_response("vpr", 100, 25, 60, 60))["row"]}
    tune = {("mcf", "in-order"): tune_row("mcf", "in-order", 90, 30, 12),
            ("mcf", "out-of-order"): tune_row("mcf", "out-of-order", 60, 30, 20)}
    return bl.Checker(suite, tune, 8)


class FailureCounting(unittest.TestCase):
    def test_tally(self):
        t = bl.Tally()
        t.ok()
        t.ok()
        t.fail("bad answer")
        t.fail("counter mismatch", attempted=False)
        self.assertEqual((t.attempted, t.failed), (3, 2))
        self.assertAlmostEqual(t.fail_rate(), 2 / 3)
        self.assertEqual(t.reasons, ["bad answer", "counter mismatch"])
        self.assertEqual(bl.Tally().fail_rate(), 0.0)

    def test_checker_accepts_right_answers(self):
        c = checker()
        self.assertIsNone(c.check("mcf", workload_response("mcf", 100, 50, 60, 30)))
        tune = {"kind": "tune", "rounds": 8, "io": tune_row("mcf", "in-order", 90, 30, 12),
                "ooo": tune_row("mcf", "out-of-order", 60, 30, 20)}
        self.assertIsNone(c.check("tune mcf", json.dumps(tune)))
        self.assertEqual(c.candidates, {"tune mcf": 32})
        case = {"kind": "case", "case": {"spec": "seed=1 chase=8", "outcome": "pass"}}
        self.assertIsNone(c.check("seed=1 chase=8", json.dumps(case)))

    def test_checker_rejects_wrong_answers(self):
        c = checker()
        self.assertIn("BENCH_8", c.check("mcf", workload_response("mcf", 100, 51, 60, 30)))
        self.assertIn("error", c.check("nope", '{"kind": "error", "error": "bad request"}'))
        failed = {"kind": "case", "case": {"spec": "seed=2", "outcome": "violations"}}
        self.assertIn("violations", c.check("seed=2", json.dumps(failed)))
        tune = {"kind": "tune", "rounds": 8, "io": tune_row("mcf", "in-order", 90, 31, 12),
                "ooo": tune_row("mcf", "out-of-order", 60, 30, 20)}
        self.assertIn("BENCH_9", c.check("tune mcf", json.dumps(tune)))
        self.assertIn("not JSON", c.check("x", "{"))

    def test_warm_answer_must_match_cold_byte_for_byte(self):
        c = checker()
        cold = workload_response("mcf", 100, 50, 60, 30)
        self.assertIsNone(c.check("mcf", cold))
        self.assertIsNone(c.check("mcf", cold))
        self.assertIn("first answer", c.check("mcf", cold.replace(", ", ",")))

    def test_counter_reconciliation(self):
        report = bl.parse_report(
            'ssp-serve: listening on "s"\n'
            '{"schema": "ssp-serve-report/2", "requests": 7, "workloads": 7, "cases": 0, '
            '"tunes": 0, "errors": 0, "cache": {"hits": 0, "disk_hits": 0, "misses": 7}}\n'
        )
        good = {"requests": 7, "hits": 0, "disk_hits": 0, "misses": 7, "errors": 0}
        self.assertEqual(bl.reconcile(report, good), [])
        self.assertEqual(len(bl.reconcile(report, dict(good, misses=6, hits=1))), 2)
        self.assertEqual(len(bl.reconcile(None, good)), 1)


class FakeCalibrator:
    def kernel_ns(self):
        return bl.REF_KERNEL_NS


class FakeDaemon:
    def __init__(self, responses):
        self.responses = responses

    def request(self, line):
        return self.responses[line], 1_000_000


class TuneCandidates(unittest.TestCase):
    def test_only_timed_answers_count(self):
        """Replayed answers are checked like the daemon's but add no tune
        candidates: tune_candidates_per_s covers the timed phase only."""
        run_ = run.Run(1, None, FakeCalibrator(), None)
        io, ooo = (run_.checker.tune_rows[("mcf", m)] for m in ("in-order", "out-of-order"))
        answer = json.dumps({"kind": "tune", "rounds": run_.checker.tune_rounds, "io": io,
                             "ooo": ooo})
        run_.begin()
        run_.send(FakeDaemon({"tune mcf": answer}), "tune mcf")
        run_.finish()
        self.assertEqual(run_.candidates, io["candidates"] + ooo["candidates"])
        before = run.e2e_details(run_)["tune_candidates_per_s"]
        self.assertGreater(before, 0)
        for _ in range(3):
            run_.answer("tune mcf", answer)
        self.assertEqual(run.e2e_details(run_)["tune_candidates_per_s"], before)
        self.assertEqual((run_.tally.attempted, run_.tally.failed), (4, 0))


class Requests(unittest.TestCase):
    def test_case_stream_resends_one_line_per_block(self):
        lines = []
        stream = bl.case_stream(random.Random(5))
        for _ in range(200):
            lines.append(next(stream))
        seen = set()
        for b in range(0, 200, 5):
            repeats = 0
            for line in lines[b:b + 5]:
                repeats += line in seen
                seen.add(line)
            self.assertEqual(repeats, 1, lines[b:b + 5])
        self.assertEqual(len(set(lines)), 160)

    def test_each_pass_draws_one_chase_per_quarter(self):
        stream = bl.case_stream(random.Random(6))
        seen = set()
        for _ in range(50):
            chases = []
            for line in (next(stream) for _ in range(5)):
                if line not in seen:
                    chases.append(int(line.split()[1].split("=")[1]))
                    seen.add(line)
            quarters = sorted(
                next(k for k, (lo, hi) in enumerate(bl.CHASE_STRATA) if lo <= c <= hi)
                for c in chases
            )
            self.assertEqual(quarters, [0, 1, 2, 3])
        self.assertEqual(bl.CHASE_STRATA[0][0], bl.MIN_CHASE)
        self.assertEqual(bl.CHASE_STRATA[-1][1], bl.MAX_CHASE)

    def test_same_seed_same_inputs(self):
        a, b = bl.case_stream(random.Random(9)), bl.case_stream(random.Random(9))
        self.assertEqual([next(a) for _ in range(50)], [next(b) for _ in range(50)])
        self.assertEqual(run.warm_lines(random.Random(4)), run.warm_lines(random.Random(4)))

    def test_specs_use_the_generator_bounds(self):
        rng = random.Random(1)
        for _ in range(500):
            fields = dict(f.split("=") for f in bl.random_spec(rng).split())
            self.assertEqual(list(fields), ["seed", "chase", "loads", "diamond", "call",
                                            "stores", "arith"])
            self.assertTrue(bl.MIN_CHASE <= int(fields["chase"]) <= bl.MAX_CHASE)
            self.assertTrue(1 <= int(fields["loads"]) <= 3)
            self.assertTrue(0 <= int(fields["arith"]) <= 4)


class BenchmarkFile(unittest.TestCase):
    def test_metric_lists_match_run_py(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))


@unittest.skipIf(os.environ.get("PERFBENCH_SKIP_SMOKE"), "PERFBENCH_SKIP_SMOKE is set")
class Smoke(unittest.TestCase):
    def test_every_workload_prints_every_metric(self):
        for workload in run.WORKLOADS:
            for trace, names in ((0, run.END_TO_END), (1, run.PER_LAYER)):
                cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                       "--seed", "7", "--seconds", "0", "--trace", str(trace)]
                out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
                self.assertEqual(out.returncode, 0, f"{workload} trace {trace}")
                result = json.loads(out.stdout.splitlines()[-1])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                metrics = result["metrics"]
                self.assertEqual(set(metrics), set(names), f"{workload} trace {trace}")
                for name, unit in names.items():
                    self.assertEqual(metrics[name]["unit"], unit)
                    self.assertIsInstance(metrics[name]["value"], (int, float))


if __name__ == "__main__":
    unittest.main()

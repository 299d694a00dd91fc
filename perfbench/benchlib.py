"""Pure helpers of perfbench/run.py: request generation, statistics,
failure counting and the output check. No process or socket code here,
so everything in this file is unit-tested directly (test_perfbench.py).
"""

import bisect
import json
import math
import statistics

# Exactly ssp_workloads::NAMES, in suite order.
NAMES = ["em3d", "health", "mst", "treeadd.df", "treeadd.bf", "mcf", "vpr"]

# CaseSpec::random's bounds (crates/fuzz/src/spec.rs): chase in
# [MIN_CHASE, MAX_CHASE], loads 1..=3, arith 0..=4, three coin flips.
MIN_CHASE, MAX_CHASE = 4, 192

# Samples that must lie beyond a percentile before it is reported.
TAIL_SAMPLES = 10


def random_spec(rng, chase=None):
    """One CaseSpec line drawn like CaseSpec::random, in its Display form
    (so the daemon echoes it back byte for byte in the response). `chase`
    is a (low, high) sub-range of the chase bounds to draw from."""
    lo, hi = chase or (MIN_CHASE, MAX_CHASE)
    return (
        f"seed={rng.getrandbits(64)} chase={rng.randint(lo, hi)} "
        f"loads={rng.randint(1, 3)} diamond={rng.randint(0, 1)} "
        f"call={rng.randint(0, 1)} stores={rng.randint(0, 1)} arith={rng.randint(0, 4)}"
    )


# Four equal chase strata covering [MIN_CHASE, MAX_CHASE].
CHASE_STRATA = [
    (MIN_CHASE + (MAX_CHASE - MIN_CHASE + 1) * k // 4,
     MIN_CHASE + (MAX_CHASE - MIN_CHASE + 1) * (k + 1) // 4 - 1)
    for k in range(4)
]


def case_stream(rng):
    """Endless case-request stream in blocks of five frames: four new,
    distinct specs and one re-send of a line already sent, at a random
    position after the block's first new spec.

    The four new specs draw their chase length (the loop trip count, which
    sets most of a case's cost) from the four quarters of the generator's
    range, one each, in random order: chase stays uniform over the range,
    and every block of five costs about the same, so a few seconds of
    blocks are a representative sample."""
    sent, seen = [], set()
    while True:
        fresh = []
        for stratum in rng.sample(CHASE_STRATA, 4):
            line = random_spec(rng, stratum)
            while line in seen:
                line = random_spec(rng, stratum)
            seen.add(line)
            fresh.append(line)
        at = rng.randint(1, 4)
        for i in range(5):
            if i == at:
                line = rng.choice(sent)
            else:
                line = fresh.pop(0)
                sent.append(line)
            yield line


def percentile(samples, q):
    """Nearest-rank q-th percentile, or None unless at least TAIL_SAMPLES
    samples lie beyond it (p50 needs 20 samples, p90 100, p99 1000)."""
    n = len(samples)
    if n == 0 or n * (100 - q) / 100 < TAIL_SAMPLES - 1e-9:
        return None
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q / 100 * n) - 1)]


# The calibration kernel's time, in ns, on the reference host that every
# measured time is scaled to (perfbench/tracer/src/bin/calibrate.rs). On
# the development host, two vCPUs of a 2.1 GHz Xeon shared with other
# tenants, the kernel takes 1.2 ms when the host is calm and up to 2.5 ms
# when it is busy.
REF_KERNEL_NS = 1_200_000
# The start-up reference's time (`calibrate --start`), in seconds, on the
# reference host that daemon start-up times are scaled to: about 1 ms on
# the development host.
REF_START_S = 0.001
# Marks this close to a segment also count towards its factor.
SMOOTH_S = 0.2


class HostClock:
    """Host-speed-normalised time.

    The host's speed drifts by tens of percent over seconds and minutes.
    The benchmark times a fixed reference kernel between requests (a
    *mark*: start, end, kernel ns) and splits time into *segments*, the
    stretches between consecutive marks; calibration time belongs to none.
    A segment's factor is REF_KERNEL_NS over the median kernel time of its
    two bounding marks and of every other mark that ended within SMOOTH_S
    of them, and a time measured inside it is scaled by that factor: on a
    host running at half speed the kernel takes twice as long, so the
    factor halves every time measured there. The neighbouring marks damp
    the noise of single kernel runs where segments are short.
    """

    def __init__(self, ref_ns=REF_KERNEL_NS):
        self.ref_ns = ref_ns
        self.marks = []
        self.ends = []

    def mark(self, start, end, kernel_ns):
        self.marks.append((start, end, kernel_ns))
        self.ends.append(end)

    def segment(self):
        """The open segment: the one after the latest mark."""
        return len(self.marks) - 1

    def factor(self, seg):
        """Scale of segment `seg`, which needs its closing mark."""
        lo = bisect.bisect_left(self.ends, self.ends[seg] - SMOOTH_S)
        hi = bisect.bisect_right(self.ends, self.ends[seg + 1] + SMOOTH_S)
        return self.ref_ns / statistics.median(m[2] for m in self.marks[lo:hi])

    def span_s(self, first, end):
        """Normalised seconds of segments first..end-1 (the time from mark
        `first` to mark `end`, calibration excluded)."""
        return sum(
            (self.marks[i + 1][0] - self.ends[i]) * self.factor(i) for i in range(first, end)
        )


def geomean(values):
    """Geometric mean of positive values, None for an empty list."""
    values = list(values)
    if not values:
        return None
    return math.exp(sum(math.log(v) for v in values) / len(values))


def speedup_geomeans(checker):
    """Geometric means of the in-order and out-of-order speedups over the
    distinct answered rows (None, None without any row)."""
    rows = list(checker.speedups.values())
    return geomean(r[0] for r in rows), geomean(r[1] for r in rows)


def median(values):
    return statistics.median(values) if values else None


def quartile_spread(values):
    """(Q3 - Q1) / median, as statistics.quantiles(values, n=4) gives the
    quartiles; the run-to-run steadiness measure of one metric."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


class Tally:
    """Attempted and failed requests, with the first few failure reasons.

    A failure is an error response, an answer that fails the output check
    (a case outcome other than pass included), a transport error, a
    daemon exit, or a daemon counter that disagrees with the request list.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def ok(self):
        self.attempted += 1

    def fail(self, reason, attempted=True):
        """Record one failure; attempted=False for a failed check that is
        not itself a request (a counter mismatch)."""
        self.attempted += int(attempted)
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def fail_rate(self):
        return self.failed / self.attempted if self.attempted else 0.0


def load_references(bench8_text, bench9_text):
    """Reference answers: BENCH_8.json suite.rows by workload name and
    BENCH_9.json rows by (name, model), plus BENCH_9's round cap."""
    b8, b9 = json.loads(bench8_text), json.loads(bench9_text)
    suite = {r["name"]: r for r in b8["suite"]["rows"]}
    tune = {(r["name"], r["model"]): r for r in b9["rows"]}
    return suite, tune, b9["max_rounds"]


class Checker:
    """Checks every response against the committed references and against
    the first answer this run recorded for the same line. Collects the
    simulated speedups (base / SSP cycles, in-order and out-of-order) and
    the tune candidates of each distinct answered line."""

    def __init__(self, suite_rows, tune_rows, tune_rounds):
        self.suite_rows = suite_rows
        self.tune_rows = tune_rows
        self.tune_rounds = tune_rounds
        self.first = {}
        self.speedups = {}
        self.candidates = {}

    def check(self, line, response):
        """None if the response is right, else the reason it is not."""
        first = self.first.setdefault(line, response)
        if response != first:
            return f"{line!r}: answer differs from this run's first answer"
        try:
            r = json.loads(response)
        except ValueError:
            return f"{line!r}: response is not JSON"
        kind = r.get("kind")
        if kind == "workload":
            row = r["row"]
            if line != row["name"] or row != self.suite_rows.get(line):
                return f"{line!r}: row differs from BENCH_8.json"
            self.speedups[line] = (row["base_io"] / row["ssp_io"], row["base_ooo"] / row["ssp_ooo"])
        elif kind == "tune":
            name = line.split(None, 1)[1].strip()
            io, ooo = r["io"], r["ooo"]
            if r["rounds"] != self.tune_rounds:
                return f"{line!r}: rounds {r['rounds']} != {self.tune_rounds}"
            if io != self.tune_rows.get((name, "in-order")) or ooo != self.tune_rows.get(
                (name, "out-of-order")
            ):
                return f"{line!r}: rows differ from BENCH_9.json"
            self.speedups[line] = (
                io["base_cycles"] / io["tuned_cycles"],
                ooo["base_cycles"] / ooo["tuned_cycles"],
            )
            self.candidates[line] = io["candidates"] + ooo["candidates"]
        elif kind == "case":
            case = r["case"]
            if case["spec"] != line:
                return f"{line!r}: answer is for {case['spec']!r}"
            if case["outcome"] != "pass":
                return f"{line!r}: outcome {case['outcome']}"
        else:
            return f"{line!r}: {kind} response: {r.get('error', '')}"
        return None


def parse_report(stderr_text):
    """The daemon's ssp-serve-report/2 document from its stderr, or None."""
    for line in reversed(stderr_text.splitlines()):
        if line.startswith('{"schema": "ssp-serve-report/2"'):
            return json.loads(line)
    return None


def reconcile(report, expect):
    """Reasons the report's counters disagree with what the request list
    implies. `expect` maps hits, disk_hits, misses, errors, requests."""
    if report is None:
        return ["daemon printed no ssp-serve-report/2"]
    got = dict(report["cache"], errors=report["errors"], requests=report["requests"])
    return [f"{k}: daemon {got[k]} != expected {v}" for k, v in expect.items() if got[k] != v]

#!/usr/bin/env python3
"""perfbench: the repository benchmark.

Drives the release `ssp_serve` daemon from outside, as
`ssp_serve --socket <tmp> --store <tmp> --workers 2`, from one client
thread on one connection in a closed loop: one request line per frame,
and the next frame is sent only after the previous response has arrived.
Every answer is checked (see benchlib.Checker) and the daemon's
`ssp-serve-report/2` counters are reconciled with the request list.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a repository checkout. It builds `ssp_serve`,
the in-process replayer and the calibration kernel (perfbench/tracer)
with cargo into $CARGO_TARGET_DIR (default `.bench_build`), keeps its
sockets and stores under `.bench_run/`, and removes them when it ends.

Every time it reports is scaled to a reference host speed: it times a
fixed kernel between requests and scales each time by the kernel's
reference time over its time measured there (benchlib.HostClock).

With --trace 0 the last stdout line is one JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics, from
the same untraced daemon run plus an in-process replay of the workload's
request list, once plain and once traced (perfbench/README.md). Exits 0
when every answer was right, 1 when a check failed, 2 when the benchmark
could not run (no checkout, failed build).
"""

import argparse
import json
import math
import os
import random
import select
import shutil
import signal
import socket
import struct
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib as bl  # noqa: E402

WORKERS = 2
RUN_ROOT = ".bench_run"
# Requests every timed phase times at least, in whole passes: p50 needs
# 20 samples.
MIN_REQUESTS = 20
# Spawn-to-ready samples taken before the timed phase (set-up time).
SETUP_SPAWNS = 41
# The calibration kernel runs before a timed request when this long has
# passed since it last ran.
CAL_EVERY_S = 0.05
# Kernel threads per calibration: as many as a request keeps busy. A tune
# request fans its candidates out across the daemon's workers; every other
# request runs on one thread.
CAL_THREADS = {"tune-cold": WORKERS}
# Fills warm-restart times for its set-up.
WARM_FILLS = 3
WARM_CASES = 40
TRACE_CASES = 100
# case-stream reads the daemon's peak RSS after this many requests.
CASE_RSS_REQUESTS = 1000
DAEMON_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "req_p50_ms": "ms",
    "throughput_rps": "1/s",
    "peak_rss_mb": "MB",
    "success_rate": "fraction",
}

# Per-layer time metrics: (span name, inclusive or self time), reported
# as the mean per replayed request.
LAYER_MS = {
    "workloads.build_ms": ("workloads.build", "incl"),
    "sim.profile_ms": ("sim.profile", "incl"),
    "adapt.self_ms": ("core.adapt", "self"),
    "slicing.self_ms": ("slicing", "self"),
    "sched.self_ms": ("sched", "self"),
    "trigger.self_ms": ("trigger", "self"),
    "codegen.self_ms": ("codegen", "self"),
    "lint.self_ms": ("lint", "self"),
    "sim.baseline_io_ms": ("sim.baseline_io", "incl"),
    "sim.baseline_ooo_ms": ("sim.baseline_ooo", "incl"),
    "sim.adapted_io_ms": ("sim.adapted_io", "incl"),
    "sim.adapted_ooo_ms": ("sim.adapted_ooo", "incl"),
    "fuzz.gen_ms": ("fuzz.gen", "incl"),
    "fuzz.baseline_snapshots_ms": ("fuzz.baseline_snapshots", "incl"),
    "fuzz.engine_check_ms": ("fuzz.engine_check", "incl"),
    "fuzz.check_adapted_ms": ("fuzz.check_adapted", "incl"),
    "tune.row_ms": ("tune.row", "incl"),
    "tune.eval_ms": ("tune.eval", "incl"),
    "tune.telemetry_ms": ("tune.telemetry", "incl"),
}
LAYER_US = {
    "persist.load_us": "persist.load",
    "persist.decode_us": "persist.decode",
    "persist.encode_us": "persist.encode",
    "persist.save_us": "persist.save",
    "serve.parse_us": "serve.parse",
    "serve.key_us": "serve.key",
    "serve.frame_us": "serve.frame",
    "serve.memo_us": "serve.memo",
    "serve.render_us": "serve.render",
}

PER_LAYER = {
    "req_p90_ms": "ms",
    "req_p99_ms": "ms",
    "req_samples": "count",
    "fail_rate": "fraction",
    "sim_speedup_io_geomean": "x",
    "sim_speedup_ooo_geomean": "x",
    "tune_candidates_per_s": "1/s",
    **{name: "ms" for name in LAYER_MS},
    "slicing.slice_insts": "count",
    "trigger.triggers_placed": "count",
    "codegen.insts_added": "count",
    "sim.adapted_mcycles_per_s": "Mcycles/s",
    "sim.adapted_io_stepped_frac": "fraction",
    "sim.adapted_ooo_stepped_frac": "fraction",
    "sim.busy_windows": "count",
    "sim.prefetch_timely_frac": "fraction",
    "sim.prefetch_useless_frac": "fraction",
    "fuzz.pass_frac": "fraction",
    "tune.eval_adapt_frac": "fraction",
    "tune.memo_hit_frac": "fraction",
    "bench.cache_hits": "count",
    "bench.cache_disk_hits": "count",
    "bench.cache_misses": "count",
    **{name: "us" for name in LAYER_US},
    "persist.store_bytes": "bytes",
    "persist.store_entries": "count",
    "serve.hit_us": "us",
    "serve.transport_us": "us",
    "serve.restart_ms": "ms",
    "serve.hits": "count",
    "serve.disk_hits": "count",
    "serve.misses": "count",
    "serve.errors": "count",
    "trace.request_ms": "ms",
    "trace.plain_request_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.overhead_frac": "fraction",
    "trace.unattributed_frac": "fraction",
    "trace.spans": "count",
}


class BenchError(Exception):
    """The benchmark cannot run here (not a checkout, build failed)."""


class DaemonError(Exception):
    """A transport error or a daemon that exited."""


def build():
    """Build ssp_serve, the replayer and the calibration kernel; return
    their paths."""
    for f in ("Cargo.toml", "crates/serve/Cargo.toml", "BENCH_8.json", "BENCH_9.json"):
        if not os.path.isfile(f):
            raise BenchError(f"{f} not found: run from the root of a repository checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    here = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
    for cmd in (
        ["cargo", "build", "--release", "--quiet", "-p", "ssp-serve", "--bin", "ssp_serve"],
        ["cargo", "build", "--release", "--quiet", "--manifest-path",
         os.path.join(here, "tracer", "Cargo.toml")],
    ):
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target, "release")
    return tuple(os.path.join(release, b) for b in ("ssp_serve", "perfbench-tracer", "calibrate"))


class Calibrator:
    """The calibration kernel process: one timed kernel run per call, on
    `threads` threads at once."""

    def __init__(self, binary, threads):
        self.binary = binary
        self.proc = subprocess.Popen([binary, str(threads)], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def start_s(self, directory):
        """Seconds from spawning the start-up reference on `directory` until
        it reports that it listens, as Daemon.ready_s counts them."""
        t0 = time.perf_counter()
        proc = subprocess.Popen([self.binary, "--start", directory], stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        line = proc.stderr.readline()
        elapsed = time.perf_counter() - t0
        proc.stderr.close()
        if proc.wait(timeout=DAEMON_TIMEOUT_S) != 0 or not line.startswith("calibrate: listening"):
            raise BenchError(f"start-up reference failed: {line!r}")
        return elapsed

    def kernel_ns(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"calibration kernel exited with {self.proc.poll()}")
        return int(line)

    def stop(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=DAEMON_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Daemon:
    """One ssp_serve process on a unix socket, with one client connection.
    `ready_s` is the time from spawn until it connected, which it does as
    soon as the daemon reports on stderr that it is listening."""

    def __init__(self, binary, sock_path, store):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [binary, "--socket", sock_path, "--store", store, "--workers", str(WORKERS)],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self._await_listening(t0)
            self.sock.connect(sock_path)
        except (DaemonError, OSError) as e:
            self.kill()
            raise DaemonError(f"daemon did not start: {e}") from e
        self.ready_s = time.perf_counter() - t0

    def _await_listening(self, t0):
        seen = []
        while True:
            left = DAEMON_TIMEOUT_S - (time.perf_counter() - t0)
            if left <= 0 or not select.select([self.proc.stderr], [], [], left)[0]:
                raise DaemonError("daemon did not listen in time")
            line = self.proc.stderr.readline()
            if not line:
                raise DaemonError(f"daemon exited before listening: {''.join(seen)!r}")
            if line.startswith("ssp-serve: listening on"):
                return
            seen.append(line)

    def _recv(self, n):
        buf = bytearray()
        while len(buf) < n:
            chunk = self.sock.recv(n - len(buf))
            if not chunk:
                raise DaemonError(f"connection closed (daemon exit code {self.proc.poll()})")
            buf += chunk
        return bytes(buf)

    def request(self, payload):
        """One frame out, one frame back: (response text, round trip ns)."""
        data = payload.encode()
        t = time.perf_counter_ns()
        try:
            self.sock.sendall(struct.pack("<I", len(data)) + data)
            (n,) = struct.unpack("<I", self._recv(4))
            body = self._recv(n)
        except OSError as e:
            raise DaemonError(f"transport: {e}") from e
        return body.decode().rstrip("\n"), time.perf_counter_ns() - t

    def vmhwm_kb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise DaemonError("no VmHWM in /proc status")

    def shutdown(self):
        """Stop the daemon; return its ssp-serve-report/2 (or None)."""
        self.request("shutdown")
        self.sock.close()
        report = bl.parse_report(self.proc.stderr.read())
        self.proc.stderr.close()
        self.proc.wait(timeout=DAEMON_TIMEOUT_S)
        return report

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.sock.close()
        self.proc.stderr.close()


class Run:
    """State of one benchmark run: inputs, samples, checks, daemons, and
    the host clock that scales every time it measures."""

    def __init__(self, seed, serve_bin, calibrator, run_dir):
        self.seed = seed
        self.rng = random.Random(seed)
        self.serve_bin = serve_bin
        self.calibrator = calibrator
        self.run_dir = run_dir
        with open("BENCH_8.json") as f8, open("BENCH_9.json") as f9:
            self.checker = bl.Checker(*bl.load_references(f8.read(), f9.read()))
        self.tally = bl.Tally()
        self.clock = bl.HostClock()
        self.last_cal = -math.inf
        self.samples = []  # (round trip ns, clock segment) per timed request
        self.hit_latencies_ns = []
        self.setup_s = []
        self.ready_s = []
        self.rss_kb = []
        self.passes = 0
        self.candidates = 0
        self.counters = {"hits": 0, "disk_hits": 0, "misses": 0, "errors": 0}
        self.start = None
        self.first_mark = None
        self.wall_s = None
        self.raw_wall_s = None
        self.trace_lines = []
        self.live = []
        self.spawned = 0

    def new_store(self):
        path = os.path.join(self.run_dir, f"store{self.spawned}")
        os.makedirs(path)
        return path

    def spawn(self, store):
        self.spawned += 1
        d = Daemon(self.serve_bin, os.path.join(self.run_dir, f"d{self.spawned}.sock"), store)
        self.live.append(d)
        self.ready_s.append(d.ready_s)
        return d

    def calibrate(self):
        """Run the kernel once and mark the clock; returns the new mark's
        index."""
        t0 = time.perf_counter()
        ns = self.calibrator.kernel_ns()
        self.last_cal = time.perf_counter()
        self.clock.mark(t0, self.last_cal, ns)
        return self.clock.segment()

    def answer(self, line, response):
        reason = self.checker.check(line, response)
        if reason:
            self.tally.fail(reason)
        else:
            self.tally.ok()

    def request(self, d, line):
        """One checked request, calibrating first when it is due."""
        if time.perf_counter() - self.last_cal >= CAL_EVERY_S:
            self.calibrate()
        try:
            response, ns = d.request(line)
        except DaemonError as e:
            self.tally.fail(f"{line!r}: {e}")
            raise
        self.answer(line, response)
        return ns

    def send(self, d, line, memory_hit=False):
        """A timed request: a latency sample, and its tune candidates."""
        ns = self.request(d, line)
        self.samples.append((ns, self.clock.segment()))
        if memory_hit:
            self.hit_latencies_ns.append(ns)
        self.candidates += self.checker.candidates.get(line, 0)

    def close(self, d, expect, timed=True):
        """Shut `d` down and reconcile its counters with `expect`; a timed
        session also contributes its peak RSS and counters."""
        if timed:
            self.rss_kb.append(d.vmhwm_kb())
        report = d.shutdown()
        self.live.remove(d)
        for reason in bl.reconcile(report, expect):
            self.tally.fail(f"counters: {reason}", attempted=False)
        if timed and report:
            for k in ("hits", "disk_hits", "misses"):
                self.counters[k] += report["cache"][k]
            self.counters["errors"] += report["errors"]

    def begin(self):
        self.first_mark = self.calibrate()
        self.start = time.perf_counter()

    def end_pass(self, seconds):
        """Close a pass; True once the timed phase has run long enough."""
        self.passes += 1
        return time.perf_counter() - self.start >= seconds and len(self.samples) >= MIN_REQUESTS

    def finish(self):
        """Close the timed phase: its wall time, raw and host-scaled."""
        self.raw_wall_s = time.perf_counter() - self.start
        self.wall_s = self.clock.span_s(self.first_mark, self.calibrate())

    def latencies_ms(self):
        """Host-scaled round trips of the timed requests, in ms."""
        factors = {seg: self.clock.factor(seg) for seg in {seg for _, seg in self.samples}}
        return [ns * factors[seg] / 1e6 for ns, seg in self.samples]

    def setup_spawns(self):
        """Set-up samples: spawn-to-ready of daemons on empty stores, each
        scaled by the start-up reference timed just before it."""
        for i in range(SETUP_SPAWNS):
            ref_s = self.calibrator.start_s(os.path.join(self.run_dir, f"start{i}"))
            d = self.spawn(self.new_store())
            self.setup_s.append(d.ready_s * bl.REF_START_S / ref_s)
            self.close(d, expect(0), timed=False)


def expect(requests, hits=0, disk_hits=0, misses=0):
    return {"requests": requests, "hits": hits, "disk_hits": disk_hits, "misses": misses, "errors": 0}


def cold_passes(run, seconds, lines):
    """A fresh daemon on an empty store per pass; each pass sends `lines`
    shuffled."""
    run.setup_spawns()
    run.begin()
    while True:
        order = run.rng.sample(lines, len(lines))
        d = run.spawn(run.new_store())
        for line in order:
            run.send(d, line)
        run.close(d, expect(len(lines), misses=len(lines)))
        if run.end_pass(seconds):
            break
    run.finish()
    run.trace_lines = run.rng.sample(lines, len(lines))


def suite_cold(run, seconds):
    cold_passes(run, seconds, bl.NAMES)


def tune_cold(run, seconds):
    cold_passes(run, seconds, [f"tune {n}" for n in bl.NAMES])


def case_stream(run, seconds):
    """One daemon on an empty store; distinct random case specs with one
    re-send per block of five frames. A pass is one block of five."""
    run.setup_spawns()
    d = run.spawn(run.new_store())
    stream, sent, seen = bl.case_stream(run.rng), [], set()
    rss_kb = None
    run.begin()
    while True:
        for _ in range(5):
            line = next(stream)
            run.send(d, line, memory_hit=line in seen)
            seen.add(line)
            sent.append(line)
        if rss_kb is None and len(sent) >= CASE_RSS_REQUESTS:
            rss_kb = d.vmhwm_kb()
        if run.end_pass(seconds):
            break
    run.finish()
    n = run.passes
    run.close(d, expect(5 * n, hits=n, misses=4 * n))
    if rss_kb is not None:
        # The memo grows with every answer, so the peak at shutdown would
        # measure how many requests the host got through; a fixed request
        # count makes it a property of the program.
        run.rss_kb[-1] = rss_kb
    run.trace_lines = sent[:TRACE_CASES]


def warm_lines(rng):
    cases = set()
    while len(cases) < WARM_CASES:
        cases.add(bl.random_spec(rng))
    lines = bl.NAMES + [f"tune {n}" for n in bl.NAMES] + sorted(cases)
    rng.shuffle(lines)
    return lines


def warm_restart(run, seconds):
    """Set-up fills a store with every answer of the list (one line per
    frame, so calibrations fall between them) and restarts the daemon on
    it; the timed phase restarts the daemon over and over and replays the
    list twice per restart: all disk hits, then all memory hits. A pass is
    one restart."""
    lines = warm_lines(run.rng)
    n = len(lines)
    for i in range(WARM_FILLS):
        store = run.new_store()
        first = run.calibrate()
        d = run.spawn(store)
        for line in lines:
            run.request(d, line)
        run.close(d, expect(n, misses=n), timed=False)
        d = run.spawn(store)
        run.setup_s.append(run.clock.span_s(first, run.calibrate()))
        if i + 1 < WARM_FILLS:
            run.close(d, expect(0), timed=False)
    run.begin()
    while True:
        if d is None:
            d = run.spawn(store)
        for hit in (False, True):
            for line in lines:
                run.send(d, line, memory_hit=hit)
        run.close(d, expect(2 * n, hits=n, disk_hits=n))
        d = None
        if run.end_pass(seconds):
            break
    run.finish()
    run.trace_lines = lines


WORKLOADS = {
    "suite-cold": suite_cold,
    "case-stream": case_stream,
    "tune-cold": tune_cold,
    "warm-restart": warm_restart,
}


def end_to_end(run):
    return {
        "setup_s": bl.median(run.setup_s),
        "req_p50_ms": bl.percentile(run.latencies_ms(), 50),
        "throughput_rps": len(run.samples) / run.wall_s,
        "peak_rss_mb": bl.median(run.rss_kb) / 1024,
        "success_rate": 1 - run.tally.fail_rate(),
    }


def e2e_details(run):
    """The end-to-end figures that do not apply to every workload: tail
    percentiles (where the sample supports them), simulated speedups (where
    rows were answered), tune candidates per second, and the counters."""
    ms = run.latencies_ms()
    io, ooo = bl.speedup_geomeans(run.checker)
    return {
        "req_p90_ms": bl.percentile(ms, 90),
        "req_p99_ms": bl.percentile(ms, 99),
        "req_samples": len(ms),
        "fail_rate": run.tally.fail_rate(),
        "sim_speedup_io_geomean": io,
        "sim_speedup_ooo_geomean": ooo,
        "tune_candidates_per_s": run.candidates / run.wall_s,
        "serve.restart_ms": (bl.median(run.ready_s) or 0) * 1e3,
        **{f"serve.{k}": v / max(run.passes, 1) for k, v in run.counters.items()},
    }


def replay(run, tracer_bin, workload, mode):
    """Run the in-process replayer on the workload's trace list; check its
    answers like the daemon's; return its summary."""
    mode_dir = os.path.join(run.run_dir, mode)
    os.makedirs(mode_dir)
    requests = os.path.join(mode_dir, "requests.txt")
    with open(requests, "w") as f:
        f.write("\n".join(run.trace_lines) + "\n")
    responses = os.path.join(mode_dir, "responses.txt")
    cmd = [tracer_bin, "--mode", mode, "--workload", workload, "--requests", requests,
           "--dir", mode_dir, "--responses", responses]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    if out.returncode != 0:
        raise BenchError(f"{mode} replay failed with exit code {out.returncode}")
    with open(responses) as f:
        answers = f.read().splitlines()
    passes = 2 if workload == "warm-restart" else 1
    lines = run.trace_lines * passes
    if len(answers) != len(lines):
        run.tally.fail(f"{mode} replay: {len(answers)} answers for {len(lines)} requests")
    for line, a in zip(lines, answers):
        run.answer(line, a)
    summary = json.loads(out.stdout.splitlines()[-1])
    if mode == "traced":
        with open(os.path.join(mode_dir, "spans.jsonl")) as f:
            summary["spans"] = sum(1 for _ in f)
    return summary


def per_layer(run, plain, traced):
    n = traced["requests"]
    layers, counters, probes = traced["layers"], traced["counters"], traced["probe_ns"]

    def incl(span):
        return layers.get(span, {}).get("incl_ns", 0)

    def own(span):
        return layers.get(span, {}).get("self_ns", 0) + probes.get(span, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    c = counters.get
    m = {}
    for name, (span, kind) in LAYER_MS.items():
        m[name] = (incl(span) if kind == "incl" else own(span)) / n / 1e6
    for name, span in LAYER_US.items():
        m[name] = incl(span) / n / 1e3
    for name in ("slicing.slice_insts", "trigger.triggers_placed", "codegen.insts_added",
                 "sim.busy_windows"):
        m[name] = c(name, 0)
    adapted_ns = incl("sim.adapted_io") + incl("sim.adapted_ooo")
    m["sim.adapted_mcycles_per_s"] = ratio(c("sim.adapted_cycles", 0) / 1e6, adapted_ns / 1e9)
    for model in ("io", "ooo"):
        m[f"sim.adapted_{model}_stepped_frac"] = ratio(
            c(f"sim.adapted_{model}_stepped_cycles", 0), c(f"sim.adapted_{model}_simulated_cycles", 0)
        )
    classified = c("sim.prefetch_classified", 0)
    m["sim.prefetch_timely_frac"] = ratio(c("sim.prefetch_timely", 0), classified)
    m["sim.prefetch_useless_frac"] = ratio(c("sim.prefetch_useless", 0), classified)
    m["fuzz.pass_frac"] = ratio(c("fuzz.passes", 0), c("fuzz.cases", 0))
    m["tune.eval_adapt_frac"] = ratio(c("tune.eval_adapt_ns", 0), c("tune.eval_computed_ns", 0))
    m["tune.memo_hit_frac"] = ratio(c("tune.memo_hits", 0), c("tune.memo_lookups", 0))
    for k in ("hits", "disk_hits", "misses"):
        m[f"bench.cache_{k}"] = traced["bench_cache"][k]
    m["persist.store_bytes"] = traced["store"]["bytes"]
    m["persist.store_entries"] = traced["store"]["entries"]
    m["serve.hit_us"] = plain["hit_ns"] / 1e3
    hit_us = bl.median(run.hit_latencies_ns)
    m["serve.transport_us"] = hit_us / 1e3 - m["serve.hit_us"] if hit_us else 0.0
    request_ns = incl("request")
    m["trace.request_ms"] = request_ns / n / 1e6
    m["trace.plain_request_ms"] = plain["request_ns"] / plain["requests"] / 1e6
    m["trace.overhead_ms"] = m["trace.request_ms"] - m["trace.plain_request_ms"]
    m["trace.overhead_frac"] = ratio(m["trace.overhead_ms"], m["trace.plain_request_ms"])
    m["trace.unattributed_frac"] = ratio(layers.get("request", {}).get("self_ns", 0), request_ns)
    m["trace.spans"] = traced["spans"]
    return m


def summarize(run, workload):
    """Human-readable figures on stderr, sample counts beside percentiles
    (after a finished timed phase), and the failures."""
    lines = [
        f"perfbench {workload} seed={run.seed}: {run.passes} passes, {len(run.samples)} "
        f"requests, {run.tally.failed} failed of {run.tally.attempted}"
    ]
    if run.wall_s is not None:
        d, e = e2e_details(run), end_to_end(run)

        def fmt(v, spec=".4f"):
            return "n/a" if v is None else format(v, spec)

        lines += [
            f"  timed phase {run.raw_wall_s:.2f} s, {run.wall_s:.2f} s host-scaled; "
            f"{len(run.clock.marks)} calibrations, median kernel "
            f"{bl.median([m[2] for m in run.clock.marks]) / 1e6:.3f} ms",
            f"  setup_s {fmt(e['setup_s'])} (median of {len(run.setup_s)}; "
            f"unscaled spawn-to-ready median {bl.median(run.ready_s) * 1e3:.3f} ms)",
            f"  req_p50_ms {fmt(e['req_p50_ms'])} p90 {fmt(d['req_p90_ms'])} "
            f"p99 {fmt(d['req_p99_ms'])} (n={d['req_samples']})",
            f"  sim_speedup_io_geomean {fmt(d['sim_speedup_io_geomean'])} "
            f"sim_speedup_ooo_geomean {fmt(d['sim_speedup_ooo_geomean'])} "
            f"tune_candidates_per_s {fmt(d['tune_candidates_per_s'], '.2f')}",
        ]
    lines += [f"  failure: {r}" for r in run.tally.reasons]
    print("\n".join(lines), file=sys.stderr)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # Turn SIGTERM into an exit, so the cleanup below stops the daemons.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        serve_bin, tracer_bin, calibrate_bin = build()
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    run_dir = os.path.join(RUN_ROOT, str(os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    calibrator = Calibrator(calibrate_bin, CAL_THREADS.get(args.workload, 1))
    run = Run(args.seed, serve_bin, calibrator, run_dir)
    try:
        WORKLOADS[args.workload](run, args.seconds)
        if args.trace:
            plain = replay(run, tracer_bin, args.workload, "plain")
            traced = replay(run, tracer_bin, args.workload, "traced")
            values, units = {**e2e_details(run), **per_layer(run, plain, traced)}, PER_LAYER
        else:
            values, units = end_to_end(run), END_TO_END
        # A figure the run cannot support (too few samples, no such rows)
        # reads 0; the stderr summary says which.
        metrics = {k: (0 if values[k] is None else values[k], u) for k, u in units.items()}
    except DaemonError as e:
        print(f"perfbench: daemon failure: {e}", file=sys.stderr)
        summarize(run, args.workload)
        return 1
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        for d in run.live:
            d.kill()
        run.calibrator.stop()
        shutil.rmtree(run_dir, ignore_errors=True)
        if os.path.isdir(RUN_ROOT) and not os.listdir(RUN_ROOT):
            os.rmdir(RUN_ROOT)
    summarize(run, args.workload)
    correct = run.tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

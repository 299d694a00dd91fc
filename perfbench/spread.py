#!/usr/bin/env python3
"""Run perfbench on several seeds and report each end-to-end metric's
median and spread ((Q3 - Q1) / median over the runs) against the bound
BENCHMARK.json fixes for it. Run from the repository root:

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--seconds 20]

Prints one line per workload and metric, then a JSON object with every
run's values as the last line. Exits 1 if any run failed its checks or
any spread exceeds its bound.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib as bl  # noqa: E402


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs, ok = {}, True
    for workload in args.workloads.split(","):
        values = runs.setdefault(workload, {})
        for seed in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            result = json.loads(out.stdout.splitlines()[-1]) if out.stdout.strip() else None
            if out.returncode != 0 or not result or not result["correct"]:
                print(f"{workload} seed {seed}: run failed (exit {out.returncode})")
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vs in values.items():
            if len(vs) < 2:
                continue
            spread = bl.quartile_spread(vs)
            within = spread <= bounds[name]
            ok &= within
            print(f"{workload:13s} {name:16s} median {bl.median(vs):.6g}  spread {spread:.4f}  "
                  f"bound {bounds[name]}  {'ok' if within else 'OVER'}")
    print(json.dumps(runs))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

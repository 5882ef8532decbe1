#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per seed on each workload and
reports, per metric, the median and the quartile spread
(Q3 - Q1) / median, with the quartiles from statistics.quantiles(n=4).
Run it from the repository root:

    python3 perfbench/spread.py --seeds 1-10 [--workload suite-rf3] \
        [--out spread.json]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    took = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {lines[-1]}")
    return result, took


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    report = {}
    for workload in workloads:
        values, seconds = {}, []
        for seed in args.seeds:
            result, took = run_once(bench, workload, seed)
            seconds.append(took)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {took:.1f} s "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
        rows = {}
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds.get(name), "n": len(vs)}
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if spread < bound / 3 else ("within bound" if spread < bound else "TOO WIDE")
            print(f"  {workload} {name}: median {med:.6g} spread {spread:.4f} {flag}")
        report[workload] = {"metrics": rows, "run_seconds_each": seconds}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()

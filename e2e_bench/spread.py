#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 e2e_bench/spread.py --workload felix_resnet50 --seeds 1-10 [--trace 0]

Run it from the repository root. For every metric it prints the median of
the per-seed values, the quartiles (as ``statistics.quantiles(v, n=4)``
gives them), and the spread: the distance between the first and third
quartile as a share of the median, next to the metric's bound from
``BENCHMARK.json``. Each run's result line is appended to
``.e2e_bench/spread-<workload>.jsonl``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    os.makedirs(".e2e_bench", exist_ok=True)
    log = os.path.join(".e2e_bench", f"spread-{args.workload}.jsonl")
    values = {}
    for seed in seeds_of(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit code {out.returncode}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        with open(log, "a") as f:
            f.write(json.dumps({"seed": seed, **result}) + "\n")
        if not result["correct"]:
            print(f"seed {seed}: output checks failed", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              file=sys.stderr)
    for name, v in values.items():
        med = statistics.median(v)
        if len(v) >= 2:
            q1, _, q3 = statistics.quantiles(v, n=4)
        else:
            q1 = q3 = v[0]
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        verdict = "" if bound is None else (" ok" if spread < bound / 3 else " WIDE")
        print(f"{name:34} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  spread {spread:7.4f}"
              + ("" if bound is None else f"  bound {bound}{verdict}"))


if __name__ == "__main__":
    main()

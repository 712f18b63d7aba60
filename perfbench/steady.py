#!/usr/bin/env python3
"""Check that the benchmark is steady: two sets of runs of the same code agree.

    python3 perfbench/steady.py

Run it from the root of the repository. For every workload of
BENCHMARK.json it runs the benchmark command RUNS times per set, for
run_seconds each and every run with its own seed, in two sets. For every
end-to-end metric it prints each set's median and quartiles, the spread
(distance between the quartiles as a share of the median) and whether the
two sets agree within the metric's bound: both spreads are within the
bound, and the second set's median differs from the first's, in either
direction, by no more than the bound. It exits non-zero when any metric
disagrees or any run fails.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

RUNS = 10  # runs per set
FIRST_SEED = 1000  # every run gets the next seed


def spread(values):
    """Interquartile distance as a share of the median, with quartiles as
    statistics.quantiles(values, n=4) gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def shift(first, second):
    """How far the second median is from the first, as a share of the
    first, whichever way it moved."""
    return abs(second / first - 1)


def agree(sets, bound):
    """Whether two sets of one metric agree within bound, and why not."""
    why = []
    for i, vs in enumerate(sets):
        s = spread(vs)
        if s > bound:
            why.append(f"set {i + 1} spread {s:.3f} > {bound}")
    d = shift(statistics.median(sets[0]), statistics.median(sets[1]))
    if d > bound:
        why.append(f"medians differ by {d:.3f} > {bound}")
    return not why, why


def run_once(cmd, workload, seed, seconds):
    out = subprocess.run(cmd + ["--workload", workload, "--seed", str(seed),
                                "--seconds", str(seconds), "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result {res}")
    return res["metrics"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ok = True
    seed = FIRST_SEED
    for w in (w["name"] for w in bench["workloads"]):
        sets = []
        for _ in range(2):
            runs = []
            for _ in range(RUNS):
                runs.append(run_once(bench["command"], w, seed, bench["run_seconds"]))
                seed += 1
            sets.append(runs)
        print(f"\n{w}: {RUNS} runs per set", flush=True)
        print(f"  {'metric':<12} {'set':>3} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>7} {'bound':>6}  verdict")
        for m in bench["end_to_end"]:
            vals = [[r[m["name"]]["value"] for r in s] for s in sets]
            good, why = agree(vals, m["bound"])
            ok = ok and good
            for i, vs in enumerate(vals):
                q1, med, q3 = statistics.quantiles(vs, n=4)
                verdict = ("agree" if good else "DISAGREE: " + "; ".join(why)) if i == 1 else ""
                print(f"  {m['name']:<12} {i + 1:>3} {q1:>12.6g} {med:>12.6g} {q3:>12.6g} "
                      f"{spread(vs):>7.3f} {m['bound']:>6}  {verdict}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Steadiness check: two sets of runs of the same code, compared against the
bounds in BENCHMARK.json.

    python3 perfbench/steadiness.py

Each of the two sets runs every workload in BENCHMARK.json ten times with
distinct seeds (set k uses seeds 1000 k + 1 ... 1000 k + 10), one run at a
time.  For every end-to-end metric it prints the median and quartiles of each
set, the spread (third minus first quartile, as a share of the median) and
how much the second set's median is worse than the first's.  It fails when a
spread exceeds the metric's bound, when a median drifts by more than the
bound in the worse direction, when the share of failed operations differs
between runs, or when a run is not correct.  The spread of setup_s is
printed but not gated: set-up is a median of short fresh processes, and on a
shared 2-CPU virtual machine it spread by 11-30% per set while its median moved
by 8-13%; its drift is gated like every other metric's.  Raw results go to
perfbench/out/steadiness.json.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SETS = 2


def run_once(bench, workload, seed):
    cmd = [sys.executable, os.path.join(ROOT, *bench["command"][1:]), "--workload", workload,
           "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - t0
    return result


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]

    raw = {w: [[] for _ in range(SETS)] for w in names}
    for w in names:
        for k in range(SETS):
            for i in range(RUNS):
                r = run_once(bench, w, 1000 * (k + 1) + i + 1)
                raw[w][k].append(r)
                print(f"{w} set {k + 1} run {i + 1}: {r['elapsed_s']:.1f} s, "
                      f"failed {r['failed']}/{r['attempted']}", file=sys.stderr, flush=True)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steadiness.json"), "w") as fh:
        json.dump(raw, fh, indent=1)

    ok = True
    print("| workload | metric | set | median | q1 | q3 | spread | bound | drift |")
    print("|---|---|---|---|---|---|---|---|---|")
    for w in names:
        shares = {r["failed"] / r["attempted"] for runs in raw[w] for r in runs}
        if len(shares) > 1:
            ok = False
            print(f"{w}: failed share differs between runs: {sorted(shares)}", file=sys.stderr)
        if not all(r["correct"] for runs in raw[w] for r in runs):
            ok = False
            print(f"{w}: a run reported correct = false", file=sys.stderr)
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sign = 1.0 if m["better"] == "lower" else -1.0
            sets = [summarise([r["metrics"][name]["value"] for r in runs]) for runs in raw[w]]
            for k, s in enumerate(sets):
                drift = sign * (s["median"] / sets[0]["median"] - 1.0)
                spread_gated = name != "setup_s"
                bad = (spread_gated and s["spread"] > bound) or drift > bound
                ok = ok and not bad
                print(f"| {w} | {name} | {k + 1} | {s['median']:.4g} | {s['q1']:.4g} | "
                      f"{s['q3']:.4g} | {s['spread']:.2%}{'' if spread_gated else ' (not gated)'} | "
                      f"{bound:.0%} | "
                      f"{drift:+.2%}{' FAIL' if bad else ''} |")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

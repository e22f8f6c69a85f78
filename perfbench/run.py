#!/usr/bin/env python3
"""Benchmark of planar3b: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {curves-points,spectra} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; planar3b is imported from ./src.
Load is a closed loop in one process and one thread: each operation starts
when the previous one ends.  A run repeats whole rounds of the workload's
fixed operation list until the next round would pass S seconds, so every
run attempts the same operations in the same proportions.

--trace 0 prints the end-to-end metrics: setup_s (median of 15 fresh
processes that import, load the config and finish the warm-up call, started
between rounds at even intervals over the run, the last ones after it when
rounds are long; their time counts towards S), wall_s (one round's time,
as the sum over its operations of each one's best time across rounds),
op_ms_p50 / op_ms_p90 (over the round's operations, of the same best
times) and peak_rss_mb (peak resident memory before the output checks
start).
--trace 1 spends half the time untraced and half traced and prints the
per-layer metrics (see layers.py), including the tracing overhead.

The outputs of the first round are checked against independent oracles
(checks.py) after the timed region; later rounds must reproduce them bit for
bit.  An operation that raises, differs from its first round or fails its
check counts as failed; `correct` is false when any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: set-up probes per measured run, spread evenly over its seconds
SETUP_PROBES = 15


def _import_program():
    """Import planar3b from the checkout's src, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "planar3b", "__init__.py")):
        sys.exit(f"perfbench: no planar3b sources under {SRC}")
    sys.path.insert(0, SRC)
    import planar3b

    if os.path.dirname(os.path.dirname(os.path.abspath(planar3b.__file__))) != SRC:
        sys.exit(f"perfbench: planar3b was imported from {planar3b.__file__}, not {SRC}")


def _setup_probe(workload, seed, out_dir):
    """Child process: time import, config load and warm-up from a cold start."""
    t0 = time.perf_counter()
    _import_program()
    import workloads

    workloads.build(workload, seed, out_dir)
    workloads.warm_up(workload, out_dir)
    print(json.dumps(time.perf_counter() - t0))


def _setup_probe_seconds(workload, seed, out_dir, i):
    """One fresh process's set-up time (see _setup_probe)."""
    probe_dir = os.path.join(out_dir, f"probe{i}")
    os.makedirs(probe_dir)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload,
         "--seed", str(seed), "--out", probe_dir],
        stdout=subprocess.PIPE, check=True, timeout=120, text=True)
    shutil.rmtree(probe_dir, ignore_errors=True)
    return float(proc.stdout.strip().splitlines()[-1])


class Rounds:
    """Runs whole rounds of `ops` and keeps what the result needs."""

    def __init__(self, ops):
        self.ops = ops
        self.op_seconds = [[] for _ in ops]  # per operation, one entry per round
        self.round_seconds = []
        self.first = None  # digests of the first round
        self.attempted = 0
        self.failed_attempts = [0] * len(ops)  # raised or differed from round 1
        self.clean_attempts = [0] * len(ops)
        self.reported = set()

    def run(self, seconds, after_round=None):
        start = time.perf_counter()
        while True:
            outs = []
            t_round = time.perf_counter()
            for op, seconds_of_op in zip(self.ops, self.op_seconds):
                t0 = time.perf_counter()
                try:
                    outs.append((op.run(), None))
                except Exception as exc:  # a failed operation; the run goes on
                    outs.append((None, exc))
                seconds_of_op.append(time.perf_counter() - t0)
            self.round_seconds.append(time.perf_counter() - t_round)
            digests = self._record(outs)
            if after_round is not None:
                after_round(digests)
            elapsed = time.perf_counter() - start
            if elapsed + self.round_seconds[-1] > seconds:
                return

    def _record(self, outs):
        digests = []
        for i, (op, (out, exc)) in enumerate(zip(self.ops, outs)):
            self.attempted += 1
            digest = None if exc is not None else op.digest(out)
            digests.append(digest)
            if self.first is not None and digest != self.first[i]:
                self.failed_attempts[i] += 1
                self._report(op, "differs from its first round" if exc is None else exc)
            elif exc is not None:
                self.failed_attempts[i] += 1
                self._report(op, exc)
            else:
                self.clean_attempts[i] += 1
        if self.first is None:
            self.first = digests
        return digests

    def _report(self, op, what):
        if op.label in self.reported:
            return
        self.reported.add(op.label)
        if isinstance(what, BaseException):
            detail = "".join(traceback.format_exception_only(type(what), what)).strip()
        else:
            detail = what
        print(f"perfbench: failed: {op.label}: {detail}", file=sys.stderr)

    def check(self):
        """Check first-round outputs; returns (failed, every check passed)."""
        failed = sum(self.failed_attempts)
        passed = True
        for i, op in enumerate(self.ops):
            if self.first[i] is None:
                continue
            problems = op.check(self.first[i])
            if problems:
                passed = False
                failed += self.clean_attempts[i]
                for p in problems:
                    print(f"perfbench: check failed: {op.label}: {p}", file=sys.stderr)
        return failed, passed


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _measure(args, out_dir):
    import workloads

    ops = workloads.build(args.workload, args.seed, out_dir)
    workloads.warm_up(args.workload, out_dir)
    setup = []
    start = time.perf_counter()

    def probe(_digests=None):
        # between rounds, once the run has reached the next probe's share of
        # its seconds: set-up time then sees the same stretch of machine
        # time as the rounds, not only its first seconds
        if time.perf_counter() - start >= len(setup) * args.seconds / SETUP_PROBES:
            setup.append(_setup_probe_seconds(args.workload, args.seed, out_dir, len(setup)))

    probe()
    rounds = Rounds(ops)
    rounds.run(args.seconds, probe)
    while len(setup) < SETUP_PROBES:
        setup.append(_setup_probe_seconds(args.workload, args.seed, out_dir, len(setup)))
    setup_s = statistics.median(setup)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # each operation's best time over the run's rounds, as timeit reports: on
    # a shared 2-CPU virtual machine other tenants slowed the CPU in bursts of
    # seconds, and ten-run spreads of per-operation medians reached 34%, of
    # best times 16%
    best = [min(times) for times in rounds.op_seconds]
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(best), "s"),
        "op_ms_p50": (1e3 * statistics.median(best), "ms"),
        "op_ms_p90": (1e3 * _quantile(best, 90), "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    return rounds, metrics


def _trace(args, out_dir):
    import planar3b.cli
    import planar3b.potentials
    import planar3b.radial
    import planar3b.specfun
    import planar3b.wkb
    import layers
    import workloads

    ops = workloads.build(args.workload, args.seed, out_dir)
    workloads.warm_up(args.workload, out_dir)
    bessel = layers.bessel_us(planar3b.specfun)
    rounds = Rounds(ops)
    rounds.run(0.5 * args.seconds)
    untraced = statistics.median(rounds.round_seconds)
    n_untraced = len(rounds.round_seconds)

    modules = {"potentials": planar3b.potentials, "wkb": planar3b.wkb,
               "radial": planar3b.radial, "cli": planar3b.cli}
    tracer = layers.Tracer(modules)
    per_round = []

    def after_round(digests):
        per_round.append(layers.round_metrics(tracer.take(), planar3b.potentials,
                                             workloads.csv_bytes(digests)))

    tracer.install()
    try:
        tracer.take()  # drop anything recorded before the first traced round
        rounds.run(0.5 * args.seconds, after_round)
    finally:
        tracer.uninstall()
    traced = statistics.median(rounds.round_seconds[n_untraced:])
    if tracer.absent:
        print(f"perfbench: absent from the program: {sorted(tracer.absent)}", file=sys.stderr)
    values = layers.median_metrics(per_round, tracer.absent)
    values.update(bessel)
    values["trace.overhead_ratio"] = traced / untraced
    units = {name: unit for name, unit, _, _ in layers.PER_LAYER}
    return rounds, {name: (values[name], units[name]) for name, *_ in layers.PER_LAYER}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("curves-points", "spectra"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        _setup_probe(args.workload, args.seed, args.out)
        return 0
    if args.seconds is None or args.seconds <= 0:
        parser.error("--seconds must be given and positive")
    _import_program()
    out_dir = os.path.join(HERE, "out", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(out_dir)
    try:
        if args.trace:
            rounds, metrics = _trace(args, out_dir)
        else:
            rounds, metrics = _measure(args, out_dir)
        failed, passed = rounds.check()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    result = {
        "correct": passed,
        "attempted": rounds.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

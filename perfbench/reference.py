#!/usr/bin/env python3
"""Reference figures recorded beside the benchmark (not gated).

    python3 perfbench/reference.py

Prints, as Markdown: the machine (CPU count, Python and numpy versions, and
the share of CPU time stolen by the host while this script ran, from
/proc/stat); `planar3b validate` in total and per check; the Tier-1 test
suite; the default `planar3b potentials` run serial and with `--jobs 2`
(wall time, stderr lines, whether the CSVs agree byte for byte); and
microseconds per call of K, J and Y on each argument range.
"""

from __future__ import annotations

import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def cpu_times():
    """(steal, total) jiffies of all CPUs, or None where /proc/stat is absent."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except OSError:
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def timed(cmd, **kwargs):
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, **kwargs)
    return time.perf_counter() - t0, proc


def main():
    sys.path.insert(0, SRC)
    import numpy as np

    import layers
    from planar3b import cli, specfun, validation

    start = cpu_times()
    lines = []

    dt, proc = timed([sys.executable, "-m", "planar3b.cli", "validate"])
    lines += ["## planar3b validate", "",
              f"`planar3b validate`: {dt:.2f} s wall, exit {proc.returncode}.", "",
              "| check | s |", "|---|---|"]
    cfg = cli.default_config()
    for check in validation.ALL_CHECKS:
        t0 = time.perf_counter()
        result = check(cfg)
        lines.append(f"| {result.name} | {time.perf_counter() - t0:.2f} |")

    if os.path.isdir(os.path.join(ROOT, "tests")):
        dt, proc = timed([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "--continue-on-collection-errors"])
        summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "no output"
        lines += ["", "## Tier-1 suite", "", f"{dt:.1f} s wall: {summary}"]

    lines += ["", "## planar3b potentials (default configuration)", "",
              "| run | s | stderr lines |", "|---|---|---|"]
    outputs = {}
    for label, extra in (("serial", []), ("--jobs 2", ["--jobs", "2"])):
        out = os.path.join(HERE, "out", "reference-" + label.strip("-").replace(" ", ""))
        shutil.rmtree(out, ignore_errors=True)
        dt, proc = timed([sys.executable, "-m", "planar3b.cli", "potentials", "--output", out]
                         + extra)
        outputs[label] = {name: open(os.path.join(out, name), "rb").read()
                          for name in sorted(os.listdir(out))}
        shutil.rmtree(out, ignore_errors=True)
        lines.append(f"| {label} | {dt:.2f} | {len(proc.stderr.splitlines())} |")
    same = outputs["serial"] == outputs["--jobs 2"]
    lines += ["", f"CSV files byte-identical between the two runs: {same}."]

    lines += ["", "## Bessel functions, us per call (orders 0 and 1)", "",
              "| function | small | mid | large |", "|---|---|---|---|"]
    us = layers.bessel_us(specfun)
    for key, label in (("k", "K (x <= 2, 2-16, >= 16)"), ("j", "J (x <= 6, 6-16, >= 16)"),
                       ("y", "Y (x <= 6, 6-16, >= 16)")):
        row = " | ".join(f"{us[f'specfun.{key}_us.{r}']:.1f}" for r in ("small", "mid", "large"))
        lines.append(f"| {label} | {row} |")

    end = cpu_times()
    steal = "unknown"
    if start and end and end[1] > start[1]:
        steal = f"{(end[0] - start[0]) / (end[1] - start[1]):.1%}"
    head = ["## Machine", "",
            f"{os.cpu_count()} CPUs, Python {platform.python_version()}, numpy {np.__version__}, "
            f"host steal {steal} of CPU time during this script.", ""]
    print("\n".join(head + lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's two workloads: seeded inputs, operations and their checks.

An operation is one call a user of planar3b would make.  `run` is the timed
part; `digest` turns its result into a plain value that later rounds must
reproduce exactly; `check` compares the digest with an independent oracle
(see checks.py) outside the timed region.

* curves-points - `planar3b potentials` commands, run in process through
  `cli.main`: one over the s-wave branches on their default grid and one over
  the seven p-wave branches per a1 band, each with seeded a0, mixed with
  independent single-point root solves plus the block-determinant
  cross-check, branches and radii drawn at random.
* spectra - Numerov levels, the zero-energy level count, full-phase WKB
  levels and the exact zero-energy solution for three (nu0, a1) pairs, with
  a seeded WKB phase and zero-energy weight.

Draws are stratified (a fixed number of operations per band, with seeded
values inside each band), so that the work of one round, and with it the
wall time, barely depends on the seed.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from planar3b import cli, potentials, radial, scattering, wkb
from planar3b.twobody import TwoBodyParams, pwave_pole

WORKLOADS = ("curves-points", "spectra")


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    digest: Callable[[object], object]
    check: Callable[[object], list]


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


# ---------------------------------------------------------------- curves

ALL_BRANCHES = "s+,s-,I+,I-,I0,II+,II-,II0,asym"
S_BRANCHES = "s+,s-"
P_BRANCHES = "I+,I-,I0,II+,II-,II0,asym"
#: a1 bands from far off resonance to near it, one p-wave command each per
#: round, on the default p-wave window R/r1 = 1.2-60 (log) with a quarter of
#: the default 400 points, so a round takes about 4-6 s
CURVE_A1_BANDS = ((15.0, 40.0), (60.0, 200.0), (300.0, 1000.0), (3e3, 3e4))
P_SWEEP = (1.2, 60.0, 100)


def _write_ini(path, a0, a1, sweep=None):
    """INI for one command; sweep = (r_min, r_max, points), or None for the
    program's per-family default windows."""
    with open(path, "w") as fh:
        fh.write(f"[twobody]\na0 = {a0!r}\na1 = {a1!r}\n")
        if sweep is not None:
            r_min, r_max, points = sweep
            fh.write(f"\n[sweep]\nr_min = {r_min!r}\nr_max = {r_max!r}\n"
                     f"points = {points}\nlog = true\n")


def _curve_op(i, rng, out_dir, branches, a1, sweep):
    a0 = rng.uniform(5.0, 20.0)
    op_dir = os.path.join(out_dir, f"curves{i}")
    os.makedirs(op_dir, exist_ok=True)
    ini = os.path.join(op_dir, "run.ini")
    _write_ini(ini, a0, a1, sweep)
    argv = ["potentials", "--config", ini, "--branch", branches, "--output", op_dir]
    expected = len(branches.split(","))
    check_rng = random.Random(rng.random())

    def run():
        return cli.main(argv)

    def digest(code):
        names = sorted(n for n in os.listdir(op_dir) if n.endswith(".csv"))
        files = []
        for name in names:
            with open(os.path.join(op_dir, name), "rb") as fh:
                files.append((name, fh.read()))
        return code, tuple(files)

    def check(dig):
        import checks  # mpmath loads only for checks, outside set-up and timing

        code, files = dig
        if code != 0:
            return [f"potentials exited with {code}"]
        curves = {}
        for _, data in files:
            text = data.decode()
            branch = text.splitlines()[2].split(",")[2]
            curves[branch] = checks.parse_curve_csv(text)
        if len(curves) != expected:
            return [f"expected {expected} branch CSVs, found {sorted(curves)}"]
        return checks.curves_problems(curves, a0, 1.0 / a1, check_rng)

    return Op(f"curves {branches} a0={a0:.4g} a1={a1:.4g}", run, digest, check)


def _curve_ops(rng, out_dir):
    """One s-wave command on the default grid (R/a0 = 0.02-6, 400 log
    points; a1 does not enter the s-wave branches) and one p-wave command
    per a1 band."""
    ops = [_curve_op(0, rng, out_dir, S_BRANCHES, 100.0, None)]
    for i, band in enumerate(CURVE_A1_BANDS, start=1):
        ops.append(_curve_op(i, rng, out_dir, P_BRANCHES, _log_uniform(rng, *band), P_SWEEP))
    return ops


def csv_bytes(digests) -> int:
    """Bytes of CSV written by the `potentials` commands of one round."""
    total = 0
    for dig in digests:
        if isinstance(dig, tuple) and len(dig) == 2 and isinstance(dig[1], tuple):
            total += sum(len(data) for _, data in dig[1])
    return total


# ---------------------------------------------------------------- points

#: operations per branch in one round; R is R/a0 for s-wave, R/r1 otherwise.
#: Branch II appears only at exact resonance (II0): off resonance, at
#: scattered inputs (II+ at a0 = 5.93, a1 = 15.58, R = 32.78; II- at
#: a0 = 9.49, a1 = 31.6, R = 80.4) solve_pwave_II returns the unphysical zero
#: of the inverse-T combination near xi ~ 0.93-0.99 and determinant_residual
#: then raises TMatrixPoleError, so whether a run fails would depend on the seed.
POINT_BRANCHES = ("s+", "s-", "I+", "I-", "I0", "II0")
POINTS_PER_BRANCH = 30
#: I- inputs at kappa1 R > 16 where the root exists (it lies within 1e-9 of
#: the scan cap kappa1 (1 - 1e-9)) but solve_pwave_I raises NoRealRootError.
#: They do not depend on the seed; every round attempts them.
I_MINUS_CAP_MISSES = ((13.36, 34.0, 141.1), (10.0, 100.0, 300.0),
                      (8.0, 1000.0, 1100.0), (20.0, 20.0, 100.0))

_SOLVERS = {
    "I+": ("solve_pwave_I", +1, "zero"), "I-": ("solve_pwave_I", -1, "zero"),
    "I0": ("solve_pwave_I", +1, "zero"),
    "II0": ("solve_pwave_II", +1, "plus"),
}


def _point_inputs(branch, rng):
    """(a0, a1, R) for one point; a1 = inf at exact resonance."""
    a0 = rng.uniform(5.0, 20.0)
    if branch == "s+":
        return a0, math.inf, _log_uniform(rng, 0.02, 6.0)
    if branch == "s-":
        return a0, math.inf, _log_uniform(rng, 1.05, 6.0)
    if branch in ("I0", "II0"):  # the closed-form range at exact resonance
        return a0, math.inf, _log_uniform(rng, 1e2, 1e4)
    a1 = _log_uniform(rng, 15.0, 1e4)
    if branch == "I+":
        return a0, a1, _log_uniform(rng, 3.0, 60.0)
    # I-: above sqrt(2 a1), where it detaches, and below kappa1 R = 14,
    # short of the scan-cap fault at kappa1 R > 15.3
    return a0, a1, _log_uniform(rng, 1.1 * math.sqrt(2.0 * a1), 14.0 / pwave_pole(1.0 / a1))


def _point_op(branch, a0, a1, R):
    if branch in ("s+", "s-"):
        sign = +1 if branch == "s+" else -1

        def run():
            return potentials.solve_swave(R, sign), None
    else:
        name, sign, block = _SOLVERS[branch]
        params = TwoBodyParams.from_a1(a0=a0, a1=a1)

        def run():
            root = getattr(potentials, name)(R, params, sign)
            return root, potentials.determinant_residual(root.xi, R, params, block)

    a1_inv = 0.0 if math.isinf(a1) else 1.0 / a1

    def digest(out):
        root, det = out
        return float(root.xi), float(root.residual), bool(root.converged), root.n_roots, det

    def check(dig):
        import checks  # mpmath loads only for checks, outside set-up and timing

        xi, _, converged, _, det = dig
        if not converged:
            return [f"{branch} at R = {R!r}: root not converged"]
        problems = checks.root_problems(branch, R, xi, a0, a1_inv)
        if det is not None:
            problems += checks.determinant_problems(
                xi, a0, a1_inv, det,
                lambda x: potentials.determinant_residual(x, R, params, block))
        return problems

    return Op(f"points {branch} a0={a0!r} a1={a1!r} R={R!r}", run, digest, check)


# ---------------------------------------------------------------- spectra

#: (nu0, a1), one operation each per round.  These stay fixed: the Numerov
#: shot count jumps by up to 20% under 2% changes of (nu0, a1), which would
#: make the work of a round depend on the seed.  The seed sets the WKB phase
#: theta and the Y1 weight B of the zero-energy solution.
SPECTRA_PAIRS = ((50.0, 100.0), (100.0, 320.0), (200.0, 1000.0))
NUMEROV_LEVELS = 2
WKB_LEVELS = 6
#: z = 2 sqrt(nu0 x) over the J/Y ranges z <= 6, 6 < z < 16 and z >= 16
ZERO_ENERGY_Z = np.linspace(0.5, 24.0, 240)
UNIFIED = potentials.UnifiedPotential()


def _spectrum_op(i, rng):
    nu0, a1 = SPECTRA_PAIRS[i]
    theta = rng.uniform(-1.0, 1.0)
    B = rng.uniform(0.2, 1.0)
    window = (1.0, scattering.r1_range(a1))
    cfg = wkb.WkbConfig(theta=theta, phase_mode="full")
    x = ZERO_ENERGY_Z**2 / (4.0 * nu0)

    def run():
        states = radial.bound_states_numerov(UNIFIED, nu0, window, NUMEROV_LEVELS)
        count = radial.count_negative_levels(UNIFIED, nu0, window)
        spec = wkb.quantize_spectrum((1, WKB_LEVELS), nu0, cfg)
        zero = radial.zero_energy_exact(x, nu0, 1.0, B)
        return states, count, spec, zero

    def digest(out):
        states, count, spec, zero = out
        return (tuple(float(e) for e in states.energies), tuple(states.nodes),
                states.complete, count,
                tuple((n, float(rho), float(e)) for n, rho, e in spec.levels),
                zero.values.tobytes())

    def check(dig):
        import checks  # mpmath loads only for checks, outside set-up and timing

        energies, nodes, complete, count, levels, zero = dig
        problems = checks.numerov_problems(energies, nodes, complete, count, nu0,
                                           math.log(window[1]), NUMEROV_LEVELS)
        if len(levels) != WKB_LEVELS:
            problems.append(f"quantize_spectrum returned {len(levels)} of {WKB_LEVELS} levels")
        problems += checks.wkb_problems(levels, nu0, theta)
        problems += checks.zero_energy_problems(x, np.frombuffer(zero), nu0, 1.0, B)
        return problems

    return Op(f"spectra nu0={nu0:.4g} a1={a1:.4g}", run, digest, check)


# ---------------------------------------------------------------- entry points

def build(name: str, seed: int, out_dir: str) -> list:
    """The fixed list of operations that one round of workload `name` runs."""
    rng = random.Random(f"{name}-{seed}")
    if name == "curves-points":
        curves = _curve_ops(rng, out_dir)
        specs = [(b, *_point_inputs(b, rng))
                 for b in POINT_BRANCHES for _ in range(POINTS_PER_BRANCH)]
        specs += [("I-", a0, a1, R) for a0, a1, R in I_MINUS_CAP_MISSES]
        rng.shuffle(specs)
        return curves + [_point_op(*spec) for spec in specs]
    if name == "spectra":
        return [_spectrum_op(i, rng) for i in range(len(SPECTRA_PAIRS))]
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def warm_up(name: str, out_dir: str) -> None:
    """One small call through each code path the workload times."""
    if name == "curves-points":
        warm = os.path.join(out_dir, "warmup")
        os.makedirs(warm, exist_ok=True)
        ini = os.path.join(warm, "run.ini")
        _write_ini(ini, 10.0, 100.0, (1.2, 60.0, 4))
        cli.load_config(ini)
        code = cli.main(["potentials", "--config", ini, "--branch", ALL_BRANCHES,
                         "--output", warm])
        if code != 0:
            raise RuntimeError(f"warm-up potentials command exited with {code}")
        for branch in POINT_BRANCHES:
            _point_op(branch, *_point_inputs(branch, random.Random(branch))).run()
    elif name == "spectra":
        radial.bound_states_numerov(UNIFIED, 20.0, (1.0, 3.0), 1)
        radial.count_negative_levels(UNIFIED, 20.0, (1.0, 3.0))
        wkb.quantize_spectrum((1, 2), 20.0, wkb.WkbConfig(phase_mode="full"))
        radial.zero_energy_exact(np.array([0.2, 1.5, 5.0]), 20.0, 1.0, 0.5)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")

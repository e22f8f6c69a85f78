"""Acceptance checks shared by ``planar3b validate`` and the test suite.

Each check pins its own physics parameters and tolerances and reads nothing
from the run configuration it is passed.  Special-function checks compare
against frozen arbitrary-precision reference tables (``_refvals``), so the
installed package validates without any extra dependency.
"""

from __future__ import annotations

import math
import tempfile
import time
from dataclasses import dataclass, replace

import numpy as np

from . import _refvals, potentials, radial, scattering, specfun, wkb
from .errors import NoRealRootError, TMatrixPoleError
from .twobody import TwoBodyParams, dimer_energies, pole_function

_UNIFIED = potentials.UnifiedPotential()


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    module: str = ""  # filled in by run_checks from CHECKS


def _result(name, passed, detail):
    return CheckResult(name=name, passed=bool(passed), detail=detail)


# ----------------------------------------------------------------- criterion 1

def check_specfun_oracle(cfg) -> CheckResult:
    t0 = time.perf_counter()
    worst = 0.0
    worst_at = ""
    tables = {
        "j0": (specfun.bessel_j, 0, _refvals.J0),
        "j1": (specfun.bessel_j, 1, _refvals.J1),
        "y0": (specfun.bessel_y, 0, _refvals.Y0),
        "y1": (specfun.bessel_y, 1, _refvals.Y1),
        "k0": (specfun.bessel_k, 0, _refvals.K0),
        "k1": (specfun.bessel_k, 1, _refvals.K1),
        "k2": (specfun.bessel_k, 2, _refvals.K2),
    }
    for name, (fn, order, table) in tables.items():
        for x, ref in table:
            rel = abs(fn(order, x) - ref) / abs(ref)
            if rel > worst:
                worst, worst_at = rel, f"{name}(x={x:.4g})"
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and dt < 1.0
    return _result(
        "specfun_oracle", ok,
        f"350 frozen oracle points, worst rel err {worst:.2e} at {worst_at}, {dt:.2f} s",
    )


# ----------------------------------------------------------------- criterion 2

def check_swave_branches(cfg) -> CheckResult:
    t0 = time.perf_counter()
    grid = np.logspace(math.log10(0.005), math.log10(20.0), 500)
    worst_small = worst_large = 0.0
    for r in grid:
        xi = potentials.solve_swave(float(r), +1).xi
        if r <= 0.05:
            worst_small = max(worst_small, abs(xi / math.sqrt(1.0 / r) - 1.0))
        if r >= 5.0:
            xi_asym = math.sqrt(-potentials.swave_asymptote(float(r), +1, "large"))
            worst_large = max(worst_large, abs(xi / xi_asym - 1.0))
    no_root_ok = True
    for r in np.linspace(0.05, 0.999, 25):
        try:
            potentials.solve_swave(float(r), -1)
            no_root_ok = False
        except NoRealRootError:
            pass
    vm = [-potentials.solve_swave(float(r), -1).xi ** 2
          for r in np.logspace(math.log10(1.01), math.log10(25.0), 40)]
    repulsive = all(b < a for a, b in zip(vm, vm[1:])) and vm[0] > -0.5
    dt = time.perf_counter() - t0
    ok = worst_small <= 0.03 and worst_large <= 0.03 and no_root_ok and repulsive and dt < 5.0
    return _result(
        "swave_branches", ok,
        f"small-R dev {worst_small:.3%}, large-R dev {worst_large:.3%}, "
        f"'-' no-root below a0: {no_root_ok}, repulsive: {repulsive}, {dt:.2f} s",
    )


# ----------------------------------------------------------------- criterion 3

def check_pwave_closed_forms(cfg) -> CheckResult:
    res_params = TwoBodyParams(a0=10.0, a1_inv=0.0)
    rs = np.logspace(3, 6, 7)
    dev_i, dev_ii = [], []
    for r in rs:
        dev_i.append(abs(potentials.xi_I0_closed(float(r))
                         / potentials.solve_pwave_I(float(r), res_params, +1).xi - 1.0))
        dev_ii.append(abs(potentials.xi_II0_closed(float(r))
                          / potentials.solve_pwave_II(float(r), res_params, +1).xi - 1.0))
    mono = all(b < a for a, b in zip(dev_i, dev_i[1:])) and all(
        b < a for a, b in zip(dev_ii, dev_ii[1:])
    )
    merge = abs(
        potentials.v_pwave(potentials.xi_I0_closed(1e6))
        - potentials.v_pwave(potentials.xi_II0_closed(1e6))
    ) / abs(potentials.v_unified(1e6))
    ok = max(dev_i) <= 0.05 and max(dev_ii) <= 0.05 and mono and merge < 0.1
    return _result(
        "pwave_closed_forms", ok,
        f"max dev I {max(dev_i):.3%}, II {max(dev_ii):.3%}, monotone: {mono}, "
        f"merge metric at 1e6: {merge:.3f}",
    )


# ----------------------------------------------------------------- criterion 4

def check_determinant_consistency(cfg) -> CheckResult:
    # Sample where the two routes are commensurate: once kappa1*R >> 10 the
    # Bessel terms are ~e^-(kappa1 R) and the determinant near its zero
    # scales like 1/(g f) ~ e^(kappa1 R), so a root located to the last ulp
    # still cannot push |det| below 1e-8 in double arithmetic.
    count = skipped = 0
    worst = 0.0
    for a0 in (5.0, 10.0, 25.0):
        for a1_inv in (0.01, 0.001, 0.0):
            params = TwoBodyParams(a0=a0, a1_inv=a1_inv)
            radii = (5.0, 12.0, 30.0, 80.0)
            if a1_inv == 0.0:
                radii += (300.0, 1000.0)
            for r in radii:
                jobs = [
                    (potentials.solve_pwave_I, +1, "zero"),
                    (potentials.solve_pwave_I, -1, "zero"),
                    (potentials.solve_pwave_II, +1, "plus"),
                    (potentials.solve_pwave_II, -1, "minus"),
                ]
                for solver, sign, block in jobs:
                    try:
                        root = solver(r, params, sign)
                    except NoRealRootError:
                        continue
                    if not root.converged:
                        continue
                    xi = root.xi
                    gf = abs(
                        pole_function(xi, a1_inv)
                        * (math.log(xi) + specfun.EULER_GAMMA + math.log(0.5 * a0))
                    )
                    if gf < 3e-7:  # det ~ F/(g f): 1e-8 unreachable in double
                        skipped += 1
                        continue
                    try:
                        det = abs(potentials.determinant_residual(xi, r, params, block))
                    except TMatrixPoleError:
                        continue
                    worst = max(worst, det)
                    count += 1
    ok = count >= 100 and worst <= 1e-8
    return _result(
        "determinant_consistency", ok,
        f"{count} converged roots sampled, worst |det| = {worst:.2e} "
        f"({skipped} ill-conditioned points excluded)",
    )


# ----------------------------------------------------------------- criterion 5

def check_spectrum_law(cfg) -> CheckResult:
    t0 = time.perf_counter()
    nu0 = 500.0
    spec = wkb.quantize_spectrum((5, 25), nu0, wkb.WkbConfig(theta=0.0))
    slope_err = abs(spec.slope_fit / spec.slope_theory - 1.0)
    n, e = spec.n, spec.E
    ratios = e[1:] / e[:-1]
    law = np.exp(-math.pi**2 * (n[:-1] + 0.5) / nu0) * (n[:-1] / (n[:-1] + 1.0)) ** 2
    sel = n[:-1] >= 10
    ratio_err = float(np.max(np.abs(ratios[sel] / law[sel] - 1.0)))
    dt = time.perf_counter() - t0
    ok = slope_err <= 0.02 and ratio_err <= 0.03 and dt < 10.0
    return _result(
        "spectrum_law", ok,
        f"slope rel err {slope_err:.2e}, ratio-law err (n>=10) {ratio_err:.2e}, {dt:.2f} s",
    )


# ----------------------------------------------------------------- criterion 6

def check_wkb_vs_numerov(cfg) -> CheckResult:
    r1 = dimer_energies(TwoBodyParams.from_a1(a0=10.0, a1=100.0)).R1
    nb = wkb.count_bound_states(100.0, 20.0)
    cnt = radial.count_negative_levels(_UNIFIED, 20.0, (1.0, r1))
    count_ok = abs(cnt - round(nb)) <= 1

    bs = radial.bound_states_numerov(_UNIFIED, 100.0, (1.0, r1), 3)
    spec = wkb.quantize_spectrum((1, 3), 100.0, wkb.WkbConfig(phase_mode="full"))
    devs = [abs(lv[2] / e - 1.0) for e, lv in zip(bs.energies, spec.levels)]
    deep_ok = len(devs) == 3 and max(devs) < 0.15
    ok = count_ok and deep_ok
    return _result(
        "wkb_vs_numerov", ok,
        f"count {cnt} vs N_b {nb:.3f} (round {round(nb)}); deepest-3 max dev "
        f"{max(devs):.3%}" if devs else "no levels found",
    )


# ----------------------------------------------------------------- criterion 7

def check_phi_correction(cfg) -> CheckResult:
    nu0 = 500.0
    chain_bound = 2e-10
    phi = wkb.phi_correction(2.0, 1e4, nu0)
    asym_dev = abs(phi * math.sqrt(1e4 / nu0) - (1.0 - math.log(2.0)))
    chain_worst = 0.0
    for x_eps in (1e2, 1e4):
        for x in (2.0, x_eps / 2.0):
            full = wkb.wkb_phase_langer(x, x_eps, nu0, _UNIFIED.langer_w, 0.0)
            approx = 2.0 * math.sqrt(nu0) * (math.sqrt(x_eps) - math.sqrt(x))
            corr = wkb.phi_correction(x, x_eps, nu0)
            chain_worst = max(chain_worst, abs(full - (approx - corr)))
    ok = asym_dev <= 1e-3 and chain_worst <= chain_bound
    return _result(
        "phi_correction", ok,
        f"asymptote dev {asym_dev:.2e} (<=1e-3), chain worst {chain_worst:.2e} "
        f"(<= {chain_bound:.1e})",
    )


# ----------------------------------------------------------------- criterion 8

def check_numerov_exact_solution(cfg) -> CheckResult:
    nu0 = 4.0
    h = 1e-3
    x = np.arange(0.5, 8.0 + h / 2, h)
    exact = radial.zero_energy_exact(x, nu0, 1.0, 0.3)
    num = radial.numerov_integrate(_UNIFIED, 0.0, x, (exact.values[0], exact.values[1]), nu0=nu0)
    scale = float(np.dot(exact.values, num.values) / np.dot(num.values, num.values))
    rms = math.sqrt(float(np.mean((scale * num.values - exact.values) ** 2)))
    errs = []
    for hh in (0.02, 0.01):
        xg = np.arange(0.5, 8.0 + hh / 2, hh)
        ex = radial.zero_energy_exact(xg, nu0, 1.0, 0.3)
        nm = radial.numerov_integrate(_UNIFIED, 0.0, xg, (ex.values[0], ex.values[1]), nu0=nu0)
        s = float(np.dot(ex.values, nm.values) / np.dot(nm.values, nm.values))
        errs.append(float(np.max(np.abs(s * nm.values - ex.values))))
    ratio = errs[0] / errs[1]
    ok = rms <= 1e-6 and 12.0 <= ratio <= 20.0
    return _result(
        "numerov_exact_solution", ok,
        f"RMS {rms:.2e} at h=1e-3; halving error ratio {ratio:.1f}",
    )


# ----------------------------------------------------------------- criterion 9

def check_resonance_series(cfg) -> CheckResult:
    tab = scattering.resonance_positions((1, 10), 100.0)
    round_trip = max(abs(row.N_b_at - (row.n + 0.5)) for row in tab.rows)
    row20 = scattering.resonance_positions((20, 20), 100.0).rows[0]
    asym_ratio = math.log(row20.a1_exact) / (math.pi**2 * 400.0 / 200.0)
    a1_res = scattering.resonance_positions((2, 2), 20.0).rows[0].a1_exact
    above = scattering.atom_molecule_A0(a1_res * (1 + 1e-6), 20.0)
    below = scattering.atom_molecule_A0(a1_res * (1 - 1e-6), 20.0)
    r1 = scattering.r1_range(a1_res)
    diverges = (above > 1e3 * r1 or math.isinf(above)) or (below > 1e3 * r1 or math.isinf(below))
    a1_int = 2.0 * math.exp(math.pi**2 * 9.0 / 200.0)
    at_integer = abs(scattering.atom_molecule_A0(a1_int, 100.0) / scattering.r1_range(a1_int) - 1.0)
    ok = round_trip <= 1e-12 and abs(asym_ratio - 1.0) <= 0.10 and diverges and at_integer < 1e-9
    return _result(
        "resonance_series", ok,
        f"round-trip {round_trip:.1e}, asymptotic ratio {asym_ratio:.4f}, "
        f"diverges at a1^(n): {diverges}, A0=R1 at integer N_b dev {at_integer:.1e}",
    )


# ----------------------------------------------------------------- criterion 10

def check_figure_shapes(cfg) -> CheckResult:
    from . import cli  # deferred: cli imports this module for `validate`

    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        run_cfg = cli.default_config()
        run_cfg.output_dir = tmp
        curves = cli.cmd_potentials(run_cfg, list(potentials.Branch))

        def curve(branch):
            return curves[branch]

    # Fig 2: s-wave pair, shared unit V/|eps0|
    sp, sm = curve(potentials.Branch.SWAVE_PLUS), curve(potentials.Branch.SWAVE_MINUS)
    vp = sp.V[sp.converged]
    if not (np.all(np.diff(vp) > 0) and vp[0] < -5.0 and abs(vp[-1] + 1.0) < 0.05):
        problems.append("s+ not attractive/monotone toward -|eps0|")
    sel = sm.converged & (sm.R_grid > 1.0)
    vm = sm.V[sel]
    if not (np.all(np.diff(vm) < 0) and abs(vm[-1] + 1.0) < 0.05):
        problems.append("s- not repulsive toward -|eps0|")
    both = sp.converged & sm.converged
    if not np.all(sm.V[both] > sp.V[both]):
        problems.append("V- does not dominate V+")

    # Fig 3: branch I at a1=100
    d = dimer_energies(TwoBodyParams.from_a1(a0=10.0, a1=100.0))
    ip, im = curve(potentials.Branch.PWAVE_I_PLUS), curve(potentials.Branch.PWAVE_I_MINUS)
    vip = ip.V[ip.converged]
    if not (np.all(np.diff(vip) > 0) and abs(vip[-1] / d.eps1_pole - 1.0) < 0.05):
        problems.append("I+ not monotone toward eps1")
    sel = im.converged
    rim, vim = im.R_grid[sel], im.V[sel]
    if not (rim[0] > math.sqrt(2.0 * 100.0) * 0.98 and abs(vim[0]) < 1e-3
            and abs(vim[-1] / d.eps1_pole - 1.0) < 0.1):
        problems.append("I- does not vanish at sqrt(2 a1) / approach eps1")

    # Fig 4: branch II against branch I, merge at large separations
    iip = curve(potentials.Branch.PWAVE_II_PLUS)
    iim = curve(potentials.Branch.PWAVE_II_MINUS)
    scale = abs(d.eps1_pole)
    sel = (ip.R_grid >= 50.0) & ip.converged & iip.converged
    if not np.all(np.abs(iip.V[sel] - ip.V[sel]) / scale < 0.06):
        problems.append("II+ does not merge with I+")
    sel = (im.R_grid >= 50.0) & im.converged & iim.converged
    if not np.all(np.abs(iim.V[sel] - im.V[sel]) / scale < 0.06):
        problems.append("II- does not merge with I-")
    short = (ip.R_grid > 2.0) & (ip.R_grid < 6.0) & ip.converged & iip.converged
    if not np.any(np.abs(iip.V[short] - ip.V[short]) / np.abs(ip.V[short]) > 0.01):
        problems.append("II+ does not deviate from I+ at short range")

    # Fig 1: ratio curves for the three mass ratios
    for m_over_m in (0.5, 0.1, 1e-5):
        nu0 = (1.0 + 2.0 / m_over_m) / 2.0
        spec = wkb.quantize_spectrum((1, 12), nu0, wkb.WkbConfig())
        n, e = spec.n, spec.E
        ratios = e[1:] / e[:-1]
        law = np.exp(-math.pi**2 * (n[:-1] + 0.5) / nu0) * (n[:-1] / (n[:-1] + 1.0)) ** 2
        if not np.allclose(ratios, law, rtol=1e-10):
            problems.append(f"ratio curve wrong for m/M = {m_over_m}")

    ok = not problems
    return _result(
        "figure_shapes", ok,
        "all curve shapes reproduced" if ok else "; ".join(problems),
    )


#: (module, check) in the order ``planar3b validate`` prints them
CHECKS = (
    ("specfun", check_specfun_oracle),
    ("potentials", check_swave_branches),
    ("potentials", check_pwave_closed_forms),
    ("potentials", check_determinant_consistency),
    ("wkb", check_spectrum_law),
    ("radial_oracle", check_wkb_vs_numerov),
    ("wkb", check_phi_correction),
    ("radial_oracle", check_numerov_exact_solution),
    ("scattering", check_resonance_series),
    ("cli_io", check_figure_shapes),
)

# perfbench/reference.py times the checks one by one through this name
ALL_CHECKS = tuple(check for _, check in CHECKS)


def run_checks(cfg, only: str | None = None) -> list:
    """Run the acceptance suite; `only` filters by module name."""
    results = []
    for module, fn in CHECKS:
        if only is not None and module != only:
            continue
        try:
            result = fn(cfg)
        except Exception as exc:  # a crashed check is a failed check
            result = _result(fn.__name__.removeprefix("check_"), False,
                             f"raised {type(exc).__name__}: {exc}")
        results.append(replace(result, module=module))
    return results

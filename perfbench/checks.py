"""Output checks for the benchmark workloads, run outside the timed region.

Every check compares the program's output with an independent evaluation:
mpmath for the branch equations, the WKB phase integral and the Bessel
functions, and a numpy finite-difference eigen-solve for the Numerov levels.
Each function returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

mp.mp.dps = 30

EULER_GAMMA = 0.5772156649015329

#: a root passes when F changes by more than |F(xi)| over xi * (1 -/+ this)
ROOT_REL = 1e-9
#: Numerov against the extrapolated finite-difference levels; the Numerov
#: step h = 2e-4 leaves ~3e-4 relative error on the deepest level at nu0 = 200
LEVEL_REL = 1e-3
#: absolute tolerance on the WKB quantisation condition (phase units)
PHASE_ABS = 1e-8
#: zero-energy solution against mpmath, relative to the size of its two terms
ZERO_ENERGY_REL = 1e-10


# ------------------------------------------------------------ branch roots

def branch_equation(branch: str, R: float, a0: float, a1_inv: float):
    """The branch's defining equation F(xi) = 0 in mpmath, from the paper's
    form (K2 taken directly, not through the recurrence).  R is R/a0 for the
    s-wave branches and R/r1 otherwise."""
    R = mp.mpf(R)
    g_inv = mp.mpf(a1_inv)

    def pole(xi):
        return g_inv / xi**2 + mp.log(xi)

    if branch in ("s+", "s-"):
        sign = 1 if branch == "s+" else -1
        c = 2 * mp.exp(-mp.euler) * R
        return lambda xi: mp.besselk(0, c * xi) - sign * mp.log(xi)
    sign = -1 if branch.endswith("-") else 1
    if branch in ("I+", "I-", "I0"):
        return lambda xi: (mp.besselk(0, xi * R) - mp.besselk(2, xi * R)
                           - sign * pole(xi))
    if branch in ("II+", "II-", "II0"):
        log_ga0 = mp.euler + mp.log(mp.mpf(a0) / 2)

        def f(xi):
            z = xi * R
            k0, k1, k2 = mp.besselk(0, z), mp.besselk(1, z), mp.besselk(2, z)
            return ((k2 + k0 + sign * pole(xi)) * (k0 - sign * (mp.log(xi) + log_ga0))
                    - 2 * k1**2)
        return f
    raise ValueError(f"no branch equation for {branch!r}")


def root_problems(branch: str, R: float, xi: float, a0: float, a1_inv: float) -> list:
    """The mpmath residual at the reported root must be ~0: smaller than the
    change of F across xi * (1 -/+ ROOT_REL)."""
    f = branch_equation(branch, R, a0, a1_inv)
    x = mp.mpf(xi)
    fx = f(x)
    spread = abs(f(x * (1 + ROOT_REL)) - f(x * (1 - ROOT_REL)))
    if abs(fx) <= spread:
        return []
    return [f"{branch} at R = {R!r}: |F(xi = {xi!r})| = {mp.nstr(abs(fx), 3)} "
            f"exceeds the change {mp.nstr(spread, 3)} over a {ROOT_REL:g} relative step"]


def determinant_problems(xi: float, a0: float, a1_inv: float, det: float, det_at) -> list:
    """The matching block determinant vanishes wherever it is well conditioned.

    As in the acceptance suite, near the zero the determinant scales like
    F/(g f), so it is only tested where |g f| >= 3e-7, and |det| <= 1e-8
    passes.  Beyond kappa1 R ~ 10 the determinant also grows like
    e^(kappa1 R), so a larger |det| passes when the determinant (det_at, the
    program's own evaluation) changes sign within xi (1 -/+ 1e-10).
    """
    g = a1_inv / (xi * xi) + math.log(xi)
    f = math.log(xi) + EULER_GAMMA + math.log(0.5 * a0)
    if abs(g * f) < 3e-7 or abs(det) <= 1e-8:
        return []
    if det_at(xi * (1.0 - 1e-10)) * det_at(xi * (1.0 + 1e-10)) <= 0.0:
        return []
    return [f"|det| = {abs(det):.3g} > 1e-8 at xi = {xi!r} (|g f| = {abs(g * f):.3g}) "
            "and no sign change within xi (1 -/+ 1e-10)"]


# ------------------------------------------------------------ potential curves

def parse_curve_csv(text: str):
    """(R, V, converged) arrays of one `potentials` CSV (V is NaN when unconverged)."""
    rows = [line.split(",") for line in text.splitlines()
            if line and not line.startswith("#")][1:]
    R = np.array([float(r[0]) for r in rows])
    V = np.array([float(r[1]) if r[1] else math.nan for r in rows])
    ok = np.array([r[3] == "true" for r in rows])
    return R, V, ok


#: branch pairs whose '-' member must lie above its '+' member.  Branch II is
#: left out: its '-' sweep keeps the s-like root on part of the R range (see
#: the benchmark README), so the ordering fails there on current code.
ORDERED_PAIRS = (("s-", "s+"), ("I-", "I+"))


def curves_problems(curves: dict, a0: float, a1_inv: float, rng) -> list:
    """Checks on one `potentials` command: curves maps branch tag -> (R, V, ok)."""
    problems = []
    for branch, (R, V, ok) in curves.items():
        idx = np.flatnonzero(ok)
        if branch == "asym":
            dev = np.max(np.abs(V[idx] * R[idx] ** 2 * np.log(R[idx]) + 1.0))
            if dev > 1e-14:
                problems.append(f"asym deviates from -1/(R^2 ln R) by {dev:.3g}")
            continue
        params_inv = 0.0 if branch in ("I0", "II0") else a1_inv
        for i in rng.sample(list(idx), min(4, len(idx))):
            scale = 1.0 if branch.startswith("s") else 2.0
            xi = math.sqrt(-scale * V[i])
            problems += root_problems(branch, R[i], xi, a0, params_inv)
    if "s+" in curves:
        problems += _s_plus_problems(*curves["s+"])
    for minus, plus in ORDERED_PAIRS:
        if minus not in curves or plus not in curves:
            continue
        _, v_minus, ok_minus = curves[minus]
        _, v_plus, ok_plus = curves[plus]
        both = ok_minus & ok_plus
        below = int(np.sum(v_minus[both] < v_plus[both]))
        if below:
            problems.append(f"{minus} lies below {plus} at {below} points")
    return problems


def _s_plus_problems(R, V, ok) -> list:
    """s+ is monotone and tends to -|eps0| from below: the root of
    ln xi = K0(c R xi) puts the last point's gap |V + 1| just under
    2 K0(c R), its leading order."""
    if not ok.all() or np.any(np.diff(V) < 0.0):
        return ["s+ is not a monotone non-decreasing curve"]
    gap, R_end = float(-1.0 - V[-1]), float(R[-1])
    limit = 2.0 * float(mp.besselk(0, 2 * mp.exp(-mp.euler) * R_end))
    if V.max() > -1.0 or not 0.9 * limit <= gap <= 1.05 * limit:
        return [f"s+ does not tend to -|eps0| from below: gap {gap!r} at R = {R_end!r}, "
                f"expected just under {limit:.3g}"]
    return []


# ------------------------------------------------------------ spectra

def _fd_pencil(nu0: float, x_hi: float, n: int):
    """Three-point finite differences of chi'' + (eps e^{2x} + nu0/x) chi = 0
    on (0, x_hi) with hard walls, in y = sqrt(x) to soften the 1/x point.

    Self-adjoint form -(p chi_y)_y - (2 nu0/y) chi = eps w chi with
    p = 1/(2y), w = 2y e^{2y^2}; returns (diagonal, squared off-diagonal, w).
    """
    h = math.sqrt(x_hi) / (n + 1)
    y = h * np.arange(1, n + 1)
    p = 1.0 / (2.0 * h * (np.arange(n + 1) + 0.5))
    diag = (p[:-1] + p[1:]) / h**2 - 2.0 * nu0 / y
    off = p[1:-1] / h**2
    return diag, off * off, 2.0 * y * np.exp(2.0 * y * y)


def sturm_counts(pencil, shifts) -> np.ndarray:
    """Number of pencil eigenvalues below each shift (Sylvester inertia of
    A - s W by the LDL^T pivots), vectorised over the shifts."""
    diag, off2, w = pencil
    s = np.asarray(shifts, dtype=float)
    q = diag[0] - s * w[0]
    count = (q < 0.0).astype(int)
    for i in range(1, len(diag)):
        q = diag[i] - s * w[i] - off2[i - 1] / q
        count += q < 0.0
    return count


def _pencil_levels(pencil, k_levels: int, lo: float, *, passes: int = 10, m: int = 24):
    """Lowest k_levels eigenvalues by multisection of the Sturm count."""
    levels = []
    for k in range(k_levels):
        a, b = lo, 0.0
        for _ in range(passes):
            s = np.linspace(a, b, m + 2)[1:-1]
            j = int(np.searchsorted(sturm_counts(pencil, s), k + 1))
            if j > 0:
                a = s[j - 1]
            if j < m:
                b = s[j]
        levels.append(0.5 * (a + b))
    return np.array(levels)


def fd_levels(nu0: float, x_hi: float, k_levels: int, n: int = 1000):
    """eps = nu0 E of the lowest levels, Richardson-extrapolated from n and 2n
    interior points; also returns the fine pencil for node counts."""
    coarse, fine = _fd_pencil(nu0, x_hi, n), _fd_pencil(nu0, x_hi, 2 * n)
    lo = -1.0
    while sturm_counts(fine, [lo])[0] > 0 or sturm_counts(coarse, [lo])[0] > 0:
        lo *= 4.0
    e1 = _pencil_levels(coarse, k_levels, lo)
    e2 = _pencil_levels(fine, k_levels, lo)
    h1, h2 = 1.0 / (n + 1), 1.0 / (2 * n + 1)
    return (e2 * h1**2 - e1 * h2**2) / (h1**2 - h2**2), fine


def numerov_problems(energies, nodes, complete, count, nu0, x_hi, k_levels) -> list:
    """Numerov levels against the finite-difference levels; level k must sit
    on the k -> k+1 node-count step; the zero-energy count must agree."""
    if not complete or len(energies) != k_levels:
        return [f"Numerov returned {len(energies)} of {k_levels} levels"]
    problems = []
    if list(nodes) != list(range(k_levels)):
        problems.append(f"Numerov node labels {list(nodes)} are not 0..{k_levels - 1}")
    eps = nu0 * np.asarray(energies)
    ref, fine = fd_levels(nu0, x_hi, k_levels)
    rel = np.abs(eps / ref - 1.0)
    if np.any(rel > LEVEL_REL):
        problems.append(f"Numerov levels {eps} differ from finite differences {ref} "
                        f"by up to {rel.max():.3g}")
    below = sturm_counts(fine, eps * (1.0 + 2.0 * LEVEL_REL))
    above = sturm_counts(fine, eps * (1.0 - 2.0 * LEVEL_REL))
    for k in range(k_levels):
        if below[k] != k or above[k] != k + 1:
            problems.append(f"level {k}: node count steps {below[k]} -> {above[k]}, "
                            f"not {k} -> {k + 1}")
    zero_count = int(sturm_counts(fine, [0.0])[0])
    if abs(zero_count - count) > 1:
        problems.append(f"count_negative_levels = {count}, finite differences {zero_count}")
    return problems


def wkb_problems(levels, nu0: float, theta: float) -> list:
    """Each WKB level satisfies pi n - theta = int_1^{rho_n} sqrt(nu0 (E_n - V)) dR
    with V = -1/(R^2 ln R) and the default inner radius R = 1, by mpmath.quad."""
    problems = []
    nu = mp.mpf(nu0)
    for n, rho, e_n in levels:
        e = mp.mpf(e_n)

        def integrand(R):
            gap = e + 1 / (R * R * mp.log(R))
            return mp.sqrt(nu * gap) if gap > 0 else mp.mpf(0)

        rho = mp.mpf(rho)
        phase = mp.quad(integrand, [mp.mpf(1), (1 + rho) / 2, rho])
        miss = abs(phase - (mp.pi * n - theta))
        if miss > PHASE_ABS:
            problems.append(f"WKB level n = {n}: phase misses pi n - theta by {mp.nstr(miss, 3)}")
    return problems


def zero_energy_problems(x, values, nu0: float, A: float, B: float) -> list:
    """sqrt(x) [A J1(z) + B Y1(z)], z = 2 sqrt(nu0 x), against mpmath."""
    worst = 0.0
    for xi, v in zip(x, values):
        z = 2 * mp.sqrt(mp.mpf(nu0) * mp.mpf(xi))
        j, y = mp.besselj(1, z), mp.bessely(1, z)
        root_x = mp.sqrt(mp.mpf(xi))
        ref = root_x * (A * j + B * y)
        size = root_x * (abs(A * j) + abs(B * y))
        worst = max(worst, float(abs(v - ref) / size))
    if worst > ZERO_ENERGY_REL:
        return [f"zero_energy_exact deviates from mpmath J1/Y1 by {worst:.3g} (relative)"]
    return []

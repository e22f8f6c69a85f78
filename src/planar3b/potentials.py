"""Effective heavy-heavy potential branches from light-particle binding.

Each branch is the zero set of a transcendental equation in the scaled
light-particle binding momentum xi at fixed heavy-pair separation R:

* s-wave:  K0((2 e^-gamma R/a0) xi) = +/- ln xi, with xi = e^gamma kappa a0/2
  and V/|eps0| = -xi^2.
* p-wave branch I  (pure p superpositions):
  K0(xi R) - K2(xi R) = +/- (a1_inv/xi^2 + ln xi), xi = kappa r1, and
  V = -xi^2/2 in natural units.
* p-wave branch II (s+p superpositions), the product form
  [K2 + K0 +/- (a1_inv/xi^2 + ln xi)] [K0 -/+ ln(xi e^gamma a0/2)] = 2 K1^2.

Each equation is coded once, as a residual(xi, z, log_xi, k0, k1) that
works on floats and on numpy arrays alike (``_swave_residual``,
``_pwave_equation``); its caller supplies ln xi, K0 and K1, so the p-wave
residuals write the pole function a1_inv/xi^2 + ln xi
(``twobody.pole_function``) on the given ln xi.
Each p-wave solve scans xi on a 200-point log grid with
``scan_sign_changes``, which returns every bracket, and keeps the smallest
root (``_kept_brackets``).  A single point (``solve_swave``,
``solve_pwave_I``, ``solve_pwave_II``) takes its bracket from
``_swave_bracket`` or from a scan of one row and closes it by scalar Brent
on ``_scalar_residual``: one ln xi and one (K0, K1) pair of
``bessel_k01_float`` per step.  A sweep (``sweep_branches``) solves all the
branches asked for on one grid as one bracket table: the p-wave branches
add the brackets they keep from one shared R x xi sign map (K0 and K1 are
evaluated once per scan window), the s-wave branches the point solver's
brackets for all R at once, and one array regula falsi
(``refine_brackets``) closes every row of the table at adjacent doubles,
one K0/K1 evaluation per step.  A row that misses the residual bound stays
unconverged.

Both s-wave brackets end at xi = 1, where ln xi = 0 and the residual is
K0(c) >= 0 (``_swave_bracket``, with c = 2 e^-gamma R/a0): s- is (1e-280,
1), and s+ is [max(1, 1/(2 sqrt(c))), max(2, 2/sqrt(c))], from the two
inequalities K0(z) < ln(4/z) for z < 2 and, by the power series of K0
(DLMF 10.31.2), K0(z) >= ln(2/z) - gamma for z < 1/4.

The same zeros are reachable through the block determinants of the
six-coefficient linear system (``determinant_residual``), which is the
cross-check used by the validation suite.  With z = kappa R and
t_m = T_m(i kappa) they are real: the M+/- blocks (branch II, s = +/-1) give
(1 + 2 s t0 K0)(1 - 2 s t1 (K0 + K2)) + 8 t0 t1 K1^2, and the M0 block
(branch I) gives 1 - (4 t1 K1/z)^2.  Closed forms for the exact resonance
and the shared large-R asymptote -1/(R^2 ln R) are provided alongside the
full solvers.

Units: s-wave functions work in (R/a0, V/|eps0|); everything p-wave is in
natural units (r1 = 1, energies hbar^2/(mu r1^2)).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, NoRealRootError, NotABracketError
from .numerics import brent, refine_brackets, scan_sign_changes
from .specfun import EULER_GAMMA, bessel_k, bessel_k01, bessel_k01_float
from .twobody import TwoBodyParams, pole_minimum, t_matrix

log = logging.getLogger(__name__)

_TWO_EXP_NEG_GAMMA = 2.0 * math.exp(-EULER_GAMMA)


class Branch(Enum):
    SWAVE_PLUS = "s+"
    SWAVE_MINUS = "s-"
    PWAVE_I_PLUS = "I+"
    PWAVE_I_MINUS = "I-"
    PWAVE_I_ZERO = "I0"
    PWAVE_II_PLUS = "II+"
    PWAVE_II_MINUS = "II-"
    PWAVE_II_ZERO = "II0"
    ASYMPTOTIC_UNIFIED = "asym"


S_BRANCHES = (Branch.SWAVE_PLUS, Branch.SWAVE_MINUS)
ZERO_BRANCHES = (Branch.PWAVE_I_ZERO, Branch.PWAVE_II_ZERO)
#: the equation family and sign of each root-finding p-wave branch
PWAVE_BRANCHES = {
    Branch.PWAVE_I_PLUS: ("I", +1), Branch.PWAVE_I_MINUS: ("I", -1),
    Branch.PWAVE_I_ZERO: ("I", +1), Branch.PWAVE_II_PLUS: ("II", +1),
    Branch.PWAVE_II_MINUS: ("II", -1), Branch.PWAVE_II_ZERO: ("II", +1),
}
#: xi grid points per p-wave scan, and rows of R per evaluation of a
#: sweep's sign map (chunks keep the K kernel's temporaries small)
_N_SCAN = 200
_SWEEP_CHUNK = 16
#: the bound on |residual| of a converged root, in point solves and sweeps
_RESIDUAL_BOUND = 1e-10


@dataclass(frozen=True)
class RootResult:
    xi: float
    residual: float
    bracket: tuple
    converged: bool
    n_roots: int = 1


@dataclass
class PotentialCurve:
    """Sampled effective potential for one branch.

    R_grid is in units of a0 for the s-wave branches and r1 otherwise; V is
    in units of |eps0| for s-wave and hbar^2/(mu r1^2) otherwise.
    """

    branch: Branch
    R_grid: np.ndarray
    V: np.ndarray
    converged: np.ndarray
    residual: np.ndarray
    n_roots: np.ndarray


def _check_R(R, name="R"):
    if not math.isfinite(R):
        raise DomainError(f"{name} must be finite, got {R}")


def _scalar_residual(residual, scale):
    """A branch residual(xi, z, log_xi, k0, k1) as a function of one float
    xi, for the Brent polish of a point solve: z = xi * scale, ln xi by
    ``math.log`` and (K0, K1) as one ``bessel_k01_float`` pair."""
    def f(xi):
        z = xi * scale
        return residual(xi, z, math.log(xi), *bessel_k01_float(z))

    return f


# --------------------------------------------------------------------------
# s-wave branches (units: R/a0 and V/|eps0|)
# --------------------------------------------------------------------------

def _swave_residual(sign):
    """The s-wave equation K0(z) = sign ln xi in the form of the p-wave
    residuals, with z = (2 e^-gamma R/a0) xi."""
    def residual(xi, z, log_xi, k0, k1):
        return k0 - sign * log_xi

    return residual


def _swave_bracket(sign, c):
    """The bracket (lo, hi) of K0(c xi) = sign ln xi, for a float or an
    array c = 2 e^-gamma R/a0 > 0.

    Both brackets end at 1, where ln xi = 0 and f = K0(c xi) - sign ln xi
    is K0(c) >= 0 (an exact zero, the root, once K0 underflows).  s- is
    (1e-280, 1): f(1e-280) is about -ln(R/a0), below 0 for R > a0.  s+ has
    hi = max(2, 2/sqrt(c)): for c >= 1, K0(2c) <= K0(2) < ln 2; below,
    z = 2 sqrt(c) < 2 and K0(z) < ln(4/z) = ln hi.  Its lo = max(1,
    1/(2 sqrt(c))): for c < 1/4, z = sqrt(c)/2 and the power series of K0
    (DLMF 10.31.2) gives K0(z) >= ln(2/z) - gamma > ln(1/(4z)) = ln lo.  K0
    decreases, so the s+ root lies within a factor 4 of either end.
    """
    if sign == -1:
        one = np.ones_like(c)
        return 1e-280 * one, one
    root_c = np.sqrt(c)
    return np.maximum(1.0, 0.5 / root_c), np.maximum(2.0, 2.0 / root_c)


def solve_swave(R_over_a0: float, sign: int) -> RootResult:
    """Root of K0((2 e^-gamma R/a0) xi) = sign * ln(xi), by Brent on
    ``_swave_bracket`` with the residual of the sweeps, ``_swave_residual``.

    The + branch has a unique root at or above 1; the - branch a unique
    root in (0, 1] that exists only for R > a0 (below, the solution is
    complex and NoRealRootError is raised).  The residual is the one at the
    returned xi.
    """
    _check_R(R_over_a0, "R/a0")
    if R_over_a0 <= 0:
        raise DomainError("R/a0 must be positive")
    if sign not in (+1, -1):
        raise DomainError("sign must be +1 or -1")
    # f(0+) -> -ln(R/a0): no sign change (hence no real root) for R <= a0
    if sign == -1 and R_over_a0 <= 1.0:
        raise NoRealRootError(
            f"s-wave '-' branch has no real root for R/a0 = {R_over_a0:g} <= 1",
            window=(0.0, 1.0),
        )
    c = _TWO_EXP_NEG_GAMMA * R_over_a0
    lo, hi = (float(end) for end in _swave_bracket(sign, c))
    try:
        root, res = brent(_scalar_residual(_swave_residual(sign), c), lo, hi)
    except NotABracketError:
        raise NoRealRootError(f"s-wave bracket failed at R/a0 = {R_over_a0:g} "
                              f"(sign {sign:+d})", window=(lo, hi)) from None
    return RootResult(xi=root, residual=res, bracket=(lo, hi),
                      converged=abs(res) <= _RESIDUAL_BOUND)


def swave_asymptote(R_over_a0: float, sign: int, regime: str) -> float:
    """Closed-form limits of V/|eps0| for the s-wave branches.

    regime 'small' is the short-distance form (R << a0 for '+', R >~ a0 for
    '-'); 'large' is the long-distance form shared apart from the sign of
    the exponential correction.
    """
    if not 0.0 < R_over_a0 < math.inf:  # NaN fails too
        raise DomainError("R/a0 must be positive and finite")
    if regime not in ("small", "large"):
        raise DomainError("regime must be 'small' or 'large'")
    if sign not in (+1, -1):
        raise DomainError("sign must be +1 or -1")
    x = R_over_a0
    if regime == "small":
        if sign == +1:
            return -1.0 / x
        return -math.exp(2.0 * EULER_GAMMA) * math.log(x) / (x * x)
    tail = math.sqrt(math.pi * math.exp(EULER_GAMMA) / x) * math.exp(-_TWO_EXP_NEG_GAMMA * x)
    return -(1.0 + tail) if sign == +1 else -(1.0 - tail)


# --------------------------------------------------------------------------
# p-wave branches (natural units)
# --------------------------------------------------------------------------

def _polish(f, a, b):
    """Brent on the scan bracket [a, b]: (root, residual)."""
    try:
        return brent(f, a, b)
    except NotABracketError:
        # the scan's array values and the floats can differ by a few ulp,
        # so at an end where f ~ 0 both ends may show one sign here
        fa, fb = f(a), f(b)
        return (a, fa) if abs(fa) <= abs(fb) else (b, fb)


def _scan_window(R, hi):
    """The xi window (lo, hi) of the p-wave scans at separation R."""
    return np.minimum(1e-7 / R, 1e-7), 1.0 - 1e-12 if hi is None else hi


def _scan_pwave(residuals, R, hi):
    """``scan_sign_changes`` of the branch residuals on the xi window of
    each separation of the array R (one grid row per R), with ln xi, K0 and
    K1 evaluated once, by one ``bessel_k01`` call, for all of them."""
    def f(xi):
        z = xi * R[:, None]
        args = (xi, z, np.log(xi), *bessel_k01(z))
        return np.array([residual(*args) for residual in residuals])

    lo, hi = _scan_window(R, hi)
    return scan_sign_changes(f, lo, hi, _N_SCAN)


def _kept_brackets(scan, rows):
    """The root choice of every p-wave solve: each of the `rows` rows of a
    scan keeps its smallest-xi bracket.  Returns the number of brackets of
    each row and the indices of the kept ones among the scan's brackets."""
    count = np.bincount(scan.row, minlength=rows)
    return count, np.searchsorted(scan.row, np.flatnonzero(count))


def _pwave_point(family, R, params, sign):
    """``solve_pwave_I`` or ``solve_pwave_II``: scan one row of xi, then
    Brent on the smallest bracket (``_scalar_residual``)."""
    _check_R(R)
    if R <= 1.0:
        raise DomainError(f"branch {family} needs R > r1, got R = {R:g}")
    residual, hi, label = _pwave_equation(family, params, sign)
    scan = _scan_pwave([residual], np.array([R]), hi)
    (count,), kept = _kept_brackets(scan, 1)
    if not count:
        lo, hi = (float(end) for end in _scan_window(R, hi))
        min_abs = float(np.abs(scan.fx[np.isfinite(scan.fx)]).min(initial=math.inf))
        raise NoRealRootError(f"{label}: no sign change for xi in [{lo:.3g}, {hi:.3g}] at "
                              f"R = {R:g} (min |F| = {min_abs:.3g})",
                              window=(lo, hi), min_abs_residual=min_abs)
    if count > 1:
        others = ", ".join(f"[{a:.3g}, {b:.3g}]" for a, b in zip(scan.a[1:], scan.b[1:]))
        log.debug("%s: %d roots at R=%g; keeping smallest, others in %s",
                  label, count, R, others)
    a, b = float(scan.a[kept[0]]), float(scan.b[kept[0]])
    root, res = _polish(_scalar_residual(residual, R), a, b)
    return RootResult(xi=root, residual=res, bracket=(a, b),
                      converged=abs(res) <= _RESIDUAL_BOUND, n_roots=int(count))


def _pwave_brackets(equations, R):
    """The scans of ``_pwave_point`` for several p-wave equations at every
    separation of the array R at once.

    equations holds (residual, hi) per branch.  The scans form one sign map
    on R x xi, one ``_scan_pwave`` per chunk of _SWEEP_CHUNK rows and
    distinct cap hi.  Returns the number of brackets of each equation at
    each R, as an (equations, R) array, and the kept brackets as arrays
    (equation, R index, a, b, fa, fb).
    """
    caps = {}
    for j, (_, hi) in enumerate(equations):
        caps.setdefault(hi, []).append(j)
    # id j * len(R) + i stands for equation j at separation R[i]
    count = np.zeros(len(equations) * len(R), dtype=int)
    ids, brackets = [], []
    for start in range(0, len(R), _SWEEP_CHUNK):
        rows = np.arange(start, min(start + _SWEEP_CHUNK, len(R)))
        for hi, members in caps.items():
            scan = _scan_pwave([equations[j][0] for j in members], R[rows], hi)
            where = (np.asarray(members)[:, None] * len(R) + rows).ravel()
            count[where], kept = _kept_brackets(scan, where.size)
            ids.append(where[scan.row[kept]])
            brackets.append(np.stack(scan[1:5])[:, kept])
    owner, at = np.divmod(np.concatenate(ids), len(R))
    return count.reshape(len(equations), len(R)), (owner, at, *np.concatenate(brackets, axis=1))


def _pwave_equation(family, params, sign):
    """(residual, scan cap, label) of p-wave branch I or II.

    residual(xi, z, log_xi, k0, k1), with z = xi R, works on floats and on
    numpy arrays alike (see ``_scalar_residual`` and ``_scan_pwave``).
    """
    if sign not in (+1, -1):
        raise DomainError("sign must be +1 or -1")
    a1_inv = params.a1_inv
    label = f"pwave_{family}({'+' if sign > 0 else '-'})"
    if family == "I":
        def residual(xi, z, log_xi, k0, k1):
            return -2.0 * k1 / z - sign * (a1_inv / (xi * xi) + log_xi)

        # the '-' roots lie below the pole kappa1; from kappa1 up to the
        # unphysical second zero of the pole function the residual is
        # negative, so the scan ends at the minimum between the two
        hi = pole_minimum(a1_inv) if sign == -1 and a1_inv > 0.0 else None
        return residual, hi, label
    log_ga0 = EULER_GAMMA + math.log(0.5 * params.a0)

    def residual(xi, z, log_xi, k0, k1):
        k2 = k0 + 2.0 * k1 / z
        first = k2 + k0 + sign * (a1_inv / (xi * xi) + log_xi)
        second = k0 - sign * (log_xi + log_ga0)
        return first * second - 2.0 * k1 * k1

    return residual, None, label


def solve_pwave_I(R: float, params: TwoBodyParams, sign: int) -> RootResult:
    """Root of K0(xi R) - K2(xi R) = sign*(a1_inv/xi^2 + ln xi).

    The left side equals -2 K1(xi R)/(xi R) by the K recurrence, which is the
    cancellation-free form used here.  At exact resonance only sign=+1 has a
    root in the physical window xi < 1.

    The effective-range form has a second, unphysical zero of its inverse-T
    combination near xi ~ 1 (kappa r1 of order one, outside the low-energy
    regime).  The '-' branch's genuine roots lie below the physical pole
    kappa1, and its residual is negative between the two zeros, so its scan
    ends at the combination's minimum sqrt(2 a1_inv): that end closes the
    bracket of a root however near kappa1, and the unphysical zero stays out.
    """
    return _pwave_point("I", R, params, sign)


def solve_pwave_II(R: float, params: TwoBodyParams, sign: int) -> RootResult:
    """Root of the product form (branch II, s+p superpositions):

    [K2 + K0 + sign*(a1_inv/xi^2 + ln xi)] [K0 - sign*ln(xi e^gamma a0/2)]
    = 2 K1(xi R)^2.
    """
    return _pwave_point("II", R, params, sign)


def xi_I0_closed(R: float) -> float:
    """Closed-form resonance momentum of branch I for R >> r1."""
    if not 1.0 < R < math.inf:  # NaN fails too
        raise DomainError("closed form needs finite R > r1")
    inner = math.log(R) - EULER_GAMMA + 0.5
    if inner <= 0:
        raise DomainError(f"inner logarithm non-positive at R = {R:g}")
    denom = inner + math.log(inner)
    if denom <= 0:
        raise DomainError(f"closed form denominator non-positive at R = {R:g}")
    return math.sqrt(2.0 / denom) / R


def xi_II0_closed(R: float) -> float:
    """Closed-form resonance momentum of branch II for R >> r1."""
    if not 0.0 < R < math.inf:  # NaN fails too
        raise DomainError("R must be positive and finite")
    denom = math.log(0.5 * R) + EULER_GAMMA + 1.5
    if denom <= 0:
        raise DomainError(f"closed form bracket non-positive at R = {R:g}")
    return math.sqrt(2.0 / denom) / R


def v_pwave(xi: float) -> float:
    """Natural-unit potential from a p-wave root: V = -xi^2/2."""
    return -0.5 * xi * xi


def v_unified(R: float) -> float:
    """Shared large-R asymptote -1/(R^2 ln R), natural units; needs finite R > 1."""
    if not 1.0 < R < math.inf:
        raise DomainError(f"v_unified needs finite R > 1 (ln R > 0), got {R:g}")
    return -1.0 / (R * R * math.log(R))


class UnifiedPotential:
    """Callable wrapper for the asymptotic potential with its log-space form.

    ``langer_w(x)`` returns -e^(2x) V(e^x) = 1/x exactly, which stays finite
    where e^(2x) overflows; the WKB machinery prefers it when present.  It
    takes a float (and returns a float) or an array.
    """

    def __call__(self, R: float) -> float:
        return v_unified(R)

    @staticmethod
    def langer_w(x):
        if not (np.asarray(x) > 0.0).all():  # NaN fails too
            raise DomainError("langer_w needs x = ln R > 0")
        return 1.0 / x


# --------------------------------------------------------------------------
# Block-determinant consistency check
# --------------------------------------------------------------------------

def determinant_residual(xi: float, R: float, params: TwoBodyParams, block: str) -> float:
    """Determinant of the selected block at light momentum kappa = xi/r1.

    block: 'plus'/'minus' (branch II with sign s = +1/-1) or 'zero' (branch
    I, both signs).  With z = kappa R and t_m = T_m(i kappa) the
    determinants are real,

    det M+/- = (1 + 2 s t0 K0(z)) (1 - 2 s t1 (K0(z) + K2(z))) + 8 t0 t1 K1(z)^2,
    det M0 = 1 - (4 t1 K1(z)/z)^2,

    and a converged branch root makes the matching one vanish.  M0 does not
    involve T0.
    """
    if block not in ("plus", "minus", "zero"):
        raise DomainError("block must be 'plus', 'minus' or 'zero'")
    if not (0.0 < xi < math.inf and 0.0 < R < math.inf):  # NaN fails too
        raise DomainError("determinant_residual needs finite kappa > 0 and R > 0")
    z = xi * R
    t1 = t_matrix(1, xi, params)
    k1 = bessel_k(1, z)
    if block == "zero":
        return 1.0 - (4.0 * t1 * k1 / z) ** 2
    s = 1.0 if block == "plus" else -1.0
    t0 = t_matrix(0, xi, params)
    k0 = bessel_k(0, z)
    k2 = k0 + 2.0 * k1 / z
    return (1.0 + 2.0 * s * t0 * k0) * (1.0 - 2.0 * s * t1 * (k0 + k2)) + 8.0 * t0 * t1 * k1 * k1


# --------------------------------------------------------------------------
# Light-particle wavefunctions
# --------------------------------------------------------------------------

def light_wavefunction(branch: str, sign: int, kappa: float, R: float,
                       points, params: TwoBodyParams | None = None) -> np.ndarray:
    """Unnormalized light-particle wavefunction sampled on 2D points.

    branch 'I': sin(phi+) K1(kappa r+) + sign * sin(phi-) K1(kappa r-);
    branch 'II' additionally mixes K0 s-waves through the T0-dependent
    amplitude, so it needs `params`.  Heavy particles sit at (-R/2, 0) and
    (+R/2, 0); points within 1e-6 of either center sample as NaN (K1
    diverges there).  Past kappa R ~ 709 the branch II amplitude
    (2 t0 K0 + sign)/(2 t0 K1) at kappa R leaves the double range (K1
    underflows to 0 near 745), which is a DomainError.
    """
    if branch not in ("I", "II"):
        raise DomainError("branch must be 'I' or 'II'")
    if sign not in (+1, -1):
        raise DomainError("sign must be +1 or -1")
    if not (0.0 < kappa < math.inf and 0.0 < R < math.inf):  # NaN fails too
        raise DomainError("kappa and R must be positive and finite")
    if branch == "II" and params is None:
        raise DomainError("branch II wavefunction needs TwoBodyParams for T0")
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DomainError("points must be an (n, 2) array")
    x, y = pts[:, 0], pts[:, 1]
    xp, xm = x + 0.5 * R, x - 0.5 * R
    r_p = np.hypot(xp, y)
    r_m = np.hypot(xm, y)
    phi_p = np.arctan2(y, xp)
    phi_m = np.arctan2(y, xm)
    out = np.full(len(pts), math.nan)
    ok = ~((r_p < 1e-6) | (r_m < 1e-6))  # NaN points go on, to DomainError
    k0_p, k1_p = bessel_k01(kappa * r_p[ok])
    k0_m, k1_m = bessel_k01(kappa * r_m[ok])
    if branch == "I":
        out[ok] = np.sin(phi_p[ok]) * k1_p + sign * np.sin(phi_m[ok]) * k1_m
        return out
    t0 = t_matrix(0, kappa, params)
    k0_R, k1_R = bessel_k(0, kappa * R), bessel_k(1, kappa * R)
    amp = (2.0 * t0 * k0_R + sign) / (2.0 * t0 * k1_R) if k1_R else math.inf
    if not math.isfinite(amp):
        raise DomainError(f"branch II amplitude is not finite at kappa R = {kappa * R:.6g}")
    out[ok] = (k0_p + sign * k0_m
               - amp * (np.cos(phi_p[ok]) * k1_p - sign * np.cos(phi_m[ok]) * k1_m))
    return out


# --------------------------------------------------------------------------
# Curve sweeps
# --------------------------------------------------------------------------

def branch_existence(branch: Branch, params: TwoBodyParams) -> tuple:
    """Window where real roots are expected (used to tell genuine solver
    failures from branches that simply have no solution at that R).

    The '-' branches detach from threshold at finite separation: the s-wave
    one below a0, the p-wave ones near sqrt(2 a1) (none at all at exact
    resonance).  The lower edges of the '+' families are approximate.
    """
    if branch is Branch.SWAVE_PLUS:
        return (0.0, math.inf)
    if branch is Branch.SWAVE_MINUS:
        return (1.0, math.inf)
    if branch is Branch.ASYMPTOTIC_UNIFIED:
        return (1.0, math.inf)
    if branch in (Branch.PWAVE_I_MINUS, Branch.PWAVE_II_MINUS):
        if params.a1_inv == 0.0:
            return (math.inf, math.inf)
        return (math.sqrt(2.0 * params.a1), math.inf)
    return (2.0, math.inf)


def resonance_params(params: TwoBodyParams) -> TwoBodyParams:
    return TwoBodyParams(a0=params.a0, a1_inv=0.0, r0=params.r0)


def _table_function(residuals, job, scale):
    """f(x, rows) of a bracket table (see ``refine_brackets``): row k is the
    residual of job job[k] at z = x * scale[k], and one ``bessel_k01`` call
    evaluates K0 and K1 for all rows."""
    def f(x, rows):
        with np.errstate(over="ignore"):  # K1 overflows at the subnormal z of s rows
            z = x * scale[rows]
            args = (x, z, np.log(x), *bessel_k01(z))
        who = job[rows]
        out = np.empty(len(rows))
        for j, residual in residuals.items():
            mine = who == j
            if mine.any():
                out[mine] = residual(*(v[mine] for v in args))
        return out

    return f


def _swave_brackets(sign, R):
    """The brackets of ``solve_swave`` at every R/a0 of the array R at once:
    the rows with a root and their brackets (rows, a, b, fa, fb).

    The brackets are the point solver's, ``_swave_bracket``, for all rows
    together, and a row keeps its bracket, as ``brent`` does, when
    fa * fb <= 0.
    """
    c = _TWO_EXP_NEG_GAMMA * R
    f = _table_function({0: _swave_residual(sign)}, np.zeros(len(R), dtype=int), c)
    # f(0+) -> -ln(R/a0): no sign change (hence no real root) for R <= a0
    rows = np.flatnonzero(R > (0.0 if sign == +1 else 1.0))
    lo, hi = _swave_bracket(sign, c[rows])
    flo, fhi = f(lo, rows), f(hi, rows)
    keep = flo * fhi <= 0.0
    return tuple(v[keep] for v in (rows, lo, hi, flo, fhi))


def sweep_branches(jobs, R_grid) -> dict:
    """Sample several branches over one grid: {branch: PotentialCurve} for
    the (branch, params) pairs of `jobs`.

    The grid is in units of a0 for the s-wave branches and r1 otherwise.
    All branches of one call are one bracket table: each p-wave branch adds,
    like ``solve_pwave_I``/``solve_pwave_II`` at each point, its
    smallest-xi bracket from one shared R x xi sign map
    (``_pwave_brackets``), each s-wave branch its brackets for all R at
    once (``_swave_brackets``), and one ``refine_brackets`` call closes
    every row; the asymptote is one array expression.  Points without a
    root, or whose residual misses _RESIDUAL_BOUND, carry converged =
    False, and those without a root V = NaN.
    """
    jobs = list(jobs)
    grid = np.asarray(R_grid, dtype=float)
    for branch, params in jobs:
        if branch in ZERO_BRANCHES and params.a1_inv != 0.0:
            raise DomainError(f"{branch.value} requires exact resonance (a1_inv = 0)")
        if not np.all(np.isfinite(grid)):
            raise DomainError(f"{branch.value}: every R of the sweep must be finite")
    inside = grid > 1.0  # R > r1 (natural units), as the point solvers require
    residuals, caps = {}, {}  # job -> residual, and the p-wave jobs' scan caps
    for j, (branch, params) in enumerate(jobs):
        if branch in PWAVE_BRANCHES:
            family, sign = PWAVE_BRANCHES[branch]
            residuals[j], caps[j] = _pwave_equation(family, params, sign)[:2]
    # the bracket table: row k solves residuals[job[k]] at R = grid[at[k]]
    # with z = xi * scale[k], on [a[k], b[k]] with f values fa[k], fb[k]
    table = [(np.empty(0, dtype=int),) * 2 + (np.empty(0),) * 5]
    n_roots = np.ones((len(jobs), grid.size), dtype=int)
    if caps and inside.any():
        counts, (owner, at, *bracket) = _pwave_brackets(
            [(residuals[j], hi) for j, hi in caps.items()], grid[inside])
        n_roots[np.ix_(list(caps), inside)] = np.maximum(counts, 1)
        at = np.flatnonzero(inside)[at]
        table.append((np.array(list(caps))[owner], at, grid[at], *bracket))
    for j, (branch, _) in enumerate(jobs):
        if branch in S_BRANCHES:
            sign = +1 if branch is Branch.SWAVE_PLUS else -1
            residuals[j] = _swave_residual(sign)
            at, *bracket = _swave_brackets(sign, grid)
            table.append((np.full(at.size, j), at, _TWO_EXP_NEG_GAMMA * grid[at], *bracket))
    job, at, scale, *bracket = (np.concatenate(column) for column in zip(*table))
    xi, res = np.full((2, len(jobs), grid.size), math.nan)
    xi[job, at], res[job, at] = refine_brackets(_table_function(residuals, job, scale), *bracket)
    curves = {}
    for j, (branch, _) in enumerate(jobs):
        ok = np.abs(res[j]) <= _RESIDUAL_BOUND
        if branch in PWAVE_BRANCHES:
            v = -0.5 * xi[j] * xi[j]
        elif branch in S_BRANCHES:
            with np.errstate(over="ignore"):
                v = -xi[j] * xi[j]
            overflow = np.isinf(v)  # for R/a0 below about 1e-308
            v[overflow], ok[overflow] = math.nan, False
        else:  # the asymptote v_unified, on 1 < R
            v, g = xi[j], grid[inside]
            with np.errstate(over="ignore"):  # R^2 = inf gives V = -0.0, as in v_unified
                v[inside] = -1.0 / (g * g * np.log(g))
            res[j, inside] = 0.0
            ok = inside.copy()
        multi = int((n_roots[j] > 1).sum())
        if multi:
            log.info("%s: %d of %d sweep points had extra roots; kept the "
                     "smallest xi at each", branch.value, multi, len(grid))
        curves[branch] = PotentialCurve(
            branch=branch,
            R_grid=grid,
            V=v,
            converged=ok,
            residual=res[j],
            n_roots=n_roots[j],
        )
    return curves


def sweep_branch(branch: Branch, params: TwoBodyParams, R_grid) -> PotentialCurve:
    """Sample one branch over a grid: ``sweep_branches`` with one job.

    Branches that share a grid are cheaper in one ``sweep_branches`` call,
    which evaluates K0 and K1 once for all of them; ``cli.cmd_potentials``
    makes one such call per grid.
    """
    return sweep_branches([(branch, params)], R_grid)[branch]

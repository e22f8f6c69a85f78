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

Each p-wave solve scans xi on a 200-point log grid with
``scan_sign_changes``, which returns every bracket, and keeps the smallest
root (``_kept_brackets``).  A single point (``solve_swave``,
``solve_pwave_I``, ``solve_pwave_II``) scans one row and refines its bracket
with scalar Brent.  A sweep (``sweep_branches``) solves all the branches
asked for on one grid as one array problem: the p-wave branches share one
R x xi sign map (K0 and K1 are evaluated once per scan window) and one array
regula falsi that refines every branch's bracket at every R together; the
s-wave branches grow their brackets for all R at once and go through the
same regula falsi.  Both refinements close a bracket at adjacent doubles.
Only rows that miss the residual bound fall back to the scalar solvers.

The same zeros are reachable through the block determinants of the
six-coefficient linear system (``determinant_residual``), which is the
cross-check used by the validation suite.  Closed forms for the exact
resonance and the shared large-R asymptote -1/(R^2 ln R) are provided
alongside the full solvers.

Units: s-wave functions work in (R/a0, V/|eps0|); everything p-wave is in
natural units (r1 = 1, energies hbar^2/(mu r1^2)).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConvergenceError, DomainError, NoRealRootError, NotABracketError
from .numerics import brent, expand_bracket_up, refine_brackets, scan_sign_changes
from .specfun import EULER_GAMMA, bessel_k, bessel_k01
from .twobody import TwoBodyParams, dimer_energies, pwave_pole, t_matrix

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
#: doublings of the s+ bracket up from xi = 2: the root is about
#: (R/a0)^-1/2, below 2^540 for every positive double R/a0
_SPLUS_DOUBLINGS = 1100


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
    validity: tuple
    converged: np.ndarray
    residual: np.ndarray
    n_roots: np.ndarray


def _check_R(R, name="R"):
    if not math.isfinite(R):
        raise DomainError(f"{name} must be finite, got {R}")


# --------------------------------------------------------------------------
# s-wave branches (units: R/a0 and V/|eps0|)
# --------------------------------------------------------------------------

def solve_swave(R_over_a0: float, sign: int) -> RootResult:
    """Root of K0((2 e^-gamma R/a0) xi) = sign * ln(xi).

    The + branch has a unique root above 1; the - branch a unique root in
    (0, 1) that exists only for R > a0 (below, the solution is complex and
    NoRealRootError is raised).
    """
    _check_R(R_over_a0, "R/a0")
    if R_over_a0 <= 0:
        raise DomainError("R/a0 must be positive")
    if sign not in (+1, -1):
        raise DomainError("sign must be +1 or -1")
    c = _TWO_EXP_NEG_GAMMA * R_over_a0

    if sign == +1:
        def f(xi):
            return bessel_k(0, c * xi) - math.log(xi)

        lo = 1.0 + 1e-15
        if f(lo) <= 0.0:  # K0 underflowed; root is pinned to xi = 1
            return RootResult(xi=1.0, residual=f(lo), bracket=(1.0, lo), converged=True)
        lo, hi = expand_bracket_up(f, lo, 2.0, maxiter=_SPLUS_DOUBLINGS)
    else:
        def f(xi):
            return bessel_k(0, c * xi) + math.log(xi)

        # f(0+) -> -ln(R/a0): no sign change (hence no real root) for R <= a0
        if R_over_a0 <= 1.0:
            raise NoRealRootError(
                f"s-wave '-' branch has no real root for R/a0 = {R_over_a0:g} <= 1",
                window=(0.0, 1.0),
            )
        lo, hi = 1e-280, math.nextafter(1.0, 0.0)
        if f(hi) < 0.0:
            # root within an ulp of 1: asymptotically xi = 1 - K0(c)
            xi = 1.0 - bessel_k(0, c)
            return RootResult(xi=xi, residual=f(xi), bracket=(hi, 1.0), converged=True)
        if f(lo) > 0.0:
            raise NoRealRootError(
                f"s-wave '-' bracket failed at R/a0 = {R_over_a0:g}", window=(lo, hi)
            )
    root, res = brent(f, lo, hi)
    return RootResult(xi=root, residual=res, bracket=(lo, hi), converged=abs(res) <= 1e-10)


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

def _scalar_residual(residual, R, needs_k0):
    """The branch residual at one R as a function of a float xi, through
    scalar ``bessel_k`` and ``math.log`` (k0 = None unless ``needs_k0``)."""
    def f(xi):
        z = xi * R
        return residual(xi, z, math.log(xi), bessel_k(0, z) if needs_k0 else None,
                        bessel_k(1, z))

    return f


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
    Brent on the smallest bracket with scalar K and math.log."""
    _check_R(R)
    if R <= params.r1:
        raise DomainError(f"branch {family} needs R > r1, got R = {R:g}")
    residual, hi, needs_k0, label = _pwave_equation(family, params, sign)
    scan = _scan_pwave([residual], np.array([R]), hi)
    (count,), kept = _kept_brackets(scan, 1)
    if not count:
        lo = float(_scan_window(R, hi)[0])
        min_abs = float(np.abs(scan.fx[np.isfinite(scan.fx)]).min(initial=math.inf))
        raise NoRealRootError(f"{label}: no sign change for xi in [{lo:.3g}, 1) at R = {R:g} "
                              f"(min |F| = {min_abs:.3g})",
                              window=(lo, 1.0), min_abs_residual=min_abs)
    if count > 1:
        others = ", ".join(f"[{a:.3g}, {b:.3g}]" for a, b in zip(scan.a[1:], scan.b[1:]))
        log.debug("%s: %d roots at R=%g; keeping smallest, others in %s",
                  label, count, R, others)
    a, b = float(scan.a[kept[0]]), float(scan.b[kept[0]])
    root, res = _polish(_scalar_residual(residual, R, needs_k0), a, b)
    return RootResult(xi=root, residual=res, bracket=(a, b),
                      converged=abs(res) <= 1e-10, n_roots=int(count))


def _pwave_sweep(equations, R):
    """``_pwave_point`` of several p-wave equations at every separation of
    the array R at once.

    equations holds (residual, hi, needs_k0) per branch.  The scans form one
    sign map on R x xi, one ``_scan_pwave`` per chunk of _SWEEP_CHUNK rows
    and distinct cap hi.  One ``refine_brackets`` call, one ``bessel_k01``
    call per step, narrows every kept bracket; rows that miss |F| <= 1e-10
    take a point solve's scalar ``_polish`` on the same bracket.  Returns per
    equation the root xi and residual at each row (NaN without a bracket)
    and the number of brackets.
    """
    caps = {}
    for j, (_, hi, _) in enumerate(equations):
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
    ids = np.concatenate(ids)
    a, b, fa, fb = np.concatenate(brackets, axis=1)
    owner, at = np.divmod(ids, len(R))
    Rb = R[at]

    def f(x, rows):
        z = x * Rb[rows]
        args = (x, z, np.log(x), *bessel_k01(z))
        who = owner[rows]
        out = np.empty(len(rows))
        for j, (residual, _, _) in enumerate(equations):
            mine = who == j
            if mine.any():
                out[mine] = residual(*(v[mine] for v in args))
        return out

    xi, res = refine_brackets(f, a, b, fa, fb)
    for k in np.flatnonzero(~(np.abs(res) <= 1e-10)):
        residual, _, needs_k0 = equations[owner[k]]
        xi[k], res[k] = _polish(_scalar_residual(residual, float(Rb[k]), needs_k0),
                                float(a[k]), float(b[k]))
    shape = (len(equations), len(R))
    xi_all, res_all = np.full(shape, math.nan), np.full(shape, math.nan)
    xi_all.flat[ids], res_all.flat[ids] = xi, res
    return list(zip(xi_all, res_all, count.reshape(shape)))


def pole_function(xi: float, a1_inv: float) -> float:
    """a1_inv/xi^2 + ln xi, the real p-wave inverse-T combination."""
    return a1_inv / (xi * xi) + math.log(xi)


def _pwave_equation(family, params, sign):
    """(residual, scan cap, needs_k0, label) of p-wave branch I or II.

    residual(xi, z, log_xi, k0, k1) works on floats and on numpy arrays
    alike (see ``_pwave_point``).
    """
    if sign not in (+1, -1):
        raise DomainError("sign must be +1 or -1")
    a1_inv = params.a1_inv
    label = f"pwave_{family}({'+' if sign > 0 else '-'})"
    if family == "I":
        def residual(xi, z, log_xi, k0, k1):
            return -2.0 * k1 / z - sign * (a1_inv / (xi * xi) + log_xi)

        hi = None
        if sign == -1 and a1_inv > 0.0:
            hi = pwave_pole(a1_inv) * (1.0 - 1e-9)
        return residual, hi, False, label
    log_ga0 = EULER_GAMMA + math.log(0.5 * params.a0)

    def residual(xi, z, log_xi, k0, k1):
        k2 = k0 + 2.0 * k1 / z
        first = k2 + k0 + sign * (a1_inv / (xi * xi) + log_xi)
        second = k0 - sign * (log_xi + log_ga0)
        return first * second - 2.0 * k1 * k1

    return residual, None, True, label


def solve_pwave_I(R: float, params: TwoBodyParams, sign: int) -> RootResult:
    """Root of K0(xi R) - K2(xi R) = sign*(a1_inv/xi^2 + ln xi).

    The left side equals -2 K1(xi R)/(xi R) by the K recurrence, which is the
    cancellation-free form used here.  At exact resonance only sign=+1 has a
    root in the physical window xi < 1.

    The effective-range form has a second, unphysical zero of its inverse-T
    combination near xi ~ 1 (kappa r1 of order one, outside the low-energy
    regime); the '-' branch scan is therefore capped at the physical pole
    kappa1, below which its genuine roots live.
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

    validity = (math.e, math.inf)

    def __call__(self, R: float) -> float:
        return v_unified(R)

    @staticmethod
    def langer_w(x):
        if (np.asarray(x) <= 0.0).any():
            raise DomainError("langer_w needs x = ln R > 0")
        return 1.0 / x


# --------------------------------------------------------------------------
# Block-determinant consistency check
# --------------------------------------------------------------------------

def coupling_coefficients(kappa: float, R: float, params: TwoBodyParams):
    """The five complex couplings (alpha0, alpha1, beta0, beta1, beta2).

    alpha_m = i pi T0(i kappa) H_m(i kappa R) and beta_m the same with T1,
    rewritten through K_m via H_m(iz) = (2/pi) i^-(m+1) K_m(z).
    """
    if not (0.0 < kappa < math.inf and 0.0 < R < math.inf):  # NaN fails too
        raise DomainError("coupling_coefficients needs finite kappa > 0 and R > 0")
    t0 = t_matrix(0, kappa, params)
    t1 = t_matrix(1, kappa, params)
    z = kappa * R
    k0 = bessel_k(0, z)
    k1 = bessel_k(1, z)
    k2 = k0 + 2.0 * k1 / z
    alpha0 = complex(2.0 * t0 * k0)
    alpha1 = -2.0j * t0 * k1
    beta0 = complex(2.0 * t1 * k0)
    beta1 = -2.0j * t1 * k1
    beta2 = complex(-2.0 * t1 * k2)
    return alpha0, alpha1, beta0, beta1, beta2


def block_matrices(kappa: float, R: float, params: TwoBodyParams):
    """2x2 blocks of the six-coefficient system: (M_plus, M_minus, M_zero)."""
    alpha0, alpha1, beta0, beta1, beta2 = coupling_coefficients(kappa, R, params)
    blocks = {}
    for s in (+1, -1):
        blocks[s] = np.array(
            [[1.0 + s * alpha0, s * alpha1],
             [s * 2.0 * beta1, 1.0 + s * (beta2 - beta0)]],
            dtype=complex,
        )
    m_zero = np.array([[1.0, beta0 + beta2], [beta0 + beta2, 1.0]], dtype=complex)
    return blocks[+1], blocks[-1], m_zero


def determinant_residual(xi: float, R: float, params: TwoBodyParams, block: str) -> float:
    """Determinant of the selected block at light momentum kappa = xi/r1.

    block: 'plus'/'minus' (branch II with that sign) or 'zero' (branch I,
    both signs).  A converged branch root makes the matching block singular.
    """
    m_plus, m_minus, m_zero = block_matrices(xi, R, params)
    sel = {"plus": m_plus, "minus": m_minus, "zero": m_zero}
    if block not in sel:
        raise DomainError("block must be 'plus', 'minus' or 'zero'")
    m = sel[block]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return det.real


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
    diverges there).
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
    amp = (2.0 * t0 * bessel_k(0, kappa * R) + sign) / (2.0 * t0 * bessel_k(1, kappa * R))
    out[ok] = (k0_p + sign * k0_m
               - amp * (np.cos(phi_p[ok]) * k1_p - sign * np.cos(phi_m[ok]) * k1_m))
    return out


# --------------------------------------------------------------------------
# Curve sweeps
# --------------------------------------------------------------------------

def branch_validity(branch: Branch, params: TwoBodyParams) -> tuple:
    """Documented validity window of a branch, in the branch's R unit."""
    if branch is Branch.SWAVE_PLUS:
        return (0.0, math.inf)
    if branch is Branch.SWAVE_MINUS:
        return (1.0, math.inf)
    if branch is Branch.ASYMPTOTIC_UNIFIED:
        return (math.e, math.inf)
    if branch in ZERO_BRANCHES:
        return (params.r1, math.inf)
    return (params.r1, dimer_energies(params).R1)


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
    return (2.0 * params.r1, math.inf)


def resonance_params(params: TwoBodyParams) -> TwoBodyParams:
    return TwoBodyParams(a0=params.a0, a1_inv=0.0, r1=params.r1, r0=params.r0)


def _swave_sweep(sign, R):
    """``solve_swave`` at every R/a0 of the array R at once: per row the root
    xi, its residual and whether it converged (NaN, NaN, False without a
    root).

    The brackets grow for all rows together (s+ doubling up from 2 as
    ``expand_bracket_up`` does, s- on (1e-280, 1 - ulp)), and one
    ``refine_brackets`` call narrows them, one ``bessel_k01`` call per step.
    The point solver's special cases are kept, and rows that miss
    |F| <= 1e-10 fall back to it.
    """
    xi = np.full(len(R), math.nan)
    res = np.full(len(R), math.nan)
    ok = np.zeros(len(R), dtype=bool)
    c = _TWO_EXP_NEG_GAMMA * R

    def f(x, rows):
        with np.errstate(over="ignore"):  # K1, unused here, overflows at subnormal x
            return bessel_k01(c[rows] * x)[0] - sign * np.log(x)

    if sign == +1:
        rows = np.flatnonzero(R > 0.0)
        lo = np.full(rows.size, 1.0 + 1e-15)
        flo = f(lo, rows)
        pinned = flo <= 0.0  # K0 underflowed; root is pinned to xi = 1
        xi[rows[pinned]], res[rows[pinned]], ok[rows[pinned]] = 1.0, flo[pinned], True
        rows, lo, flo = rows[~pinned], lo[~pinned], flo[~pinned]
        hi = np.full(rows.size, 2.0)
        fhi = np.full(rows.size, math.nan)
        grow = np.arange(rows.size)
        for _ in range(_SPLUS_DOUBLINGS):
            if grow.size == 0:
                break
            fhi[grow] = f(hi[grow], rows[grow])
            grow = grow[~((flo[grow] == 0.0) | (flo[grow] * fhi[grow] <= 0.0))]
            lo[grow], flo[grow] = hi[grow], fhi[grow]
            hi[grow] *= 2.0
        keep = np.ones(rows.size, dtype=bool)
        keep[grow] = False  # no sign change within the doublings: no root
    else:
        # f(0+) -> -ln(R/a0): no sign change (hence no real root) for R <= a0
        rows = np.flatnonzero(R > 1.0)
        hi = np.full(rows.size, math.nextafter(1.0, 0.0))
        fhi = f(hi, rows)
        near = rows[fhi < 0.0]
        # root within an ulp of 1: asymptotically xi = 1 - K0(c)
        xi[near] = 1.0 - bessel_k01(c[near])[0]
        res[near], ok[near] = f(xi[near], near), True
        rows, hi, fhi = rows[fhi >= 0.0], hi[fhi >= 0.0], fhi[fhi >= 0.0]
        lo = np.full(rows.size, 1e-280)
        flo = f(lo, rows)
        keep = ~(flo > 0.0)
    rows, lo, hi, flo, fhi = (v[keep] for v in (rows, lo, hi, flo, fhi))
    xi[rows], res[rows] = refine_brackets(lambda x, k: f(x, rows[k]), lo, hi, flo, fhi)
    ok[rows] = np.abs(res[rows]) <= 1e-10
    for i in rows[~ok[rows]]:
        try:
            point = solve_swave(float(R[i]), sign)
        except (NoRealRootError, ConvergenceError):
            xi[i] = res[i] = math.nan
            continue
        xi[i], res[i], ok[i] = point.xi, point.residual, point.converged
    return xi, res, ok


def sweep_branches(jobs, R_grid) -> dict:
    """Sample several branches over one grid: {branch: PotentialCurve} for
    the (branch, params) pairs of `jobs`.

    The grid is in units of a0 for the s-wave branches and r1 otherwise.
    All branches of one call are one array solve: the p-wave branches share
    one R x xi sign map and one refinement (``_pwave_sweep``) and keep, like
    ``solve_pwave_I``/``solve_pwave_II`` at each point, the smallest-xi
    root; each s-wave branch grows and refines all its brackets at once
    (``_swave_sweep``); the asymptote is one array expression.  Failed
    points carry V = NaN and converged = False.
    """
    jobs = list(jobs)
    grid = np.asarray(R_grid, dtype=float)
    for branch, params in jobs:
        if branch in ZERO_BRANCHES and params.a1_inv != 0.0:
            raise DomainError(f"{branch.value} requires exact resonance (a1_inv = 0)")
        if not np.all(np.isfinite(grid)):
            raise DomainError(f"{branch.value}: every R of the sweep must be finite")
    inside = grid > 1.0  # R > r1 (natural units), as the point solvers require
    equations = []
    for branch, params in jobs:
        if branch in PWAVE_BRANCHES:
            family, sign = PWAVE_BRANCHES[branch]
            equations.append(_pwave_equation(family, params, sign)[:3])
    # one solution per p-wave job, taken in job order below
    pwave = iter(_pwave_sweep(equations, grid[inside]) if equations and inside.any() else ())
    curves = {}
    for branch, params in jobs:
        v = np.full(grid.shape, math.nan)
        res = np.full(grid.shape, math.nan)
        n_roots = np.ones(grid.shape, dtype=int)
        if branch in PWAVE_BRANCHES:
            if inside.any():
                xi, res[inside], count = next(pwave)
                v[inside] = -0.5 * xi * xi
                n_roots[inside] = np.maximum(count, 1)
            ok = np.abs(res) <= 1e-10
        elif branch in S_BRANCHES:
            xi, res, ok = _swave_sweep(+1 if branch is Branch.SWAVE_PLUS else -1, grid)
            with np.errstate(over="ignore"):
                v = -xi * xi
            overflow = np.isinf(v)  # for R/a0 below about 1e-308
            v[overflow], ok[overflow] = math.nan, False
        else:  # the asymptote v_unified, on 1 < R
            g = grid[inside]
            with np.errstate(over="ignore"):  # R^2 = inf gives V = -0.0, as in v_unified
                v[inside] = -1.0 / (g * g * np.log(g))
            res[inside] = 0.0
            ok = inside.copy()
        multi = int((n_roots > 1).sum())
        if multi:
            log.warning("%s: %d of %d sweep points had extra roots; kept the "
                        "smallest xi at each", branch.value, multi, len(grid))
        curves[branch] = PotentialCurve(
            branch=branch,
            R_grid=grid,
            V=v,
            validity=branch_validity(branch, params),
            converged=ok,
            residual=res,
            n_roots=n_roots,
        )
    return curves


def sweep_branch(branch: Branch, params: TwoBodyParams, R_grid) -> PotentialCurve:
    """Sample one branch over a grid: ``sweep_branches`` with one job.

    Branches that share a grid are cheaper in one ``sweep_branches`` call,
    which evaluates K0 and K1 once for all of them; ``cli.cmd_potentials``
    makes one such call per grid.
    """
    return sweep_branches([(branch, params)], R_grid)[branch]

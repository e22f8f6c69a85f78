"""Semiclassical machinery for the heavy-pair radial problem.

Everything runs in the logarithmic coordinate x = ln(R/r1), where the radial
equation loses its first-derivative term and the asymptotic potential
-1/(R^2 ln R) becomes the 1D Coulomb form -nu0/x with nu0 = M/mu.  The phase

    phi(R, R_E) = int_R^{R_E} sqrt(nu0 [E - V]) dR' + theta

is evaluated as sqrt(nu0) * int_x^{x_E} sqrt(W(x') - W(x_E) e^{2(x'-x_E)}) dx'
with W(x) = -e^{2x} V(e^x), a form that stays finite far beyond the range
where e^{x} itself overflows.  Square-root endpoint behavior at both the
turning point and a possible inner 1/x singularity is removed by quadratic
substitutions, which leave smooth integrands; these are summed on a fixed
32-node Gauss-Legendre rule (DLMF 3.5(v)), three panels per phase, so the
phases of many turning points are one array expression and full-phase
quantization solves for all levels at once by a safeguarded Newton
iteration, the phase's slope summed on the same nodes.  The
energy correction Phi (``phi_correction``) is summed on the same rule, so
no WKB quantity has a tolerance to set.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError, NoTurningPointError
from .numerics import brent
# perfbench/layers.py traces wkb.adaptive_simpson (numerics.simpson_*
# metrics); the name stays bound until the counters module of ROADMAP
# item 2 lands
from .numerics import adaptive_simpson  # noqa: F401
from .potentials import UnifiedPotential

_DEF_POTENTIAL = UnifiedPotential()
#: e^{2x} overflows past this x = ln(DBL_MAX)/2 (R ~ 1.34e154)
_X_MAX = 0.5 * math.log(np.finfo(float).max)


def _check_index(value, name):
    """DomainError unless value is an integer >= 1 (bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise DomainError(f"{name} must be an integer >= 1, got {value!r}")


def level_indices(n_range):
    """The level indices of ``n_range``: a tuple (first, last) is the
    inclusive range first..last, anything else an iterable of indices.
    Every index, and each end of a range, must be an integer >= 1."""
    if isinstance(n_range, tuple):
        if len(n_range) != 2:
            raise DomainError(f"an n_range tuple is (first, last), got {n_range!r}")
        for end in n_range:
            _check_index(end, "each end of n_range")
        return range(n_range[0], n_range[1] + 1)
    ns = list(n_range)
    for n in ns:
        _check_index(n, "a level index n")
    return ns


@dataclass(frozen=True)
class WkbConfig:
    """Short-range phase theta (|theta| <= pi), inner matching radius
    R_inner, outer search limit R_max (at most e^_X_MAX ~ 1.34e154, past
    which e^{2x} overflows and the level energies -W(x) e^{-2x} leave the
    normal range), and phase_mode, the quantization phase ('approx' =
    energy-free closed form, 'full' = the fixed Gauss-Legendre quadrature,
    which has no tolerance)."""

    theta: float = 0.0
    R_inner: float = 1.0
    phase_mode: str = "approx"
    R_max: float = 1e150

    def __post_init__(self):
        # written so that NaN fails every check
        if not abs(self.theta) <= math.pi:
            raise DomainError("|theta| must not exceed pi")
        if not 1.0 <= self.R_inner < math.inf:
            raise DomainError("R_inner must be finite and >= r1 = 1")
        if not self.R_max > self.R_inner:
            raise DomainError("R_max must exceed R_inner")
        if not self.R_max <= math.exp(_X_MAX):
            raise DomainError(f"R_max must be at most e^{_X_MAX:.6g} ~ "
                              f"{math.exp(_X_MAX):.3g}, got {self.R_max!r}")
        if self.phase_mode not in ("approx", "full"):
            raise DomainError("phase_mode must be 'approx' or 'full'")


@dataclass
class SpectrumResult:
    levels: list  # (n, rho_n, E_n)
    theta_used: float
    E0_fit: float
    slope_fit: float = field(default=math.nan)
    slope_theory: float = field(default=math.nan)

    @property
    def n(self):
        return np.array([lv[0] for lv in self.levels])

    @property
    def rho(self):
        return np.array([lv[1] for lv in self.levels])

    @property
    def E(self):
        return np.array([lv[2] for lv in self.levels])


def langer_w(potential):
    """-e^(2x) V(e^x) for a potential callable, preferring an exact
    log-space form when the object provides one.

    The returned function takes a float or an array of x; without a log
    form it maps the potential's scalar form over the elements.
    """
    w = getattr(potential, "langer_w", None)
    if w is not None:
        return w

    def w_mapped(x):
        vals = [-math.exp(2.0 * v) * potential(math.exp(v)) for v in np.ravel(x).tolist()]
        return np.reshape(vals, np.shape(x)) if np.ndim(x) else vals[0]

    return w_mapped


def turning_point(E: float, potential, *, R_lo: float = 1.0 + 1e-12,
                  R_max: float = 1e150) -> float:
    """Outer turning point R_E with V(R_E) = E, in x = ln R: doubling steps
    x_lo + 2^k until V passes E, then Brent between the last two points.

    Requires E < 0 and V monotone increasing toward 0 on the search domain.
    """
    # written so that NaN fails every check
    if not (math.isfinite(E) and 0.0 < R_lo < R_max):
        raise DomainError(f"turning point needs finite E and 0 < R_lo < R_max, got "
                          f"E = {E}, R_lo = {R_lo}, R_max = {R_max}")
    if E >= 0:
        raise NoTurningPointError("turning point requires E < 0")
    x_lo = math.log(R_lo)
    if potential(math.exp(x_lo)) >= E:
        raise NoTurningPointError(f"E = {E:g} below the potential at R = {R_lo:g}")
    # V(e^x_below) < E <= V(e^x_hi): the doubling keeps its last point below E
    x_below, x_hi = x_lo, x_lo + 1.0
    x_cap = math.log(R_max)
    while potential(math.exp(x_hi)) < E:
        x_below, x_hi = x_hi, x_lo + 2.0 * (x_hi - x_lo)
        if x_hi > x_cap:
            raise NoTurningPointError(
                f"turning point beyond R_max = {R_max:g} for E = {E:g}"
            )

    def g(x):
        return potential(math.exp(x)) - E

    x_e, _ = brent(g, x_below, x_hi)
    return math.exp(x_e)


# a solve takes 4-8 phases; the cap also covers plain bisection of
# [0, ln DBL_MAX] down to adjacent doubles at roots above x = 1
_NEWTON_MAXITER = 64


@functools.cache
def _phase_rule():
    # 32-node Gauss-Legendre rule mapped to [0, 1].  Built on first use, so
    # that runs which never take a full phase do not load numpy.polynomial.
    nodes, weights = np.polynomial.legendre.leggauss(32)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def _gain(w, x, w_x):
    # (2 W - W')(x) for an array x and w_x = W(x), W' by a central difference
    ends = x * np.array([[1.0 + 2.0**-17], [1.0 - 2.0**-17]])
    w_up, w_down = w(ends)
    return 2.0 * w_x - (w_up - w_down) / (ends[0] - ends[1])


def _phase_integrals(x, x_eps, w, energy_term, slope=False):
    # int_x^{x_eps} sqrt(W(x') - W(x_eps) e^{2(x'-x_eps)}) dx' for a 1-D array
    # x_eps and x < x_eps (a float or a like array), on three panels of the
    # rule: the left half in y = sqrt(x') (regularizes a 1/x' singularity at
    # x' -> 0) and the right half in u = sqrt(x_eps - x') (regularizes the
    # turning point), split at u_s = min(u_b, 6) because e^{-2u^2} < e^-72
    # beyond it.  With ``slope`` (energy term only) also its x_eps-derivative
    t, weights = _phase_rule()
    x_mid = 0.5 * (x + x_eps)
    u_b = np.sqrt(x_eps - x_mid)
    lo = np.empty((3, x_eps.size))  # (panel, row): y on panel 0, u on 1 and 2
    width = np.empty_like(lo)
    lo[0] = np.sqrt(x)
    width[0] = np.sqrt(x_mid) - lo[0]
    lo[1] = 0.0
    width[1] = lo[2] = np.minimum(u_b, 6.0)
    width[2] = u_b - lo[2]
    v = lo[..., None] + width[..., None] * t  # (panel, row, node)
    # the left integrand is analytic with vanishing slope at y = 0; a floor
    # below the nodes of any range x_eps > 1e-290 dodges W(0)
    np.maximum(v[0], 1e-150, out=v[0])
    xp = v * v
    np.subtract(x_eps[:, None], xp[1:], out=xp[1:])
    p_sq = w(xp)
    if energy_term:
        w_eps = w(x_eps)
        decay = np.exp(2.0 * (xp - x_eps[:, None]))
        p_sq = p_sq - w_eps[:, None] * decay
    root = np.sqrt(np.maximum(p_sq, 0.0))
    phase = 2.0 * ((v * root) @ weights * width).sum(axis=0)
    if not slope:
        return phase
    # d/dx_eps of p_sq is (2 W - W')(x_eps) e^{2(x'-x_eps)}, so the slope is
    # int (2 W - W') e^{2(x'-x_eps)} / (2 root) dx', where the u panels turn
    # 1/root into the finite v/root
    gain = _gain(w, x_eps, w_eps)
    ratio = np.divide(v * decay, root, out=np.zeros_like(root), where=root > 0.0)
    return phase, gain * (ratio @ weights * width).sum(axis=0)


def wkb_phase_langer(x, x_eps, nu0: float, w, theta: float, *,
                     energy_term: bool = True):
    """Phase accumulated between x and the turning point x_eps, log coordinate.

    w is the log-space potential W(x) = -e^(2x) V(e^x), called on arrays;
    with ``energy_term=False`` the energy under the square root is dropped
    entirely (the E = 0 phase up to a cap at x_eps).  x and x_eps may be
    arrays (broadcast together, one phase per element); floats give a float.
    """
    xs, xe = np.asarray(x, dtype=float), np.asarray(x_eps, dtype=float)
    if not (xs <= xe).all():
        raise DomainError("need x <= x_eps")
    live = xs < xe
    phase = np.zeros(live.shape)
    if live.any():
        xs, xe = (v if v.shape == live.shape else np.broadcast_to(v, live.shape)
                  for v in (xs, xe))
        phase[live] = _phase_integrals(xs[live], xe[live], w, energy_term)
    phase = math.sqrt(nu0) * phase + theta
    return float(phase) if phase.ndim == 0 else phase


def wkb_phase(R: float, E: float, potential, cfg: WkbConfig,
              nu0: float, R_cap: float | None = None) -> float:
    """Full WKB phase between R and the outer turning point (or R_cap at E=0)."""
    # written so that NaN fails every check
    if not 0.0 < nu0 < math.inf:
        raise DomainError(f"nu0 must be positive and finite, got {nu0}")
    if not 1.0 <= R < math.inf:
        raise DomainError(f"wkb_phase needs finite R >= 1, got {R}")
    if not E <= 0:
        raise DomainError("wkb_phase needs E <= 0")
    if E == 0.0:
        if R_cap is None or not 0.0 < R_cap < math.inf:
            raise DomainError("E = 0 phase diverges; supply a finite R_cap")
        x_e = math.log(R_cap)
        energy_term = False
    else:
        x_e = math.log(turning_point(E, potential, R_max=cfg.R_max))
        energy_term = True
    x = math.log(R)
    if x > x_e:
        raise DomainError("R beyond the outer turning point")
    return wkb_phase_langer(x, x_e, nu0, langer_w(potential), cfg.theta,
                            energy_term=energy_term)


def wkb_phase_approx(R: float, R_E: float, nu0: float, theta: float) -> float:
    """Energy-free closed form 2 sqrt(nu0) [sqrt(ln R_E) - sqrt(ln R)] + theta."""
    # written so that NaN fails every check
    if not 1.0 <= R <= R_E < math.inf:
        raise DomainError("need 1 <= R <= R_E < inf")
    if not (0.0 < nu0 < math.inf and math.isfinite(theta)):
        raise DomainError(f"need finite nu0 > 0 and finite theta, got {nu0}, {theta}")
    return 2.0 * math.sqrt(nu0) * (math.sqrt(math.log(R_E)) - math.sqrt(math.log(R))) + theta


def phi_correction(x: float, x_eps: float, nu0: float) -> float:
    """Energy correction Phi to the WKB phase,

    Phi = sqrt(nu0/x_eps) * int_0^{x_eps - x}
          sqrt(1 - s/x_eps) e^{-2s} / (1 + sqrt(1 - (1 - s/x_eps) e^{-2s})) ds,

    which tends to (1 - ln 2) sqrt(nu0/x_eps) as x_eps -> infinity, summed
    on the full phase's 32-node rule in panels at most 10 wide.
    """
    # written so that NaN fails every check
    if not 0 < x < x_eps < math.inf:
        raise DomainError("need 0 < x < x_eps < inf")
    if not 0.0 < nu0 < math.inf:
        raise DomainError(f"need finite nu0 > 0, got {nu0}")
    length = x_eps - x
    cap = min(length, 40.0)  # the e^{-80} tail is far below double precision
    # where the range runs to s = length, sqrt(1 - s/x_eps) falls to
    # sqrt(x/x_eps) at its end, a near square-root end point once x << x_eps;
    # the upper half of such a range goes in v = sqrt(x_eps - s)
    s_end = 0.5 * cap if cap == length else cap
    s0 = min(1.0, s_end)
    n_mid = math.ceil((s_end - s0) / 10.0)
    mid = (s_end - s0) / max(n_mid, 1)
    # panels (start, width): the head in t = sqrt(s) (sqrt(s) behaviour at
    # s = 0), the middle in s, the end in v, of width sqrt(x_eps - s_end) -
    # sqrt(x) written without cancellation (zero where the range stops at
    # the cap)
    sqrt_x = math.sqrt(x)
    v_width = s_end / (math.sqrt(x_eps - s_end) + sqrt_x) if cap > s_end else 0.0
    lo = np.array([0.0, *(s0 + i * mid for i in range(n_mid)), sqrt_x])
    width = np.array([math.sqrt(s0), *[mid] * n_mid, v_width])
    t, weights = _phase_rule()
    d = width[:, None] * t
    u = lo[:, None] + d  # (panel, node)
    s = u.copy()
    s[0] = u[0] * u[0]
    # s = length - (v^2 - x) and a = v^2/x_eps keep their digits where
    # x_eps - v^2 and 1 - s/x_eps would cancel
    s[-1] = length - d[-1] * (sqrt_x + u[-1])
    a = 1.0 - s / x_eps
    a[-1] = u[-1] * u[-1] / x_eps
    jac = np.ones_like(u)
    jac[[0, -1]] = 2.0 * u[[0, -1]]
    decay = np.exp(-2.0 * s)
    # 1 - a e^{-2s} as a sum of two positive terms, which does not cancel
    # near s = 0
    inner = (s / x_eps) * decay - np.expm1(-2.0 * s)
    f = jac * np.sqrt(a) * decay / (1.0 + np.sqrt(inner))
    return math.sqrt(nu0 / x_eps) * float(f @ weights @ width)


def _full_phase_roots(targets, nu0, w, x_inner, x_cap):
    """x_n with wkb_phase_langer(x_inner, x_n) = target for every target
    (NaN for a level beyond x_cap), by a safeguarded Newton solve (rtsafe,
    Numerical Recipes 9.4) whose every step is one array phase of the open
    levels, its slope (half the classical period) summed on the same nodes.

    Each level starts at its closed form or, past a wall at x_inner > 0,
    where the phase grows as (2/3) sqrt(nu0 g) (x - x_inner)^{3/2} with
    g = (2 W - W')(x_inner), at the root of that law where it lies higher:
    the closed form is linear in x - x_inner there, and a level within
    about 1e-10 of the wall started at the wall and took 31-35 phases.
    Each level keeps a bracket; a step out of it goes to its midpoint, and
    a step past x_cap to x_cap, where a phase short of the target drops the
    level.  A level closes on a step of at
    most 4 ulp: Newton nears its root from one side, so a second bracket
    end would cost phases for nothing.  Where the phase's rounding keeps
    the step above that, the bracket narrows to adjacent doubles instead.
    """
    sqrt_nu0 = math.sqrt(nu0)
    # the closed-form levels, written so that they cannot round below x_inner
    x = [x_inner + a * (a + 2.0 * math.sqrt(x_inner))
         for a in (0.5 * target / sqrt_nu0 for target in targets)]
    if x_inner > 0.0:
        wall = np.array([x_inner])
        gain = float(_gain(w, wall, w(wall))[0])
        if gain > 0.0:
            scale = 1.5 / (sqrt_nu0 * math.sqrt(gain))
            x = [max(xk, x_inner + (scale * target) ** (2.0 / 3.0))
                 for xk, target in zip(x, targets)]
    x = [min(xk, x_cap) for xk in x]
    # the phase is exactly 0 at x_inner; no upper end until a phase passes
    lo, hi, x_n = [x_inner] * len(x), [math.inf] * len(x), [math.nan] * len(x)
    rows = range(len(x))
    for _ in range(_NEWTON_MAXITER):
        if not rows:
            return x_n
        phase, slope = _phase_integrals(x_inner, np.array([x[k] for k in rows]), w, True,
                                        slope=True)
        still_open = []
        for k, p, dp in zip(rows, (sqrt_nu0 * phase).tolist(), (sqrt_nu0 * slope).tolist()):
            f = p - targets[k]
            if not math.isfinite(f):
                raise ConvergenceError("full WKB phase is not finite")
            if f < 0.0 and x[k] == x_cap:  # the level lies beyond the cap
                continue
            (lo if f < 0.0 else hi)[k] = x[k]
            step = -f / dp if dp > 0.0 else math.inf
            nxt = x[k] + step
            if abs(step) > 4.0 * math.ulp(x[k]):
                nxt = min(nxt, x_cap)
                if not lo[k] < nxt < hi[k]:
                    nxt = 0.5 * (lo[k] + min(hi[k], x_cap))
                if nxt != x[k]:  # else the bracket holds adjacent doubles
                    x[k] = nxt
                    still_open.append(k)
                    continue
            x_n[k] = nxt
        rows = still_open
    raise ConvergenceError(f"full WKB levels not settled in {_NEWTON_MAXITER} Newton steps")


def quantize_spectrum(n_range, nu0: float, cfg: WkbConfig,
                      potential=None) -> SpectrumResult:
    """Quasi-Coulomb spectrum by the quantization rule phi(R_inner, rho_n) = pi n.

    n_range is a tuple (first, last) or an iterable of indices
    (``level_indices``).  In 'approx' mode the rule inverts in closed form,
    rho_n = exp([(pi n - theta)/(2 sqrt(nu0)) + sqrt(ln R_inner)]^2); in
    'full' mode one safeguarded Newton solve on the quadrature phase finds
    all rho_n together, starting from the closed form (``_full_phase_roots``).
    E_n = V(rho_n).  Levels whose rho_n exceeds cfg.R_max are dropped: in
    'full' mode exactly those whose phase at R_max falls short of pi n.  The
    fit summary is the least-squares line of ln(n^2 |E_n|) against n^2, whose
    theoretical slope is -pi^2/(2 nu0).
    """
    if not 0.0 < nu0 < math.inf:
        raise DomainError(f"nu0 must be positive and finite, got {nu0}")
    if potential is None:
        potential = _DEF_POTENTIAL
    w = langer_w(potential)
    x_inner = math.log(cfg.R_inner)
    x_cap = math.log(cfg.R_max)
    sqrt_nu0 = math.sqrt(nu0)
    wanted = []  # (n, pi n - theta) of the levels with a positive target
    for n in level_indices(n_range):
        target = math.pi * n - cfg.theta
        if target > 0:
            wanted.append((n, target))
    if cfg.phase_mode == "approx":
        x_ns = [(0.5 * target / sqrt_nu0 + math.sqrt(max(x_inner, 0.0))) ** 2
                for _, target in wanted]
    else:
        x_ns = _full_phase_roots([target for _, target in wanted], nu0, w, x_inner, x_cap)
    levels = []
    for (n, _), x_n in zip(wanted, x_ns):
        if not x_n <= x_cap:  # beyond R_max (NaN: the phase at the cap fell short)
            continue
        rho_n = math.exp(x_n)
        e_n = -w(x_n) * math.exp(-2.0 * x_n)  # V(rho_n) through the log form
        levels.append((n, rho_n, e_n))
    if len(levels) >= 2:
        narr = np.array([lv[0] for lv in levels], dtype=float)
        earr = np.array([lv[2] for lv in levels])
        slope, intercept = np.polyfit(narr**2, np.log(narr**2 * np.abs(earr)), 1)
        e0_fit = math.exp(intercept)
    else:
        slope, e0_fit = math.nan, math.nan
    return SpectrumResult(
        levels=levels,
        theta_used=cfg.theta,
        E0_fit=e0_fit,
        slope_fit=slope,
        slope_theory=-math.pi**2 / (2.0 * nu0),
    )


def count_bound_states(a1: float, nu0: float) -> float:
    """Number of heavy-pair levels in the near-resonant window,
    N_b = (1/pi) sqrt(2 nu0 ln(a1/2))."""
    # written so that NaN fails every check
    if not 2.0 < a1 < math.inf:
        raise DomainError("count_bound_states needs finite a1 > 2")
    if not 0.0 < nu0 < math.inf:
        raise DomainError("nu0 must be positive and finite")
    return math.sqrt(2.0 * nu0 * math.log(0.5 * a1)) / math.pi


def n_max(mass_ratio_M_over_m: float) -> float:
    """Largest observable level index, (1/pi^2) M/m."""
    if not 0.0 < mass_ratio_M_over_m < math.inf:  # NaN fails too
        raise DomainError("mass ratio must be positive and finite")
    return mass_ratio_M_over_m / (math.pi * math.pi)

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
quantization solves for all levels at once with ``refine_brackets``.  The
energy correction Phi (``phi_correction``) keeps adaptive Simpson.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError, NoTurningPointError
from .numerics import adaptive_simpson, brent, refine_brackets
from .potentials import UnifiedPotential

_DEF_POTENTIAL = UnifiedPotential()


@dataclass(frozen=True)
class WkbConfig:
    """Short-range phase theta (|theta| <= pi), inner matching radius, and
    the absolute tolerance quad_tol of ``phi_correction`` (also the bound of
    validate's phi chain check; the full phase uses a fixed rule and has no
    tolerance); phase_mode selects the quantization phase ('approx' =
    energy-free closed form, 'full' = quadrature)."""

    theta: float = 0.0
    R_inner: float = 1.0
    quad_tol: float = 1e-10
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
        if not 0 < self.quad_tol < math.inf:
            raise DomainError("quad_tol must be finite and positive")
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
    """Outer turning point R_E with V(R_E) = E, by bracketed bisection in ln R.

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
    x_hi = x_lo + 1.0
    x_cap = math.log(R_max)
    while potential(math.exp(x_hi)) < E:
        x_hi = x_lo + 2.0 * (x_hi - x_lo)
        if x_hi > x_cap:
            raise NoTurningPointError(
                f"turning point beyond R_max = {R_max:g} for E = {E:g}"
            )

    def g(x):
        return potential(math.exp(x)) - E

    x_e, _ = brent(g, max(x_lo, x_hi - 2.0 * (x_hi - x_lo)), x_hi)
    return math.exp(x_e)


@functools.cache
def _phase_rule():
    # 32-node Gauss-Legendre rule mapped to [0, 1].  Built on first use, so
    # that runs which never take a full phase do not load numpy.polynomial.
    nodes, weights = np.polynomial.legendre.leggauss(32)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def _phase_integrals(x, x_eps, w, energy_term):
    # int_x^{x_eps} sqrt(W(x') - W(x_eps) e^{2(x'-x_eps)}) dx' for 1-D arrays
    # x < x_eps, on three panels of the rule: the left half in y = sqrt(x')
    # (regularizes a 1/x' singularity at x' -> 0) and the right half in
    # u = sqrt(x_eps - x') (regularizes the turning point), split at
    # u_s = min(u_b, 6) because e^{-2u^2} < e^-72 beyond it
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
    # the left integrand is analytic with vanishing slope at y = 0; nudging
    # the evaluation point dodges W(0) without measurable error
    np.maximum(v[0], 1e-8, out=v[0])
    xp = v * v
    np.subtract(x_eps[:, None], xp[1:], out=xp[1:])
    p_sq = w(xp)
    if energy_term:
        p_sq = p_sq - w(x_eps)[:, None] * np.exp(2.0 * (xp - x_eps[:, None]))
    integrand = v * np.sqrt(np.maximum(p_sq, 0.0))
    return 2.0 * (integrand @ weights * width).sum(axis=0)


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


def phi_correction(x: float, x_eps: float, nu0: float, quad_tol: float = 1e-10) -> float:
    """Energy correction Phi to the WKB phase,

    Phi = sqrt(nu0/x_eps) * int_0^{x_eps - x}
          sqrt(1 - s/x_eps) e^{-2s} / (1 + sqrt(1 - (1 - s/x_eps) e^{-2s})) ds,

    which tends to (1 - ln 2) sqrt(nu0/x_eps) as x_eps -> infinity.
    """
    # written so that NaN fails every check
    if not 0 < x < x_eps < math.inf:
        raise DomainError("need 0 < x < x_eps < inf")
    if not (0.0 < nu0 < math.inf and 0.0 < quad_tol < math.inf):
        raise DomainError(f"need finite nu0 > 0 and quad_tol > 0, got {nu0}, {quad_tol}")

    def integrand(s, a):
        # a = 1 - s/x_eps, passed in so that the end piece keeps its digits
        decay = math.exp(-2.0 * s)
        inner = 1.0 - a * decay
        if inner < 0.0:
            inner = 0.0
        return math.sqrt(a) * decay / (1.0 + math.sqrt(inner))

    def middle(s):
        return integrand(s, 1.0 - s / x_eps)

    length = x_eps - x
    cap = min(length, 40.0)  # e^{-80} tail is far below any tolerance here
    pref = math.sqrt(nu0 / x_eps)
    tol = quad_tol / (3.0 * max(pref, 1.0))  # a third for each of up to three pieces
    # where the range runs to s = length, sqrt(1 - s/x_eps) falls to
    # sqrt(x/x_eps) at its end, a near square-root end point once x << x_eps;
    # the upper half of such a range goes in v = sqrt(x_eps - s)
    s_end = 0.5 * cap if cap == length else cap
    # sqrt(s) behavior at s = 0: quadratic substitution on [0, min(1, s_end)]
    s0 = min(1.0, s_end)

    def head(t):
        return 2.0 * t * middle(t * t)

    def end(v):
        return 2.0 * v * integrand(x_eps - v * v, v * v / x_eps)

    total, _ = adaptive_simpson(head, 0.0, math.sqrt(s0), tol)
    if s_end > s0:
        total += adaptive_simpson(middle, s0, s_end, tol)[0]
    if cap > s_end:
        total += adaptive_simpson(end, math.sqrt(x), math.sqrt(x_eps - s_end), tol)[0]
    return pref * total


def _full_phase_roots(targets, nu0, w, x_inner, x_cap):
    """x_n with wkb_phase_langer(x_inner, x_n) = target for every target, as
    one array solve: each upper bracket end starts near the closed-form
    level and doubles until the phase reaches its target (NaN once it
    passes x_cap), the last end below it becoming the lower end; then one
    ``refine_brackets`` call narrows all brackets.
    """
    target = np.array(targets, dtype=float)
    # the phase is exactly 0 at x_inner
    lo, f_lo = np.full(target.shape, x_inner), -target
    hi = x_inner + np.maximum(1.0, (0.5 * target / math.sqrt(nu0)) ** 2)
    f_hi = np.empty_like(target)
    rows = np.arange(target.size)
    while rows.size:
        f_hi[rows] = wkb_phase_langer(x_inner, hi[rows], nu0, w, 0.0) - target[rows]
        rows = rows[f_hi[rows] < 0.0]
        lo[rows], f_lo[rows] = hi[rows], f_hi[rows]
        hi[rows] *= 2.0
        hi[rows[hi[rows] > x_cap]] = math.nan
        rows = rows[hi[rows] <= x_cap]
    if np.any(np.isnan(f_hi) & ~np.isnan(hi)):
        raise ConvergenceError("full WKB phase is not finite at a bracket end")
    found = np.flatnonzero(f_hi >= 0.0)

    def f(x, rows):
        return wkb_phase_langer(x_inner, x, nu0, w, 0.0) - target[found[rows]]

    x_n = np.full(target.shape, math.nan)
    x_n[found], _ = refine_brackets(f, lo[found], hi[found], f_lo[found], f_hi[found])
    if np.any(np.isnan(x_n[found])):
        raise ConvergenceError("full WKB phase is not finite inside a bracket")
    return x_n.tolist()


def quantize_spectrum(n_range, nu0: float, cfg: WkbConfig,
                      potential=None) -> SpectrumResult:
    """Quasi-Coulomb spectrum by the quantization rule phi(R_inner, rho_n) = pi n.

    In 'approx' mode the rule inverts in closed form,
    rho_n = exp([(pi n - theta)/(2 sqrt(nu0)) + sqrt(ln R_inner)]^2); in
    'full' mode all rho_n are root-found together on the quadrature phase.
    E_n = V(rho_n).  Levels whose rho_n exceeds cfg.R_max are dropped.  The
    fit summary is the least-squares line of ln(n^2 |E_n|) against n^2, whose
    theoretical slope is -pi^2/(2 nu0).
    """
    if not 0.0 < nu0 < math.inf:
        raise DomainError(f"nu0 must be positive and finite, got {nu0}")
    if potential is None:
        potential = _DEF_POTENTIAL
    if isinstance(n_range, tuple):
        ns = range(n_range[0], n_range[1] + 1)
    else:
        ns = n_range
    w = langer_w(potential)
    x_inner = math.log(cfg.R_inner)
    x_cap = math.log(cfg.R_max)
    sqrt_nu0 = math.sqrt(nu0)
    wanted = []  # (n, pi n - theta) of the levels with a positive target
    for n in ns:
        if n < 1:
            raise DomainError("levels are indexed from n = 1")
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
        if not x_n <= x_cap:  # beyond R_max (NaN: the bracket search passed it)
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

"""Semiclassical machinery for the heavy-pair radial problem.

Everything runs in the logarithmic coordinate x = ln(R/r1), where the radial
equation loses its first-derivative term and the asymptotic potential
-1/(R^2 ln R) becomes the 1D Coulomb form -nu0/x with nu0 = M/mu.  The phase

    phi(R, R_E) = int_R^{R_E} sqrt(nu0 [E - V]) dR' + theta

is evaluated as sqrt(nu0) * int_x^{x_E} sqrt(W(x') - W(x_E) e^{2(x'-x_E)}) dx'
with W(x) = -e^{2x} V(e^x), a form that stays finite far beyond the range
where e^{x} itself overflows.  Square-root endpoint behavior at both the
turning point and a possible inner 1/x singularity is removed by quadratic
substitutions before handing the integrand to adaptive Simpson.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NoTurningPointError
from .numerics import adaptive_simpson, brent
from .potentials import UnifiedPotential

_DEF_POTENTIAL = UnifiedPotential()


@dataclass(frozen=True)
class WkbConfig:
    """Short-range phase theta (|theta| <= pi), inner matching radius and
    quadrature tolerance; phase_mode selects the quantization phase
    ('approx' = energy-free closed form, 'full' = quadrature)."""

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
        if not self.quad_tol > 0:
            raise DomainError("quad_tol must be positive")
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
    log-space form when the object provides one."""
    w = getattr(potential, "langer_w", None)
    if w is not None:
        return w
    return lambda x: -math.exp(2.0 * x) * potential(math.exp(x))


def turning_point(E: float, potential, *, R_lo: float = 1.0 + 1e-12,
                  R_max: float = 1e150) -> float:
    """Outer turning point R_E with V(R_E) = E, by bracketed bisection in ln R.

    Requires E < 0 and V monotone increasing toward 0 on the search domain.
    """
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

    x_e = brent(g, max(x_lo, x_hi - 2.0 * (x_hi - x_lo)), x_hi, xtol=1e-14, rtol=4e-16)
    return math.exp(x_e)


def wkb_phase_langer(x: float, x_eps: float, nu0: float, w, theta: float,
                     quad_tol: float = 1e-10, *, energy_term: bool = True) -> float:
    """Phase accumulated between x and the turning point x_eps, log coordinate.

    w is the log-space potential W(x) = -e^(2x) V(e^x); with
    ``energy_term=False`` the energy under the square root is dropped
    entirely (the E = 0 phase up to a cap at x_eps).
    """
    if x_eps < x:
        raise DomainError("need x <= x_eps")
    if x_eps == x:
        return theta
    w_eps = w(x_eps) if energy_term else 0.0

    def p_sq(xp):
        val = w(xp) - w_eps * math.exp(2.0 * (xp - x_eps))
        return val if val > 0.0 else 0.0

    x_mid = 0.5 * (x + x_eps)
    # left half in y = sqrt(x'): regularizes a 1/x' singularity at x' -> 0
    y_a, y_b = math.sqrt(x), math.sqrt(x_mid)

    def left(y):
        # the integrand is analytic with vanishing slope at y = 0; nudging
        # the evaluation point dodges W(0) without measurable error
        if y < 1e-8:
            y = 1e-8
        return 2.0 * y * math.sqrt(p_sq(y * y))

    # right half in u = sqrt(x_eps - x'): regularizes the turning point
    u_b = math.sqrt(x_eps - x_mid)

    def right(u):
        return 2.0 * u * math.sqrt(p_sq(x_eps - u * u))

    tol = 0.5 * quad_tol / max(math.sqrt(nu0), 1.0)
    left_val, _ = adaptive_simpson(left, y_a, y_b, tol)
    right_val, _ = adaptive_simpson(right, 0.0, u_b, tol)
    return math.sqrt(nu0) * (left_val + right_val) + theta


def wkb_phase(R: float, E: float, potential, cfg: WkbConfig,
              nu0: float, R_cap: float | None = None) -> float:
    """Full WKB phase between R and the outer turning point (or R_cap at E=0)."""
    if E > 0:
        raise DomainError("wkb_phase needs E <= 0")
    if E == 0.0:
        if R_cap is None:
            raise DomainError("E = 0 phase diverges; supply R_cap")
        x_e = math.log(R_cap)
        energy_term = False
    else:
        x_e = math.log(turning_point(E, potential, R_max=cfg.R_max))
        energy_term = True
    x = math.log(R)
    if x > x_e:
        raise DomainError("R beyond the outer turning point")
    return wkb_phase_langer(x, x_e, nu0, langer_w(potential), cfg.theta,
                            cfg.quad_tol, energy_term=energy_term)


def wkb_phase_approx(R: float, R_E: float, nu0: float, theta: float) -> float:
    """Energy-free closed form 2 sqrt(nu0) [sqrt(ln R_E) - sqrt(ln R)] + theta."""
    if R < 1.0 or R_E < R:
        raise DomainError("need 1 <= R <= R_E")
    return 2.0 * math.sqrt(nu0) * (math.sqrt(math.log(R_E)) - math.sqrt(math.log(R))) + theta


def phi_correction(x: float, x_eps: float, nu0: float, quad_tol: float = 1e-10) -> float:
    """Energy correction Phi to the WKB phase,

    Phi = sqrt(nu0/x_eps) * int_0^{x_eps - x}
          sqrt(1 - s/x_eps) e^{-2s} / (1 + sqrt(1 - (1 - s/x_eps) e^{-2s})) ds,

    which tends to (1 - ln 2) sqrt(nu0/x_eps) as x_eps -> infinity.
    """
    if not 0 < x < x_eps:
        raise DomainError("need 0 < x < x_eps")

    def integrand(s):
        a = 1.0 - s / x_eps
        inner = 1.0 - a * math.exp(-2.0 * s)
        if inner < 0.0:
            inner = 0.0
        return math.sqrt(a) * math.exp(-2.0 * s) / (1.0 + math.sqrt(inner))

    length = x_eps - x
    cap = min(length, 40.0)  # e^{-80} tail is far below any tolerance here
    pref = math.sqrt(nu0 / x_eps)
    tol = 0.5 * quad_tol / max(pref, 1.0)
    # sqrt(s) behavior at s = 0: quadratic substitution on [0, min(1, cap)]
    s0 = min(1.0, cap)

    def head(t):
        return 2.0 * t * integrand(t * t)

    total, _ = adaptive_simpson(head, 0.0, math.sqrt(s0), tol)
    if cap > s0:
        tail, _ = adaptive_simpson(integrand, s0, cap, tol)
        total += tail
    return pref * total


def quantize_spectrum(n_range, nu0: float, cfg: WkbConfig,
                      potential=None) -> SpectrumResult:
    """Quasi-Coulomb spectrum by the quantization rule phi(R_inner, rho_n) = pi n.

    In 'approx' mode the rule inverts in closed form,
    rho_n = exp([(pi n - theta)/(2 sqrt(nu0)) + sqrt(ln R_inner)]^2); in
    'full' mode rho_n is root-found on the quadrature phase.  E_n = V(rho_n).
    Levels whose rho_n exceeds cfg.R_max are dropped.  The fit summary is the
    least-squares line of ln(n^2 |E_n|) against n^2, whose theoretical slope
    is -pi^2/(2 nu0).
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
    levels = []
    for n in ns:
        if n < 1:
            raise DomainError("levels are indexed from n = 1")
        target = math.pi * n - cfg.theta
        if target <= 0:
            continue
        if cfg.phase_mode == "approx":
            x_n = (0.5 * target / sqrt_nu0 + math.sqrt(max(x_inner, 0.0))) ** 2
            if x_n > x_cap:
                continue
        else:
            def g(x_e):
                return wkb_phase_langer(x_inner, x_e, nu0, w, 0.0, cfg.quad_tol) - target

            hi = x_inner + max(1.0, (0.5 * target / sqrt_nu0) ** 2)
            while g(hi) < 0.0:
                hi *= 2.0
                if hi > x_cap:
                    hi = math.nan
                    break
            if math.isnan(hi):
                continue
            x_n = brent(g, x_inner + 1e-14, hi, xtol=1e-13, rtol=4e-16)
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
    if a1 <= 2.0:
        raise DomainError("count_bound_states needs a1 > 2")
    if nu0 <= 0:
        raise DomainError("nu0 must be positive")
    return math.sqrt(2.0 * nu0 * math.log(0.5 * a1)) / math.pi


def n_max(mass_ratio_M_over_m: float) -> float:
    """Largest observable level index, (1/pi^2) M/m."""
    if mass_ratio_M_over_m <= 0:
        raise DomainError("mass ratio must be positive")
    return mass_ratio_M_over_m / (math.pi * math.pi)

"""Low-energy two-body heavy-light scattering in two dimensions.

Effective-range parametrization of the s- and p-wave phase shifts on the
bound-state (imaginary-momentum) axis, the on-shell T-matrix elements built
from them, and the derived dimer scales.  Natural units hbar = mu = r1 = 1:
energies in hbar^2/(mu r1^2), lengths in r1, so a0 is in units of r1 and the
p-wave scattering length a1 in units of r1^2.

For imaginary momentum i*kappa the logarithms contribute i*pi/2 terms that
cancel the -i of the T-matrix denominator exactly, so every quantity here is
real: ``cot_delta0``/``cot_delta1`` return that real combination
cot(delta_m(i kappa)) - i directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError, NoPoleError, TMatrixPoleError
from .numerics import brent
from .specfun import EULER_GAMMA

#: r1 <= (e^gamma / 2) r0 for any short-range potential, i.e. r0 >= 2 e^-gamma.
R0_MIN = 2.0 * math.exp(-EULER_GAMMA)


@dataclass(frozen=True)
class MassConfig:
    """Light mass m and heavy mass M in any consistent unit."""

    m: float
    M: float

    def __post_init__(self):
        if not (0.0 < self.m < math.inf and 0.0 < self.M < math.inf):  # NaN fails too
            raise DomainError("masses must be positive and finite")

    @property
    def mu(self) -> float:
        """Reduced mass of the light particle against the heavy pair."""
        return 2.0 * self.m * self.M / (self.m + 2.0 * self.M)

    @property
    def nu0(self) -> float:
        """Coulomb strength M/mu = (m + 2M)/(2m) of the heavy-pair problem."""
        return self.M / self.mu


@dataclass(frozen=True)
class TwoBodyParams:
    """Scattering parameters in natural units (r1 = 1).

    a1 is stored through its inverse so the exact p-wave resonance
    (a1 -> infinity) is representable as ``a1_inv = 0``.
    """

    a0: float
    a1_inv: float = 0.0
    r0: float = 1.25

    def __post_init__(self):
        # written so that NaN fails every check
        if not 0.0 < self.a0 < math.inf:
            raise DomainError("a0 must be positive and finite")
        if not 0.0 <= self.a1_inv < math.inf:
            raise DomainError("a1_inv must be finite and >= 0")
        if not 0.0 < self.r0 < math.inf:
            raise DomainError("r0 must be positive and finite")
        if 1.0 > 0.5 * math.exp(EULER_GAMMA) * self.r0:
            raise DomainError(
                f"effective range bound violated: need r0 >= {R0_MIN:.6f} r1"
            )

    @property
    def a1(self) -> float:
        return math.inf if self.a1_inv == 0.0 else 1.0 / self.a1_inv

    @classmethod
    def from_a1(cls, a0: float, a1: float, **kw) -> "TwoBodyParams":
        if not a1 > 0:
            raise DomainError("a1 must be positive (use a1_inv=0 for resonance)")
        return cls(a0=a0, a1_inv=0.0 if math.isinf(a1) else 1.0 / a1, **kw)


@dataclass(frozen=True)
class TwoBodyDerived:
    """Dimer scales derived from TwoBodyParams.

    eps1 is the leading closed form; kappa1 is the numerically located pole
    of T1 and eps1_pole = -kappa1^2/2 its exact energy (the two agree only
    asymptotically in ln(a1/2)).
    """

    eps0: float
    eps1: float
    kappa1: float
    R1: float
    eps1_pole: float = field(default=0.0)


def cot_delta0(kappa: float, a0: float) -> float:
    """s-wave effective-range form: (2/pi) [gamma + ln(kappa a0 / 2)]."""
    if not (0.0 < kappa < math.inf and 0.0 < a0 < math.inf):  # NaN fails too
        raise DomainError("cot_delta0 needs finite kappa > 0 and a0 > 0")
    return (2.0 / math.pi) * (EULER_GAMMA + math.log(0.5 * kappa * a0))


def pole_function(kappa: float, a1_inv: float) -> float:
    """a1_inv/kappa^2 + ln kappa, the real p-wave inverse-T combination
    (pi/2 cot_delta1), whose smallest zero is the pole of T1."""
    return a1_inv / (kappa * kappa) + math.log(kappa)


def cot_delta1(kappa: float, a1_inv: float) -> float:
    """p-wave effective-range form: (2/pi) [a1_inv/kappa^2 + ln kappa]."""
    if not 0.0 < kappa < math.inf:  # NaN fails too
        raise DomainError("cot_delta1 needs finite kappa > 0")
    if not 0.0 <= a1_inv < math.inf:
        raise DomainError("a1_inv must be finite and >= 0")
    return (2.0 / math.pi) * pole_function(kappa, a1_inv)


def t_matrix(order: int, kappa: float, params: TwoBodyParams) -> float:
    """On-shell T-matrix element T_m(i kappa) = -(1/pi)/cot, real form.

    Raises TMatrixPoleError when evaluated on top of the dimer pole.
    """
    if order == 0:
        cot = cot_delta0(kappa, params.a0)
    elif order == 1:
        cot = cot_delta1(kappa, params.a1_inv)
    else:
        raise DomainError(f"t_matrix: order must be 0 or 1, got {order}")
    if abs(cot) < 1e-12:
        raise TMatrixPoleError(
            f"T_{order}(i*{kappa:g}) evaluated at a dimer pole (|cot|={abs(cot):.2e})"
        )
    return -1.0 / (math.pi * cot)


def pole_minimum(a1_inv: float) -> float:
    """kappa* = sqrt(2 a1_inv), where ``pole_function`` takes its minimum.

    T1 has its pole kappa1 below kappa* and the function's second zero above
    it only where the minimum is negative, that is for a1 > 2e; otherwise
    (and at exact resonance) NoPoleError.
    """
    if not 0.0 <= a1_inv < math.inf:  # NaN fails too
        raise DomainError("a1_inv must be finite and >= 0")
    if a1_inv == 0.0:
        raise NoPoleError("exact resonance: T1 pole sits at kappa = 0")
    k_star = math.sqrt(2.0 * a1_inv)
    if pole_function(k_star, a1_inv) >= 0.0:
        raise NoPoleError(
            f"no p-wave bound state for a1 = {1.0 / a1_inv:g} (need a1 > 2e)"
        )
    return k_star


def pwave_pole(a1_inv: float) -> float:
    """Smallest positive zero of ``pole_function`` (the pole of T1).

    Bracketed bisection/Brent between kappa -> 0+ (where the centrifugal term
    dominates) and the minimum of the pole function (``pole_minimum``).
    """
    k_star = pole_minimum(a1_inv)

    def f(kappa):
        return pole_function(kappa, a1_inv)

    lo = k_star
    while f(lo) < 0.0:
        lo *= 0.5
    return brent(f, lo, k_star)[0]


def dimer_energies(params: TwoBodyParams) -> TwoBodyDerived:
    """Dimer energies and ranges.

    eps0 = -2 e^(-2 gamma)/a0^2 exactly; eps1 from the leading closed form
    -1/(a1 ln(a1/2)); kappa1 from the numerical pole of T1; R1 from the
    closed form sqrt(a1/2 * ln(a1/2)).  At exact resonance (a1_inv = 0) the
    p-wave entries collapse to eps1 = 0, kappa1 = 0, R1 = inf.
    """
    eps0 = -2.0 * math.exp(-2.0 * EULER_GAMMA) / (params.a0 * params.a0)
    if params.a1_inv == 0.0:
        return TwoBodyDerived(eps0=eps0, eps1=0.0, kappa1=0.0, R1=math.inf, eps1_pole=0.0)
    a1 = params.a1
    log_half = math.log(0.5 * a1)
    if log_half <= 0:
        raise NoPoleError(f"a1 = {a1:g} too small for a weakly bound p-wave dimer")
    eps1 = -1.0 / (a1 * log_half)
    kappa1 = pwave_pole(params.a1_inv)
    r_1 = math.sqrt(0.5 * a1 * log_half)
    return TwoBodyDerived(
        eps0=eps0, eps1=eps1, kappa1=kappa1, R1=r_1, eps1_pole=-0.5 * kappa1 * kappa1
    )

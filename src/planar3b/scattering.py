"""Atom-molecule scattering observables of the heavy-pair problem.

The 2D cross-section at low incident momentum, the atom-molecule scattering
length A0 obtained from matching the short-range oscillatory solution onto
the free logarithm, and the series of scattering resonances in the p-wave
scattering length a1 where the level count crosses a half-integer.  Natural
units (r1 = 1) throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, TMatrixPoleError
from .specfun import EULER_GAMMA
from .wkb import count_bound_states, level_indices


@dataclass(frozen=True)
class ResonanceRow:
    n: int
    a1_exact: float
    a1_asymptotic: float
    A0_midpoint: float
    N_b_at: float
    capped: bool = False


@dataclass(frozen=True)
class ResonanceTable:
    rows: tuple


def cross_section(k: float, A0: float) -> float:
    """Total 2D atom-molecule cross-section,

    sigma0 = (pi^2/k) / [pi^2/4 + ln^2(k A0 e^gamma / 2)],

    valid for k r1 << 1.
    """
    if not (0 < k < math.inf and 0 < A0 < math.inf):
        raise DomainError(f"cross_section needs finite k > 0 and A0 > 0, got {k!r}, {A0!r}")
    log_term = math.log(0.5 * k * A0) + EULER_GAMMA
    return (math.pi**2 / k) / (0.25 * math.pi**2 + log_term * log_term)


def r1_range(a1: float) -> float:
    """Range sqrt(a1/2 ln(a1/2)) of the near-resonant effective potentials."""
    if not 2.0 < a1 < math.inf:  # NaN fails too
        raise DomainError("r1_range needs finite a1 > 2")
    return math.sqrt(0.5 * a1 * math.log(0.5 * a1))


def atom_molecule_A0(a1: float, nu0: float) -> float:
    """Atom-molecule scattering length

    A0 = R1(a1) exp{ -(1/(2 nu0)) pi N_b / cot(pi N_b) },

    with N_b the level-count estimate.  Exactly at a half-integer N_b the
    cotangent vanishes and A0 blows up (resonance); that vicinity is flagged
    with TMatrixPoleError.
    """
    n_b = count_bound_states(a1, nu0)
    cot = math.cos(math.pi * n_b) / math.sin(math.pi * n_b) if math.sin(math.pi * n_b) else math.inf
    if abs(cot) < 1e-10:
        raise TMatrixPoleError(f"A0 resonance: N_b = {n_b:.12g} is half-integer")
    if math.isinf(cot):
        return r1_range(a1)
    arg = -0.5 * math.pi * n_b / (cot * nu0)
    if arg > 700.0:  # divergent side of a resonance
        return math.inf
    if arg < -700.0:  # vanishing side
        return 0.0
    return r1_range(a1) * math.exp(arg)


def resonance_positions(n_range, nu0: float) -> ResonanceTable:
    """Resonance series a1^(n) where N_b = n + 1/2, by exact inversion:

    a1^(n) = 2 exp(pi^2 (n + 1/2)^2 / (2 nu0)),

    together with the leading asymptotic form exp(pi^2 n^2/(2 nu0)) for
    comparison.  A0 is reported at the inter-resonance midpoint (integer
    N_b = n + 1), where it equals R1 exactly.  Overflowing entries are
    returned capped at inf.  n_range is a tuple (first, last) or an
    iterable of indices (``wkb.level_indices``).
    """
    if not 0.0 < nu0 < math.inf:  # NaN fails too
        raise DomainError(f"nu0 must be positive and finite, got {nu0}")
    rows = []
    for n in level_indices(n_range):
        arg = math.pi**2 * (n + 0.5) ** 2 / (2.0 * nu0)
        arg_mid = math.pi**2 * (n + 1.0) ** 2 / (2.0 * nu0)
        arg_asym = math.pi**2 * n**2 / (2.0 * nu0)
        capped = arg > 700.0
        if capped:
            a1_n, a1_asym, a0_mid, nb_at = math.inf, math.inf, math.inf, n + 0.5
        else:
            a1_n = 2.0 * math.exp(arg)
            a1_asym = math.exp(min(arg_asym, 700.0))
            a0_mid = (
                atom_molecule_A0(2.0 * math.exp(arg_mid), nu0)
                if arg_mid <= 700.0
                else math.inf
            )
            nb_at = count_bound_states(a1_n, nu0)
        rows.append(
            ResonanceRow(
                n=n,
                a1_exact=a1_n,
                a1_asymptotic=a1_asym,
                A0_midpoint=a0_mid,
                N_b_at=nb_at,
                capped=capped,
            )
        )
    return ResonanceTable(rows=tuple(rows))

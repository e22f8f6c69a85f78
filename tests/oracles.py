"""Arbitrary-precision reference evaluators used as independent oracles.

Everything here is coded directly from the defining power series and the
large-argument (Hankel / modified) asymptotic expansions, evaluated in
mpmath arbitrary-precision arithmetic.  It deliberately shares no code with
``planar3b`` and does not call mpmath's own Bessel routines, so agreement
between the two is a genuine two-route check.  The one exception is
``full_phase_roots``, a reference root finder for full-phase WKB levels,
which searches planar3b's own quadrature phase by a route of its own.

Run ``python tests/oracles.py`` to regenerate the frozen reference tables in
``src/planar3b/_refvals.py``.
"""

from __future__ import annotations

import functools
import math

import mpmath as mp

_DPS = 120
_SERIES_MAX_J = 30.0  # below: power series; above: Hankel asymptotics
_SERIES_MAX_K = 40.0


@functools.lru_cache(maxsize=None)  # the Y and K series ask for H_k at every term
def _harmonic(k):
    return mp.fsum(mp.mpf(1) / i for i in range(1, k + 1)) if k else mp.mpf(0)


def _j_series(order, x):
    q = x * x / 4
    term = mp.mpf(1) if order == 0 else x / 2
    total = term
    k = 0
    while True:
        k += 1
        term *= -q / (k * (k + order))
        total += term
        if abs(term) < mp.eps * (abs(total) + 1):
            return total


def _i_series(order, x):
    q = x * x / 4
    term = mp.mpf(1) if order == 0 else x / 2
    total = term
    k = 0
    while True:
        k += 1
        term *= q / (k * (k + order))
        total += term
        if abs(term) < mp.eps * abs(total):
            return total


def _y_series(order, x):
    ell = mp.log(x / 2) + mp.euler
    q = x * x / 4
    if order == 0:
        total = mp.mpf(0)
        term = mp.mpf(1)
        k = 0
        while True:
            k += 1
            term *= q / (k * k)
            piece = (-1) ** (k + 1) * _harmonic(k) * term
            total += piece
            if abs(piece) < mp.eps * (abs(total) + 1):
                break
        return (2 / mp.pi) * (ell * _j_series(0, x) + total)
    total = mp.mpf(0)
    term = x / 2  # (x/2)^(2k+1) / (k! (k+1)!) at k = 0
    k = 0
    while True:
        piece = (-1) ** k * (_harmonic(k) + _harmonic(k + 1)) * term
        total += piece
        if abs(piece) < mp.eps * (abs(total) + 1) and k > 2:
            break
        k += 1
        term *= q / (k * (k + 1))
    return (2 / mp.pi) * ell * _j_series(1, x) - 2 / (mp.pi * x) - total / mp.pi


def _k_series(order, x):
    ell = mp.log(x / 2) + mp.euler
    q = x * x / 4
    if order == 0:
        total = mp.mpf(0)
        term = mp.mpf(1)
        k = 0
        while True:
            k += 1
            term *= q / (k * k)
            piece = _harmonic(k) * term
            total += piece
            if abs(piece) < mp.eps * (abs(total) + 1):
                break
        return -ell * _i_series(0, x) + total
    total = mp.mpf(0)
    term = x / 2
    k = 0
    while True:
        piece = (_harmonic(k) + _harmonic(k + 1)) * term
        total += piece
        if abs(piece) < mp.eps * (abs(total) + 1) and k > 2:
            break
        k += 1
        term *= q / (k * (k + 1))
    return ell * _i_series(1, x) + 1 / x - total / 2


def _hankel_pq(order, x):
    # P(nu,x) = sum (-1)^j a_{2j},  Q = sum (-1)^j a_{2j+1},
    # a_k = (nu,k)/(2x)^k with the Hankel symbol recurrence.
    mu = mp.mpf(4 * order * order)
    a = mp.mpf(1)
    p_total = mp.mpf(1)
    q_total = mp.mpf(0)
    k = 0
    while True:
        a = a * (mu - (2 * k + 1) ** 2) / (8 * (k + 1) * x)
        k += 1
        if k % 2:  # odd index -> Q term, sign (-1)^((k-1)/2)
            q_total += (-1) ** ((k - 1) // 2) * a
        else:  # even index -> P term, sign (-1)^(k/2)
            p_total += (-1) ** (k // 2) * a
        if abs(a) < mp.eps * (abs(p_total) + abs(q_total)) or k > 4 * int(x):
            return p_total, q_total


def _jy_asymptotic(order, x):
    p, q = _hankel_pq(order, x)
    amp = mp.sqrt(2 / (mp.pi * x))
    omega = x - order * mp.pi / 2 - mp.pi / 4
    jval = amp * (p * mp.cos(omega) - q * mp.sin(omega))
    yval = amp * (p * mp.sin(omega) + q * mp.cos(omega))
    return jval, yval


def _k_asymptotic(order, x):
    mu = mp.mpf(4 * order * order)
    term = mp.mpf(1)
    total = mp.mpf(1)
    k = 0
    while True:
        term = term * (mu - (2 * k + 1) ** 2) / (8 * (k + 1) * x)
        k += 1
        total += term
        if abs(term) < mp.eps * abs(total) or k > 4 * int(x):
            return mp.sqrt(mp.pi / (2 * x)) * mp.exp(-x) * total


def bessel_j(order, x):
    with mp.workdps(_DPS):
        x = mp.mpf(x)
        if x <= _SERIES_MAX_J:
            return _j_series(order, x)
        return _jy_asymptotic(order, x)[0]


def bessel_y(order, x):
    with mp.workdps(_DPS):
        x = mp.mpf(x)
        if x <= _SERIES_MAX_J:
            return _y_series(order, x)
        return _jy_asymptotic(order, x)[1]


def bessel_k(order, x):
    with mp.workdps(_DPS):
        x = mp.mpf(x)
        if order == 2:
            return bessel_k(0, x) + 2 * bessel_k(1, x) / x
        if x <= _SERIES_MAX_K:
            return _k_series(order, x)
        return _k_asymptotic(order, x)


def j1_first_zero():
    """First positive zero of J1, by bisection on the oracle series."""
    with mp.workdps(40):
        lo, hi = mp.mpf("3.8"), mp.mpf("3.9")
        for _ in range(200):
            mid = (lo + hi) / 2
            if bessel_j(1, lo) * bessel_j(1, mid) <= 0:
                hi = mid
            else:
                lo = mid
        return (lo + hi) / 2


# ----------------------------------------------------------------------
# Reference full-phase WKB levels: the same quadrature phase as planar3b,
# solved by an independent root finder (doubling brackets, then regula falsi
# to adjacent doubles)
# ----------------------------------------------------------------------

def full_phase_roots(targets, nu0, w, x_inner, x_cap):
    """x_n with wkb_phase_langer(x_inner, x_n) = target for every target, as
    one array solve: each upper bracket end starts near the closed-form
    level and doubles until the phase reaches its target (NaN once it
    passes x_cap), the last end below it becoming the lower end; then one
    ``refine_brackets`` call narrows all brackets.  NaN also marks the
    levels this search misses between its last end and x_cap.
    """
    import numpy as np

    from planar3b.numerics import refine_brackets
    from planar3b.wkb import wkb_phase_langer

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
    found = np.flatnonzero(f_hi >= 0.0)

    def f(x, rows):
        return wkb_phase_langer(x_inner, x, nu0, w, 0.0) - target[found[rows]]

    x_n = np.full(target.shape, math.nan)
    x_n[found], _ = refine_brackets(f, lo[found], hi[found], f_lo[found], f_hi[found])
    return x_n.tolist()


# ----------------------------------------------------------------------
# Frozen-table generation for planar3b._refvals (used by `planar3b validate`,
# which must not depend on mpmath at run time).
# ----------------------------------------------------------------------

def _grid(lo, hi, n=50):
    with mp.workdps(30):
        pts = [mp.mpf(10) ** (mp.log10(mp.mpf(lo)) + (mp.log10(mp.mpf(hi)) - mp.log10(mp.mpf(lo))) * i / (n - 1)) for i in range(n)]
        return [float(p) for p in pts]


TABLE_SPECS = {
    "j0": (lambda x: bessel_j(0, x), 1e-6, 1e4),
    "j1": (lambda x: bessel_j(1, x), 1e-6, 1e4),
    "y0": (lambda x: bessel_y(0, x), 1e-6, 1e4),
    "y1": (lambda x: bessel_y(1, x), 1e-6, 1e4),
    "k0": (lambda x: bessel_k(0, x), 1e-6, 700.0),
    "k1": (lambda x: bessel_k(1, x), 1e-6, 700.0),
    "k2": (lambda x: bessel_k(2, x), 1e-6, 700.0),
}


def build_tables():
    tables = {}
    for name, (fn, lo, hi) in TABLE_SPECS.items():
        rows = []
        for x in _grid(lo, hi):
            rows.append((x, float(fn(x))))
        tables[name] = rows
    return tables


def write_refvals(path):
    tables = build_tables()
    lines = [
        '"""Frozen Bessel reference values (generated by tests/oracles.py).',
        "",
        "Each entry is (x, value) with value the nearest double to an",
        'arbitrary-precision evaluation; used by the validation suite."""',
        "",
    ]
    for name, rows in tables.items():
        lines.append(f"{name.upper()} = (")
        for x, v in rows:
            lines.append(f"    ({x!r}, {v!r}),")
        lines.append(")")
        lines.append("")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


if __name__ == "__main__":
    import os

    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.join(here, "..", "src", "planar3b", "_refvals.py")
    write_refvals(os.path.normpath(target))
    print(f"wrote {os.path.normpath(target)}")

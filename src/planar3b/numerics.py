"""Numerical kernels: bracket scan, bracketed root finding, adaptive quadrature.

Brent, Ridders and adaptive Simpson work on scalar functions and need only
the standard library.  The bracket scan ``scan_sign_changes`` evaluates its
function once over a whole stack of grids as a numpy array (several
functions may share one grid) and returns every bracket of every row; its
log-spaced grids (``scan_grid``) are numpy expressions, built with np.log
and np.exp over the whole stack at once.  ``refine_brackets`` narrows many
brackets at once, one array evaluation per step.  ``brent`` and
``refine_brackets`` close a bracket by one rule: at adjacent doubles or an
exact zero, keeping the end with the smaller |f|.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, NotABracketError, QuadratureError

_EPS = 2.220446049250313e-16
#: iteration caps of ``brent`` and ``refine_brackets``: past them brent
#: raises ConvergenceError and refine_brackets returns each better end
_BRENT_MAXITER = 120
_REFINE_MAXITER = 200


def brent(f, a, b):
    """Root of f on the sign-change interval [a, b] by Brent's method, to
    adjacent doubles.

    f(a) and f(b) must have opposite signs (either may be an exact zero).
    The bracket closes when no double lies strictly between its ends or f
    is exactly 0 at an end, the rule of ``refine_brackets``; each step moves
    at least one ulp toward the far end, so it cannot stall.  Returns
    (x, f(x)) at the end with the smaller |f| (the lower end on a tie).
    """
    fa, fb = f(a), f(b)
    if fa * fb > 0.0:
        raise NotABracketError(f"not a bracket: f({a})={fa}, f({b})={fb}")
    c, fc = a, fa
    d = e = b - a
    for _ in range(_BRENT_MAXITER):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        step = math.nextafter(b, c)
        if fb == 0.0 or step == c:
            return (c, fc) if abs(fc) == abs(fb) and c < b else (b, fb)
        tol = abs(step - b)  # one ulp toward c
        m = 0.5 * (c - b)
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            s, e = e, d
            if 2.0 * p < 3.0 * m * q - abs(tol * q) and p < abs(0.5 * s * q):
                d = p / q
            else:
                d = e = m
        a, fa = b, fb
        b = b + d if abs(d) > tol else step
        fb = f(b)
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a
    raise ConvergenceError(f"brent: no convergence after {_BRENT_MAXITER} iterations")


class Brackets(NamedTuple):
    """Every bracket of a scan in row-major order (see scan_sign_changes):
    its row, ends a < b and f values fa, fb there, plus f on the whole grid
    as f returned it (fx)."""

    row: np.ndarray
    a: np.ndarray
    b: np.ndarray
    fa: np.ndarray
    fb: np.ndarray
    fx: np.ndarray


def scan_grid(lo, hi, n=200):
    """The (rows, n) array of log-spaced scan grids over [lo, hi], one row
    per element of lo and hi broadcast together (scalars give one row).

    Grid points are np.exp(ln lo + (ln hi - ln lo) i/(n - 1)), with np.log
    for the logarithms.  Each element is computed from its own row's ends
    only, so a row's points do not depend on the other rows: a point solve
    and the sweep row at the same ends scan the same grid.
    """
    lo = np.asarray(lo, dtype=float).reshape(-1, 1)
    hi = np.asarray(hi, dtype=float).reshape(-1, 1)
    if not np.all(lo > 0):
        raise ValueError("log-spaced scan needs lo > 0")
    llo, lhi = np.log(lo), np.log(hi)
    return np.exp(llo + (lhi - llo) * np.arange(n) / (n - 1))


def scan_sign_changes(f, lo, hi, n=200) -> Brackets:
    """Every sign-change bracket of f on n-point log grids over [lo, hi].

    f is called once, with the (rows, n) array of grids (``scan_grid``), and
    returns its values there: shape (rows, n), or (m, rows, n) for m
    functions on the same grids, which count as m * rows rows (function j on
    grid r is row j * rows + r).  A pair of neighbouring points brackets a
    root when both values are finite and either the right one is an exact
    zero or the signs differ, so non-finite values break the brackets across
    them.
    """
    x = scan_grid(lo, hi, n)
    fx = np.asarray(f(x), dtype=float)
    v = fx.reshape(-1, n)
    left, right = v[:, :-1], v[:, 1:]
    hits = (np.isfinite(left) & np.isfinite(right)
            & ((right == 0.0) | (np.sign(left) * np.sign(right) < 0.0)))
    row, i = np.nonzero(hits)
    grid = row % len(x)
    return Brackets(row, x[grid, i], x[grid, i + 1], v[row, i], v[row, i + 1], fx)


def refine_brackets(f, a, b, fa, fb):
    """Roots of f on many brackets at once, each to adjacent doubles.

    f(x, rows) evaluates the function of each bracket listed in the index
    array `rows` at the points x (arrays of one length).  a < b, fa and fb
    are arrays with fa*fb <= 0 per bracket.  Each step is one call of f on
    the brackets still open: a regula falsi point with the Illinois rule
    (the f value of an end kept twice in a row is halved for the next
    secant; Dowell and Jarratt, BIT 11 (1971) 168) held a few ulp inside
    the bracket, or the midpoint when the bracket is too narrow for that or
    has not halved over the last three steps.  A bracket closes when it
    holds no double between its ends or an end is an exact zero, as in
    ``brent``.

    Returns (x, fx): the end with the smaller |f| of each final bracket
    (NaN where f gave a non-finite value).
    """
    a, b, fa, fb = (np.array(v, dtype=float) for v in (a, b, fa, fb))
    ga, gb = fa.copy(), fb.copy()  # the secant's f values
    moved = np.zeros(a.shape, dtype=np.int8)  # -1: a moved last step, +1: b
    width = np.full((3,) + a.shape, math.inf)  # widths at the last three steps
    lost = np.zeros(a.shape, dtype=bool)
    for _ in range(_REFINE_MAXITER):
        mid = 0.5 * (a + b)
        rows = np.flatnonzero((mid > a) & (mid < b) & (fa != 0.0) & (fb != 0.0) & ~lost)
        if rows.size == 0:
            break
        ar, br, gar, gbr = a[rows], b[rows], ga[rows], gb[rows]
        now = br - ar
        # a secant point keeps 2-4 ulp from either end: once one end has
        # converged, the next point lands past the root and closes the bracket
        gap = 4.0 * _EPS * np.maximum(np.abs(ar), np.abs(br))
        c = np.clip(br - gbr * (now / (gbr - gar)), ar + gap, br - gap)
        secant = (c > ar) & (c < br) & (now > 2.0 * gap) & (now <= 0.5 * width[-1, rows])
        c = np.where(secant, c, mid[rows])
        width[1:, rows] = width[:-1, rows]
        width[0, rows] = now
        fc = np.asarray(f(c, rows), dtype=float)
        lost[rows] = ~np.isfinite(fc)
        left = (np.sign(fc) == np.sign(fa[rows])) | (fc == 0.0)
        right = np.sign(fc) == np.sign(fb[rows])
        mr = moved[rows]
        # Illinois: halve the secant value of the end kept a second time
        ga[rows] = np.where(left, fc, np.where(right & (mr == 1), 0.5 * gar, gar))
        gb[rows] = np.where(right, fc, np.where(left & (mr == -1), 0.5 * gbr, gbr))
        a[rows] = np.where(left, c, ar)
        fa[rows] = np.where(left, fc, fa[rows])
        b[rows] = np.where(right, c, br)
        fb[rows] = np.where(right, fc, fb[rows])
        moved[rows] = np.where(left, -1, np.where(right, 1, 0))
    keep_a = np.abs(fa) <= np.abs(fb)
    x = np.where(keep_a, a, b)
    fx = np.where(keep_a, fa, fb)
    x[lost] = fx[lost] = math.nan
    return x, fx


def adaptive_simpson(f, a, b, tol, *, max_depth=48):
    """Integral of f over [a, b] by adaptive Simpson to absolute tolerance.

    Returns (value, error_estimate).  Intervals are bisected at least
    three times before their error estimate is trusted: on a wide interval
    the two Simpson sums can agree by coincidence.  Raises QuadratureError
    when an interval cannot meet its share of the tolerance within
    `max_depth` bisections.
    """
    if a == b:
        return 0.0, 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) * (fa + 4.0 * fm + fb) / 6.0
    # stack entries: (a, m, b, fa, fm, fb, simpson(a,b), tol, depth)
    stack = [(a, m, b, fa, fm, fb, whole, tol, 0)]
    total = 0.0
    err_total = 0.0
    while stack:
        a0, m0, b0, fa0, fm0, fb0, s0, tol0, depth = stack.pop()
        lm = 0.5 * (a0 + m0)
        rm = 0.5 * (m0 + b0)
        flm, frm = f(lm), f(rm)
        s_left = (m0 - a0) * (fa0 + 4.0 * flm + fm0) / 6.0
        s_right = (b0 - m0) * (fm0 + 4.0 * frm + fb0) / 6.0
        s2 = s_left + s_right
        err = (s2 - s0) / 15.0
        if ((abs(err) <= tol0 and depth >= 3)
                or (b0 - a0) <= _EPS * (abs(a0) + abs(b0))):
            total += s2 + err  # Richardson extrapolation
            err_total += abs(err)
            continue
        if depth >= max_depth:
            raise QuadratureError(
                f"adaptive_simpson: tolerance {tol0:g} unmet on "
                f"[{a0:g}, {b0:g}] at depth {depth}"
            )
        half = 0.5 * tol0
        stack.append((a0, lm, m0, fa0, flm, fm0, s_left, half, depth + 1))
        stack.append((m0, rm, b0, fm0, frm, fb0, s_right, half, depth + 1))
    return total, err_total


def ridders(f, a, b, *, xtol=0.0, rtol=1e-12, maxiter=80):
    """Root of f on a sign-change interval [a, b] by Ridders' method.

    Stops when the bracket is narrower than xtol + rtol |x|, or, as
    Numerical Recipes' zriddr does, when a new estimate lies that close to
    the previous one; that estimate is returned without evaluating f there.
    Where f near the root is rounding noise, the estimates settle while the
    bracket's far end only halves, so the second rule ends the search.
    """
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise NotABracketError("ridders: not a bracket")
    x_prev = math.inf
    for _ in range(maxiter):
        m = 0.5 * (a + b)
        fm = f(m)
        s = math.sqrt(fm * fm - fa * fb)
        if s == 0.0:
            return m
        x = m + (m - a) * (1 if fa > fb else -1) * fm / s
        if abs(x - x_prev) <= xtol + rtol * abs(x):
            return x
        x_prev = x
        fx = f(x)
        if fx == 0.0:
            return x
        if fm * fx < 0.0:
            a, fa, b, fb = m, fm, x, fx
        elif fa * fx < 0.0:
            b, fb = x, fx
        else:
            a, fa = x, fx
        if abs(b - a) <= xtol + rtol * abs(0.5 * (a + b)):
            return 0.5 * (a + b)
    raise ConvergenceError("ridders: no convergence")

"""Numerical kernels: bracket scan, bracketed root finding, adaptive quadrature.

Brent, Ridders and adaptive Simpson work on scalar functions and need only
the standard library; the bracket scan evaluates its function once over the
whole grid as a numpy array.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, NotABracketError, QuadratureError

_EPS = 2.220446049250313e-16


def brent(f, a, b, *, xtol=1e-15, rtol=4 * _EPS, maxiter=120):
    """Root of f on the sign-change interval [a, b] by Brent's method.

    f(a) and f(b) must have opposite signs (either endpoint may be an exact
    zero).  Returns the root location; tolerance is ``xtol + rtol*|x|``.
    """
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise NotABracketError(f"not a bracket: f({a})={fa}, f({b})={fb}")
    c, fc = a, fa
    d = e = b - a
    for _ in range(maxiter):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * rtol * abs(b) + 0.5 * xtol
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
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
        if abs(d) > tol:
            b += d
        else:
            b += tol if m > 0 else -tol
        fb = f(b)
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a
    raise ConvergenceError(f"brent: no convergence after {maxiter} iterations")


def scan_sign_changes(f, lo, hi, n=200, *, log=True):
    """Scan f on an n-point grid over [lo, hi] and return sign-change brackets.

    f is called once, with the whole grid as a numpy array, and returns the
    values as an array.  Non-finite values are skipped and break the
    brackets across them.  Returns a list of (a, b) intervals, in increasing
    order, together with the smallest finite |f| seen (for diagnostics).
    """
    if log:
        if lo <= 0:
            raise ValueError("log-spaced scan needs lo > 0")
        llo, lhi = math.log(lo), math.log(hi)
        grid = [math.exp(llo + (lhi - llo) * i / (n - 1)) for i in range(n)]
    else:
        grid = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    x = np.array(grid)
    fx = np.asarray(f(x), dtype=float)
    finite = np.isfinite(fx)
    left, right = fx[:-1], fx[1:]
    # a pair brackets a root when both ends are finite and either the right
    # end is an exact zero or the signs differ
    hits = finite[:-1] & finite[1:] & ((right == 0.0) | (np.sign(left) * np.sign(right) < 0.0))
    brackets = [(grid[i], grid[i + 1]) for i in np.flatnonzero(hits)]
    min_abs = float(np.abs(fx[finite]).min()) if finite.any() else math.inf
    return brackets, min_abs


def expand_bracket_up(f, lo, hi0, *, factor=2.0, maxiter=200):
    """Grow [lo, hi] upward by `factor` until f changes sign across it."""
    flo = f(lo)
    hi = hi0
    for _ in range(maxiter):
        fhi = f(hi)
        if flo == 0.0 or flo * fhi <= 0.0:
            return lo, hi
        lo, flo = hi, fhi
        hi *= factor
    raise ConvergenceError("no sign change found while expanding bracket")


def adaptive_simpson(f, a, b, tol, *, max_depth=48):
    """Integral of f over [a, b] by adaptive Simpson to absolute tolerance.

    Returns (value, error_estimate).  Raises QuadratureError when an interval
    cannot meet its share of the tolerance within `max_depth` bisections.
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
        if abs(err) <= tol0 or (b0 - a0) <= _EPS * (abs(a0) + abs(b0)):
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
    """Root of f on a sign-change interval [a, b] by Ridders' method."""
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise NotABracketError("ridders: not a bracket")
    for _ in range(maxiter):
        m = 0.5 * (a + b)
        fm = f(m)
        s = math.sqrt(fm * fm - fa * fb)
        if s == 0.0:
            return m
        x = m + (m - a) * (1 if fa > fb else -1) * fm / s
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

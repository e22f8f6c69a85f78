"""Real-argument Bessel functions J0, J1, Y0, Y1 and modified K0, K1, K2.

The transcendental equations elsewhere in the package need only these seven
functions, so they are implemented here directly instead of pulling in a
special-function library.  J/Y and K read the same coefficient tables, with
one evaluation scheme per regime:

* ``K``: K0 and K1 together by the log-type power series (DLMF 10.31.2) for
  x <= 2 as one 16-term Horner pass in q = x^2/4, and the asymptotic
  expansion (DLMF 10.40.2) for x >= 16, stopped where its terms start to
  grow.  Neither reaches 1e-10 relative accuracy in double precision on the
  gap (series cancellation grows like e^(2x), the asymptotic tail only
  shrinks like e^(-2x)), so the mid range evaluates the integral
  K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt (DLMF 10.32.9) by the
  trapezoidal rule on at most 24 tabulated nodes, which is spectrally
  accurate for this integrand.
* ``J``/``Y``: the power series of J_n and Y_n (DLMF 10.8.1-2) are the rows
  of K's series table taken at -q instead of q, 20 terms for x <= 4.  The
  Hankel expansion (DLMF 10.17.3-4) for x >= 16 sums K's asymptotic terms
  with the signs + + - - from the zeroth on.  On the gap the series would
  lose ~e^x to cancellation, so there Bessel's integrals (DLMF 10.9.1,
  10.9.7) are evaluated by a 64-node Gauss-Legendre rule on [0, pi],
  folded onto its 32 mirror pairs theta <-> pi - theta (they share sin
  theta and the weight), so that an element takes one cosine or sine per
  pair; Y adds its tail integral on a 64-node rule.  Both are good to a
  few 1e-15 absolute.  Each kernel computes only the function asked for:
  J's series is one Horner row, Y's two (its sum contains J), and J's
  quadrature has no tail.
* ``K2`` always goes through the upward recurrence K2 = K0 + 2 K1/x
  (cancellation-free: all terms positive).

K has two loops over its tables, each returning K0 and K1 together.
``bessel_k01_float`` takes one float: the Brent polish of every point solve
takes one such pair per residual evaluation, where a numpy call would cost
several times more per argument, and ``bessel_k`` returns one order (or
K2) of the same pair.  ``bessel_k01`` takes a whole numpy array, for the
sign maps and array refinement of the branch solvers and for wavefunction
grids.  The two loops agree to 8 ulp.  J and Y have one loop, over arrays:
their only many-point caller, ``radial.zero_energy_exact``, passes a whole
grid, and a float is evaluated as a one-element array, which gives it the
bits it has inside any array.

Phases of the Hankel expansion are evaluated as cos(x - pi/4) =
(cos x + sin x)/sqrt(2) etc., so no accuracy is lost subtracting pi/4 from a
large argument.
"""

from __future__ import annotations

import bisect
import functools
import math

import numpy as np

from .errors import DomainError

#: Euler-Mascheroni constant to full double precision.
EULER_GAMMA = 0.5772156649015329

_INV_SQRT2 = 0.7071067811865476

_JY_SERIES_MAX = 4.0
_JY_ASYMP_MIN = 16.0
_K_SERIES_MAX = 2.0
_K_ASYMP_MIN = 16.0
_K_TRAP_STEP = 0.18


def _series_table():
    # Rows: the power series of I0, of I1/(x/2), of the K0 sum and of the K1
    # sum over (x/2), as coefficients of q^k = (x^2/4)^k, k = 0..19:
    # 1/k!^2, 1/(k!(k+1)!), H_k/k!^2 and (H_k + H_{k+1})/(k!(k+1)!), with H_k
    # the harmonic numbers.  K reads the first 16 columns: at q <= 1 (x <= 2)
    # the first term left out, q^16/16!^2, is below 1e-26.  J/Y read all 20:
    # at q <= 4 (x <= 4) the first term left out is below 1e-24.
    table = np.empty((4, 20))
    h = [math.fsum(1.0 / j for j in range(1, k + 1)) for k in range(21)]
    for k in range(20):
        f0 = math.factorial(k) ** 2
        f1 = math.factorial(k) * math.factorial(k + 1)
        table[:, k] = 1.0 / f0, 1.0 / f1, h[k] / f0, (h[k] + h[k + 1]) / f1
    return table


_K_SERIES_TABLE = _series_table()
#: the columns that both K loops read
_K_SERIES = _K_SERIES_TABLE[:, :16]
#: the trapezoidal rule's nodes t_j = j h as tabulated for both K loops:
#: -(cosh t_j - 1) and cosh t_j.  24 nodes reach x (cosh t - 1) > 60 for
#: every x > _K_SERIES_MAX, so the rule's tail is below e^-60 there.
_K_TRAP_T = _K_TRAP_STEP * np.arange(1, 25)
_K_TRAP_NEG_W = -2.0 * np.sinh(0.5 * _K_TRAP_T) ** 2
_K_TRAP_COSH = np.cosh(_K_TRAP_T)
#: r_k = (mu - (2k - 1)^2)/(8k), k = 1..34, for orders 0 and 1 (rows): term
#: k of the asymptotic series is term k-1 times r_k/x.  From k = 2 on |r_k|
#: grows, so the terms fall while |r_k| < x and rise after; at x >= 16 the
#: turn comes by k = 34, and the terms it leaves out are of order e^-2x.
_K_ASYMP_K = np.arange(1.0, 35.0)
_K_ASYMP_RATIOS = np.array([(mu - (2.0 * _K_ASYMP_K - 1.0) ** 2) / (8.0 * _K_ASYMP_K)
                            for mu in (0.0, 4.0)])[:, :, None]
#: The same tables as Python floats, for the one-argument loop of
#: ``bessel_k01_float``: the series' columns in Horner order, the rule's
#: (cosh t_j - 1) and its node pairs, and the asymptotic ratios per order.
_K_SERIES_COLS = tuple(map(tuple, _K_SERIES[:, ::-1].T.tolist()))
_K_TRAP_W = (-_K_TRAP_NEG_W).tolist()
_K_TRAP_NODES = tuple(zip(_K_TRAP_NEG_W.tolist(), _K_TRAP_COSH.tolist()))
_K_ASYMP_ROWS = tuple(map(tuple, _K_ASYMP_RATIOS[:, :, 0].tolist()))
#: signs of the Hankel terms k = 1..34: P takes the even k, Q the odd k, and
#: each alternates, which makes + + - - from k = 0 (the 1 of P) on.
_HANKEL_SIGNS = np.resize([1.0, -1.0, -1.0, 1.0], _K_ASYMP_K.size)


def bessel_k01_float(x: float) -> tuple:
    """(K0, K1) at one float x > 0, from one evaluation.

    The scalar loop of ``bessel_k01``'s three regimes, on the same tables,
    one float at a time; ``bessel_k`` returns one order of this pair.
    """
    if not x > 0.0:  # also rejects NaN; +inf underflows to 0.0 below
        raise DomainError(f"bessel_k01_float: x must be > 0, got {x}")
    if x <= _K_SERIES_MAX:
        q = 0.25 * x * x
        p0 = p1 = p2 = p3 = 0.0
        for c0, c1, c2, c3 in _K_SERIES_COLS:
            p0 = p0 * q + c0
            p1 = p1 * q + c1
            p2 = p2 * q + c2
            p3 = p3 * q + c3
        half = 0.5 * x
        lg = math.log(half) + EULER_GAMMA
        return p2 - lg * p0, lg * half * p1 + 1.0 / x - 0.5 * half * p3
    if x < _K_ASYMP_MIN:
        s0 = s1 = 0.0
        for neg_w, cosh_t in _K_TRAP_NODES[:bisect.bisect_left(_K_TRAP_W, 60.0 / x) + 1]:
            e = math.exp(neg_w * x)
            s0 += e
            s1 += e * cosh_t
        scale = _K_TRAP_STEP * math.exp(-x)
        return scale * (0.5 + s0), scale * (0.5 + s1)
    amp = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
    out = []
    for ratios in _K_ASYMP_ROWS:
        term = 1.0
        total = 0.0
        for r in ratios:
            if abs(r) >= x:
                break
            term *= r / x
            total += term
            if -1e-17 < term < 1e-17:
                # the terms left before the cut, at most 34 and each one
                # smaller, add up to less than 2 ulp of 1 + total
                break
        out.append(amp * (1.0 + total))
    return tuple(out)


def _k01_series(x):
    # DLMF 10.31.2 for orders 0 and 1 over an array: one Horner pass in q
    # over the four stacked series of _K_SERIES.
    q = 0.25 * x * x
    p = np.empty((4, x.size))
    p[:] = _K_SERIES[:, -1:]
    for c in _K_SERIES[:, -2::-1].T:
        p *= q
        p += c[:, None]
    half = 0.5 * x
    lg = np.log(half) + EULER_GAMMA
    return p[2] - lg * p[0], lg * half * p[1] + 1.0 / x - 0.5 * half * p[3]


def _k01_trapezoid(x):
    # DLMF 10.32.9, K_nu(x) = e^-x int_0^inf exp(-x (cosh t - 1)) cosh(nu t) dt,
    # by the trapezoidal rule at step h = 0.18 (discretization error
    # ~ exp(-pi^2/h)), for orders 0 and 1 over an array.  The nodes run until
    # x (cosh t - 1) >= 60, with one node count for all elements, taken from
    # the smallest.
    n = min(int(np.searchsorted(-_K_TRAP_NEG_W, 60.0 / x.min())) + 1, _K_TRAP_T.size)
    e = np.multiply.outer(_K_TRAP_NEG_W[:n], x)
    np.exp(e, out=e)
    s0 = e.sum(axis=0)
    e *= _K_TRAP_COSH[:n, None]
    s1 = e.sum(axis=0)
    scale = _K_TRAP_STEP * np.exp(-x)
    return scale * (0.5 + s0), scale * (0.5 + s1)


def _k01_asymp(x):
    # DLMF 10.40.2 for orders 0 and 1 over an array, each element stopped
    # where its terms start to grow.
    terms = np.cumprod(_K_ASYMP_RATIOS / x, axis=1)
    terms[np.abs(_K_ASYMP_RATIOS) >= x] = 0.0
    total = 1.0 + terms.sum(axis=1)
    return np.sqrt(math.pi / (2.0 * x)) * np.exp(-x) * total


def bessel_k01(x):
    """K0 and K1 at every element of an array x > 0, as two arrays.

    The array form of ``bessel_k01_float``, on the same three regimes and
    tables: the power series for x <= 2 as one fixed-degree Horner pass, the
    trapezoidal rule for 2 < x < 16 and the optimally truncated asymptotic
    series for x >= 16.  Agrees with the float loop to 8 ulp or better and
    underflows to 0.0 the same way.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0.0):  # also rejects NaN
        raise DomainError("bessel_k01: every x must be > 0")
    flat = x.ravel()
    k0 = np.empty_like(flat)
    k1 = np.empty_like(flat)
    small = flat <= _K_SERIES_MAX
    large = flat >= _K_ASYMP_MIN
    for where, kernel in ((small, _k01_series), (~(small | large), _k01_trapezoid),
                          (large, _k01_asymp)):
        if where.any():
            k0[where], k1[where] = kernel(flat[where])
    return k0.reshape(x.shape), k1.reshape(x.shape)


# The J/Y kernels below take an order, a 1-d array and the flag y, and
# return J (y false) or Y (y true) as an array, computing only that
# function.  Each element is reduced on its own (a row's sum over axis 1),
# so its bits do not depend on the other elements of the array.

def _jy_series(order, x, y):
    # DLMF 10.8.1-2: J_n's series is row `order` of _K_SERIES_TABLE taken at
    # -q instead of q, one Horner row.  Y_n's sum contains J_n and also
    # needs row `order + 2`, so Y evaluates both rows by one Horner pass.
    neg_q = -0.25 * x * x
    cols = _K_SERIES_TABLE[order:order + 1 + 2 * y:2, ::-1].T[:, :, None]
    p = np.empty((cols.shape[1], x.size))
    p[:] = cols[0]
    for c in cols[1:]:
        p *= neg_q
        p += c
    half = 0.5 * x
    j = half * p[0] if order else p[0]
    if not y:
        return j
    b = 0.5 * half * p[1] if order else p[1]
    return (2.0 / math.pi) * ((np.log(half) + EULER_GAMMA) * j - order / x - b)


@functools.cache
def _jy_rule():
    # The 64-node Gauss-Legendre rule on theta in [0, pi], folded onto its
    # 32 mirror pairs theta <-> pi - theta, which share sin theta and the
    # weight; and the 64-node rule on t in [0, T] with x sinh T >= 40 for
    # every x >= 4, beyond which the Y tail integral is below e^-40.  Built
    # on first use, so that runs which never reach the band do not load
    # numpy.polynomial and LAPACK (about 2 MB).
    nodes, weights = np.polynomial.legendre.leggauss(64)
    # leggauss returns its nodes and weights mirrored exactly
    sin_theta = np.sin(0.5 * math.pi * (nodes[:32] + 1.0))
    pair_weights = (weights[:32], weights[:32] * sin_theta)  # per order
    t_max = math.asinh(40.0 / _JY_SERIES_MAX)
    sinh_t = np.sinh(0.5 * t_max * (nodes + 1.0))
    w_t = (t_max / math.pi) * weights
    tail_weights = (w_t, w_t * sinh_t)  # times e^nt + (-1)^n e^-nt, over pi
    return sin_theta, pair_weights, sinh_t, tail_weights


def _jy_quadrature(order, x, y):
    # DLMF 10.9.1 and 10.9.7 by Gauss-Legendre quadrature, for 4 < x < 16:
    # pi J_n = int_0^pi cos(x sin th - n th) dth,
    # pi Y_n = int_0^pi sin(x sin th - n th) dth
    #          - int_0^inf (e^{nt} + (-1)^n e^{-nt}) e^{-x sinh t} dt.
    # Both integrands are entire, so the rules converge geometrically.  On
    # the folded rule (weights w summing to 1, s = sin th) the first
    # integrals are J0 = sum w cos(x s), J1 = sum w s sin(x s), and for Y0
    # and Y1 sum w sin(x s) and -sum w s cos(x s): one trig function per
    # pair.  Only Y takes the tail integral.
    sin_theta, pair_weights, sinh_t, tail_weights = _jy_rule()
    xs = np.multiply.outer(x, sin_theta)
    # J0 and Y1 take the cosine, J1 and Y0 the sine
    trig = (np.sin if order != y else np.cos)(xs, out=xs)
    trig *= pair_weights[order]
    main = trig.sum(axis=1)
    if not y:
        return main
    tail = np.exp(-np.multiply.outer(x, sinh_t))
    tail *= tail_weights[order]
    return (-main if order else main) - tail.sum(axis=1)


def _jy_asymp(order, x, y):
    # DLMF 10.17.3-4: P and Q sum the terms of K's asymptotic series with
    # _HANKEL_SIGNS, each element stopped where its terms start to grow, as
    # in _k01_asymp.  J = amp (P cos w - Q sin w), Y = amp (P sin w + Q cos w).
    ratios = _K_ASYMP_RATIOS[order, :, 0]
    terms = np.cumprod(ratios / x[:, None], axis=1)
    terms[np.abs(ratios) >= x[:, None]] = 0.0
    terms *= _HANKEL_SIGNS
    p = 1.0 + terms[:, 1::2].sum(axis=1)
    q = terms[:, 0::2].sum(axis=1)
    amp = np.sqrt(2.0 / (math.pi * x))
    c, s = np.cos(x), np.sin(x)
    if order == 0:
        cosw = (c + s) * _INV_SQRT2  # cos(x - pi/4)
        sinw = (s - c) * _INV_SQRT2
    else:
        cosw = (s - c) * _INV_SQRT2  # cos(x - 3*pi/4)
        sinw = -(s + c) * _INV_SQRT2
    if y:
        return amp * (p * sinw + q * cosw)
    return amp * (p * cosw - q * sinw)


def _check_order(order, allowed, name):
    if order not in allowed:
        raise DomainError(f"{name}: order must be in {sorted(allowed)}, got {order}")


def _jy(order, x, y):
    # J_order (y false) or Y_order (y true) at a float or an array x: a
    # float for a float, an array of x's shape for an array.
    name = "bessel_y" if y else "bessel_j"
    _check_order(order, (0, 1), name)
    xs = np.asarray(x, dtype=float)
    if not np.all((xs > 0.0 if y else xs >= 0.0) & (xs < math.inf)):  # also rejects NaN
        raise DomainError(f"{name}: x must be finite and {'>' if y else '>='} 0, got {x}")
    flat = xs.ravel()
    out = np.empty(flat.size)
    small = flat <= _JY_SERIES_MAX
    large = flat >= _JY_ASYMP_MIN
    for where, kernel in ((small, _jy_series), (~(small | large), _jy_quadrature),
                          (large, _jy_asymp)):
        if where.any():
            out[where] = kernel(order, flat[where], y)
    if xs.ndim == 0:
        return float(out[0])
    return out.reshape(xs.shape)


def bessel_j(order: int, x):
    """Bessel function of the first kind, order 0 or 1, finite x >= 0.

    x is a float (giving a float) or an array (giving an array of its
    shape); each element gets the bits of its own float call.
    """
    return _jy(order, x, False)


def bessel_y(order: int, x):
    """Bessel function of the second kind, order 0 or 1, finite x > 0.

    x is a float (giving a float) or an array (giving an array of its
    shape); each element gets the bits of its own float call.
    """
    return _jy(order, x, True)


def bessel_k(order: int, x: float) -> float:
    """Modified Bessel function of the second kind, order 0, 1 or 2, x > 0.

    Underflows smoothly to 0.0 once exp(-x) leaves the double range.
    """
    _check_order(order, (0, 1, 2), "bessel_k")
    if not x > 0.0:  # also rejects NaN; +inf underflows to 0.0 below
        raise DomainError(f"bessel_k: x must be > 0, got {x}")
    k0, k1 = bessel_k01_float(x)
    if order == 0:
        return k0
    if order == 1:
        return k1
    return k0 + 2.0 * k1 / x

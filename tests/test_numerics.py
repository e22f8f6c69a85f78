"""Bracket scan: one array evaluation over the grid, brackets by numpy;
array refinement of many brackets at once; Brent's method to adjacent
doubles, by the same closing rule; Ridders' method; adaptive Simpson."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from planar3b import potentials as P
from planar3b.errors import ConvergenceError, NoRealRootError, NotABracketError
from planar3b.numerics import (adaptive_simpson, brent, refine_brackets, ridders,
                               scan_grid, scan_sign_changes)
from planar3b.specfun import bessel_k
from planar3b.twobody import TwoBodyParams


def _pairs(scan):
    return list(zip(scan.a.tolist(), scan.b.tolist()))


def _index(x):
    """The index i of the points e^i of the grid that ``_scan`` scans."""
    return np.rint(np.log(x)).astype(int)


def _scan(values):
    """Scan a function whose value at grid point i is values[i]: the
    brackets as pairs (i, i + 1) of grid indices, and the scan."""
    table = np.array(values, dtype=float)
    calls = []

    def f(x):
        calls.append(x)
        return table[_index(x)]

    # a log grid over [1, e^(n - 1)] puts grid point i at e^i
    scan = scan_sign_changes(f, 1.0, math.exp(len(values) - 1.0), n=len(values))
    assert len(calls) == 1 and isinstance(calls[0], np.ndarray)
    assert (scan.row == 0).all()
    np.testing.assert_array_equal(scan.fx, table[None, :])
    return list(zip(_index(scan.a).tolist(), _index(scan.b).tolist())), scan


def test_scan_non_finite_value_breaks_bracket():
    brackets, _ = _scan([1.0, math.nan, -1.0, -2.0, math.inf, 3.0])
    assert brackets == []
    brackets, scan = _scan([1.0, math.nan, 2.0, -1.0])
    assert brackets == [(2.0, 3.0)]
    assert (scan.fa.tolist(), scan.fb.tolist()) == ([2.0], [-1.0])


def test_scan_exact_zero_gives_one_bracket():
    assert _scan([1.0, 0.0, -1.0])[0] == [(0.0, 1.0)]
    assert _scan([-1.0, 0.0, -1.0])[0] == [(0.0, 1.0)]
    # a zero at the first grid point has no left neighbour to pair with
    assert _scan([0.0, 1.0, 2.0])[0] == []


def test_scan_brackets_in_increasing_order():
    brackets, scan = _scan([2.0, -1.0, -0.5, 3.0, 4.0, -2.0])
    assert brackets == [(0.0, 1.0), (2.0, 3.0), (4.0, 5.0)]
    assert scan.fa.tolist() == [2.0, -0.5, 4.0]
    assert scan.fb.tolist() == [-1.0, 3.0, -2.0]


def test_scan_min_abs_ignores_non_finite(monkeypatch):
    # the scan hands back every value; a point solve without a bracket
    # reports the smallest finite |F| among them
    values = []

    def residual(xi, z, log_xi, k0, k1):
        if isinstance(xi, np.ndarray):
            out = np.full(xi.shape, 5.0)
            out[..., :len(values)] = values
            return out
        return 5.0

    monkeypatch.setattr(P, "_pwave_equation", lambda *args: (residual, None, "stub"))
    for given, min_abs in (([math.inf, -3.0, math.nan, 2.0, -math.inf], 2.0),
                           ([math.nan, math.inf] * 100, math.inf)):
        values[:] = given
        with pytest.raises(NoRealRootError) as info:
            P.solve_pwave_I(10.0, TwoBodyParams.from_a1(a0=10.0, a1=100.0), +1)
        assert info.value.min_abs_residual == min_abs


def test_scan_log_grid_matches_expression():
    seen = []

    def f(x):
        seen.append(x)
        return x - 0.3

    scan = scan_sign_changes(f, 1e-3, 1.0, n=50)
    # the numpy expression, bit for bit: np.log of the ends, np.exp of the
    # exponents (math.exp differs from np.exp in the last bit at some points)
    llo, lhi = np.log([1e-3]), np.log([1.0])
    grid = np.exp(llo + (lhi - llo) * np.arange(50) / 49).tolist()
    assert len(seen) == 1 and seen[0].tolist() == [grid]
    [(a, b)] = _pairs(scan)
    assert a < 0.3 < b and grid.index(a) + 1 == grid.index(b)


_ENDS = st.floats(min_value=1e-300, max_value=1e300)


@given(ends=st.lists(st.tuples(_ENDS, _ENDS), min_size=1, max_size=40),
       n=st.integers(2, 300))
@settings(max_examples=60, deadline=None)
def test_scan_grid_rows_do_not_depend_on_neighbours(ends, n):
    # every row of a stacked grid equals, bit for bit, the grid of its own
    # ends alone: a point solve scans what the sweep row at its R scans
    lo, hi = np.array(ends).T
    grid = scan_grid(lo, hi, n)
    assert grid.shape == (len(ends), n)
    for row, (a, b) in zip(grid.tolist(), ends):
        assert row == scan_grid(a, b, n)[0].tolist()


def test_scan_stack_brackets_match_single_scans():
    # two functions on two grids: scan row j * 2 + r is function j on grid r
    lo = np.array([1e-3, 0.25])

    def g(j, x):
        return x - 0.3 if j == 0 else (x - 0.2) * (x - 0.6) * (x - 0.7)

    calls = []

    def f(x):
        calls.append(x.shape)
        return np.stack([g(0, x), g(1, x)])

    scan = scan_sign_changes(f, lo, 1.0, n=50)
    assert calls == [(2, 50)] and scan.fx.shape == (2, 2, 50)
    for j in range(2):
        for r in range(2):
            single = scan_sign_changes(lambda x: g(j, x), lo[r], 1.0, n=50)
            mine = scan.row == 2 * j + r
            assert _pairs(single) and _pairs(single) == list(zip(scan.a[mine].tolist(),
                                                                 scan.b[mine].tolist()))
            assert scan.fa[mine].tolist() == single.fa.tolist()
            assert scan.fb[mine].tolist() == single.fb.tolist()
    assert np.all(np.diff(scan.row) >= 0)
    assert np.bincount(scan.row).tolist() == [1, 1, 3, 2]


def test_refine_brackets_to_adjacent_doubles():
    roots = np.array([0.3, 2.0 ** 0.5, 7.0, 1e-9])
    calls = []

    def f(x, rows):
        calls.append(len(rows))
        return x * x * x - roots[rows] ** 3

    a, b = 0.5 * roots, 3.0 * roots
    x, fx = refine_brackets(f, a, b, f(a, np.arange(4)), f(b, np.arange(4)))
    for xi, root in zip(x, roots):
        assert abs(xi - root) <= 2.0 * math.ulp(root)
    assert len(calls) < 40
    # an exact zero at an end is kept; a non-finite value loses the bracket
    x, fx = refine_brackets(lambda x, rows: np.full(len(rows), math.nan),
                            np.array([1.0, 1.0]), np.array([2.0, 2.0]),
                            np.array([0.0, -1.0]), np.array([1.0, 1.0]))
    assert (x[0], fx[0]) == (1.0, 0.0)
    assert math.isnan(x[1]) and math.isnan(fx[1])


def _closed(f, x, fx):
    """True when (x, fx) is how a bracket of f closes: f(x) == fx, and f is
    exactly 0 at x or changes sign toward a neighbouring double."""
    if f(x) != fx:
        return False
    return fx == 0.0 or any(f(math.nextafter(x, to)) * fx < 0.0 for to in (-math.inf, math.inf))


@given(st.sampled_from([3, 5]), st.floats(min_value=1e-30, max_value=1e30),
       st.floats(min_value=0.01, max_value=0.999), st.floats(min_value=1.001, max_value=100.0),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_brent_matches_refine_brackets(power, c, below, above, negative):
    # an odd power minus a constant is monotone under rounding, and numpy's
    # products round as the float ones do, so its bracket closes on one pair
    # of adjacent doubles; both refinements must return the same end
    def f(x):
        y = x
        for _ in range(power - 1):
            y = y * x
        return y - c

    root = c ** (1.0 / power)
    a, b = below * root, above * root
    if negative:
        c = -c
        a, b = -b, -a
    fa, fb = f(a), f(b)
    assume(fa * fb <= 0.0)  # c ** (1/power) may round outside a tight bracket
    x, fx = brent(f, a, b)
    rx, rfx = refine_brackets(lambda x, rows: f(x), np.array([a]), np.array([b]),
                              np.array([fa]), np.array([fb]))
    assert (x, fx) == (rx[0], rfx[0])
    assert _closed(f, x, fx)


def test_brent_returns_smaller_end_and_lower_on_tie():
    # exact zero at an end
    assert brent(lambda x: x - 1.0, 1.0, 2.0) == (1.0, 0.0)
    assert brent(lambda x: x - 2.0, 1.0, 2.0) == (2.0, 0.0)
    # a step function changes sign between adjacent doubles at 1: the ends
    # tie on |f| and the lower one is kept
    assert brent(lambda x: -1.0 if x < 1.0 else 1.0, 0.5, 3.0) == (math.nextafter(1.0, 0.0), -1.0)
    with pytest.raises(NotABracketError):
        brent(lambda x: x, 1.0, 2.0)


@pytest.mark.parametrize("R_over_a0", [1.0 + 36 * 2.0 ** -52, 1.0 + 1e-9, 1.001, 1.5, 30.0])
def test_brent_closes_sminus_bracket(R_over_a0):
    # the s- point solve's widest bracket, (1e-280, 1), closes to
    # adjacent doubles within brent's iteration cap; just above R/a0 = 1
    # the root lies near 4e-8, far below the bracket's midpoint
    c = 2.0 * math.exp(-0.5772156649015329) * R_over_a0
    calls = []

    def f(xi):
        calls.append(xi)
        return bessel_k(0, c * xi) + math.log(xi)

    x, fx = brent(f, 1e-280, 1.0)
    assert len(calls) <= 2 + 120
    assert _closed(f, x, fx)


def _counted(f):
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


def test_ridders_stops_once_its_estimate_settles():
    # a steep line whose f at the root is rounding noise of one sign: every
    # estimate lands on the same double while the far end of the bracket
    # only halves, which took 24 evaluations on the bracket-width rule alone
    root = 1.0 / 3.0 + 1e-13
    f, calls = _counted(lambda x: 1e10 * (1.0 / 3.0 - x) + 1e-3)
    x = ridders(f, 0.0, 1.0, rtol=1e-10)
    assert abs(x - root) <= 2e-16
    assert len(calls) <= 6


def test_ridders_exact_zero_at_an_end():
    for a, b in ((1.0, 2.0), (0.0, 1.0)):
        f, calls = _counted(lambda x: x - 1.0)
        assert ridders(f, a, b) == 1.0
        assert calls == [a, b]


def test_ridders_rejects_a_non_bracket():
    with pytest.raises(NotABracketError):
        ridders(lambda x: x * x + 1.0, -1.0, 1.0)


def test_ridders_raises_at_maxiter():
    with pytest.raises(ConvergenceError):
        ridders(lambda x: math.exp(x) - 2.0, 0.0, 5.0, maxiter=1)
    # the same root within the default maxiter
    assert ridders(lambda x: math.exp(x) - 2.0, 0.0, 5.0) == pytest.approx(math.log(2.0), rel=1e-12)


def test_simpson_distrusts_coincident_estimates():
    # sin^2(4 pi x) vanishes on all five points of the first two Simpson
    # sums, so their agreement says nothing about the integral 1/2
    def f(x):
        return math.sin(4.0 * math.pi * x) ** 2

    assert abs(adaptive_simpson(f, 0.0, 1.0, 1e-10)[0] - 0.5) < 1e-10

"""Bracket scan: one array evaluation over the grid, brackets by numpy;
array refinement of many brackets at once; adaptive Simpson."""

import math

import numpy as np

from planar3b.numerics import (adaptive_simpson, first_brackets, refine_brackets, scan_grid,
                               scan_sign_changes)


def _scan(values):
    """Scan a function whose value at grid point i is values[i]."""
    table = np.array(values, dtype=float)
    calls = []

    def f(x):
        calls.append(x)
        return table[x.astype(int)]

    # a linear grid over [0, n - 1] puts grid point i at exactly i
    result = scan_sign_changes(f, 0.0, len(values) - 1.0, n=len(values), log=False)
    assert len(calls) == 1 and isinstance(calls[0], np.ndarray)
    return result


def test_scan_non_finite_value_breaks_bracket():
    brackets, _ = _scan([1.0, math.nan, -1.0, -2.0, math.inf, 3.0])
    assert brackets == []
    brackets, _ = _scan([1.0, math.nan, 2.0, -1.0])
    assert brackets == [(2.0, 3.0)]


def test_scan_exact_zero_gives_one_bracket():
    assert _scan([1.0, 0.0, -1.0])[0] == [(0.0, 1.0)]
    assert _scan([-1.0, 0.0, -1.0])[0] == [(0.0, 1.0)]
    # a zero at the first grid point has no left neighbour to pair with
    assert _scan([0.0, 1.0, 2.0])[0] == []


def test_scan_brackets_in_increasing_order():
    brackets, min_abs = _scan([2.0, -1.0, -0.5, 3.0, 4.0, -2.0])
    assert brackets == [(0.0, 1.0), (2.0, 3.0), (4.0, 5.0)]
    assert min_abs == 0.5


def test_scan_min_abs_ignores_non_finite():
    assert _scan([math.inf, -3.0, math.nan, 2.0, -math.inf])[1] == 2.0
    brackets, min_abs = _scan([math.nan, math.inf])
    assert brackets == [] and min_abs == math.inf


def test_scan_log_grid_matches_expression():
    seen = []

    def f(x):
        seen.append(x)
        return x - 0.3

    brackets, _ = scan_sign_changes(f, 1e-3, 1.0, n=50)
    llo, lhi = math.log(1e-3), math.log(1.0)
    grid = [math.exp(llo + (lhi - llo) * i / 49) for i in range(50)]
    assert seen[0].tolist() == grid
    [(a, b)] = brackets
    assert a < 0.3 < b and grid.index(a) + 1 == grid.index(b)


def test_scan_rows_first_bracket_and_count():
    def f(x):
        return np.where(np.arange(2)[:, None] == 0, x - 0.3, (x - 0.2) * (x - 0.6))

    x = scan_grid(np.array([1e-3, 1e-3]), 1.0, n=50)
    assert x.shape == (2, 50)
    scan = first_brackets(x, f(x))
    for row in range(2):
        brackets, _ = scan_sign_changes(lambda x: f(np.stack([x, x]))[row], 1e-3, 1.0, n=50)
        assert (scan.a[row], scan.b[row]) == brackets[0]
        assert scan.count[row] == len(brackets)
    assert scan.fa[0] < 0.0 < scan.fb[0]


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


def test_simpson_distrusts_coincident_estimates():
    # sin^2(4 pi x) vanishes on all five points of the first two Simpson
    # sums, so their agreement says nothing about the integral 1/2
    def f(x):
        return math.sin(4.0 * math.pi * x) ** 2

    assert abs(adaptive_simpson(f, 0.0, 1.0, 1e-10)[0] - 0.5) < 1e-10

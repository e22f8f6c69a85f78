"""Special-function tests against the arbitrary-precision oracle."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from planar3b import specfun
from planar3b.errors import DomainError

GAMMA = specfun.EULER_GAMMA


def _rel(a, b):
    with mp.workdps(40):
        return float(abs(mp.mpf(a) - b) / abs(b))


def _loggrid(lo, hi, n):
    return [10 ** (math.log10(lo) + (math.log10(hi) - math.log10(lo)) * i / (n - 1)) for i in range(n)]


# 1 <= x <= 16 on a fine grid: the top of the J/Y power series (x <= 4),
# where its cancellation is worst, and the quadrature band 4 < x < 16; with
# the doubles on both sides of the seams at 4 and 16, and of 6, the seam of
# an earlier series.
_JY_BAND = [1.0 + 5.0 * i / 200 for i in range(200)] + [6.0 + 10.0 * i / 400 for i in range(401)]
_JY_SEAMS = [math.nextafter(seam, seam + side) for seam in (4.0, 6.0, 16.0) for side in (-1.0, 1.0)]
_JY_POINTS = _loggrid(1e-6, 1e4, 50) + _JY_BAND + _JY_SEAMS


def _check_jy(got, want, x):
    assert _rel(got, want) <= 1e-10
    if 1.0 <= x <= 16.0:
        with mp.workdps(40):
            assert abs(mp.mpf(got) - want) <= 5e-15


# ---------------------------------------------------------------- oracle sweeps

@pytest.mark.parametrize("order", [0, 1, 2])
def test_bessel_k_oracle_sweep(order):
    for x in _loggrid(1e-6, 700.0, 50):
        assert _rel(specfun.bessel_k(order, x), oracles.bessel_k(order, x)) <= 1e-14


@pytest.mark.parametrize("order", [0, 1])
def test_bessel_j_oracle_sweep(order):
    for x in _JY_POINTS:
        _check_jy(specfun.bessel_j(order, x), oracles.bessel_j(order, x), x)


@pytest.mark.parametrize("order", [0, 1])
def test_bessel_y_oracle_sweep(order):
    for x in _JY_POINTS:
        _check_jy(specfun.bessel_y(order, x), oracles.bessel_y(order, x), x)


# The array kernel on a log grid over its whole range, with the doubles on
# both sides of the regime seams at 2 and 16, and tiny arguments.
_K01_POINTS = _loggrid(1e-8, 700.0, 120) + [
    math.nextafter(16.0, 0.0), 16.0, math.nextafter(16.0, 17.0),
    math.nextafter(2.0, 0.0), 2.0, math.nextafter(2.0, 3.0),
    math.nextafter(1e-8, 0.0), 1e-9, 1e-30]


def _ulps(a, b):
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


def test_bessel_k01_oracle_sweep():
    k0, k1 = specfun.bessel_k01(np.array(_K01_POINTS))
    for i, x in enumerate(_K01_POINTS):
        for order, got in ((0, k0[i]), (1, k1[i])):
            assert _rel(got, oracles.bessel_k(order, x)) <= 1e-14
            assert _ulps(got, specfun.bessel_k(order, x)) <= 8


# One draw per K regime: the series (log-uniform), the trapezoidal rule and
# the asymptotic series, and the doubles on both sides of the seams.
_K_REGIME_X = st.one_of(
    st.floats(min_value=-8.0, max_value=math.log10(2.0)).map(lambda e: 10.0 ** e),
    st.floats(min_value=2.0, max_value=16.0, exclude_min=True, exclude_max=True),
    st.floats(min_value=16.0, max_value=700.0),
    st.sampled_from([math.nextafter(seam, seam + side) for seam in (2.0, 16.0)
                     for side in (-1.0, 0.0, 1.0)]))


@given(st.lists(_K_REGIME_X, min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_bessel_k01_matches_scalar(xs):
    # an array evaluation shares its trapezoid node count among its elements
    k0, k1 = specfun.bessel_k01(np.array(xs))
    for i, x in enumerate(xs):
        for order, got in ((0, k0[i]), (1, k1[i])):
            assert _ulps(got, specfun.bessel_k(order, x)) <= 8


# One draw per J/Y regime: the power series (log-uniform, and 0), the
# quadrature band and the Hankel expansion, and the doubles on both sides of
# the seams.
_JY_REGIME_X = st.one_of(
    st.floats(min_value=-6.0, max_value=math.log10(4.0)).map(lambda e: 10.0 ** e),
    st.floats(min_value=4.0, max_value=16.0, exclude_min=True, exclude_max=True),
    st.floats(min_value=16.0, max_value=1e4),
    st.sampled_from([0.0] + [math.nextafter(seam, seam + side) for seam in (4.0, 16.0)
                             for side in (-1.0, 0.0, 1.0)]))


@given(st.lists(_JY_REGIME_X, min_size=1, max_size=8), st.sampled_from([0, 1]))
@settings(max_examples=200, deadline=None)
def test_bessel_jy_array_matches_float(xs, order):
    for fn, args in ((specfun.bessel_j, xs), (specfun.bessel_y, [x for x in xs if x > 0.0])):
        if not args:
            continue
        want = [fn(order, x) for x in args]
        assert all(type(w) is float for w in want)
        want = np.array(want)
        got = fn(order, np.array(args))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        got = fn(order, np.array(args).reshape(1, -1, 1))
        assert got.shape == (1, len(args), 1) and got.tobytes() == want.tobytes()
        assert fn(order, np.array(args[-1])) == want[-1]
        for bad in (math.nan, math.inf, -math.inf, -args[0] or -1.0):
            with pytest.raises(DomainError):
                fn(order, np.array(args + [bad]))
    # J0(0) = 1 and J1(0) = 0 exactly, also inside an array
    assert all(j == 1.0 - order for j, x in zip(specfun.bessel_j(order, np.array(xs)), xs)
               if x == 0.0)


def test_bessel_k01_underflow_shape_and_domain():
    big = np.array([740.0, 746.0, 800.0, 1e300, math.inf])
    for order, values in enumerate(specfun.bessel_k01(big)):
        assert values[0] > 0.0 and (values[1:] == 0.0).all()
        assert values[0] == specfun.bessel_k(order, 740.0)
    k0, k1 = specfun.bessel_k01([[1.0, 20.0], [1e-3, 1e-12]])
    assert k0.shape == k1.shape == (2, 2)
    assert k1[1, 1] == specfun.bessel_k(1, 1e-12)
    k0, k1 = specfun.bessel_k01(3.0)
    assert k0.shape == () and k0 == pytest.approx(specfun.bessel_k(0, 3.0), rel=1e-14)
    for bad in ([1.0, math.nan], [0.0], [2.0, -1.0], -math.inf):
        with pytest.raises(DomainError):
            specfun.bessel_k01(bad)


def test_oracle_against_mpmath_builtins():
    # belt-and-braces: the hand-coded oracle itself agrees with mpmath
    with mp.workdps(40):
        for x in (1e-4, 0.3, 2.0, 11.0, 150.0):
            assert abs(oracles.bessel_j(0, x) - mp.besselj(0, x)) < mp.mpf("1e-25")
            assert abs(oracles.bessel_y(1, x) - mp.bessely(1, x)) < mp.mpf("1e-25")
            assert abs(oracles.bessel_k(2, x) - mp.besselk(2, x)) < mp.mpf("1e-25") * mp.besselk(2, x)


# ---------------------------------------------------------------- frozen examples

def test_k0_at_one():
    assert specfun.bessel_k(0, 1.0) == pytest.approx(0.42102443824070834, rel=1e-12)


def test_j0_at_one():
    assert specfun.bessel_j(0, 1.0) == pytest.approx(0.7651976865579666, rel=1e-12)


def test_y0_at_one():
    assert specfun.bessel_y(0, 1.0) == pytest.approx(0.08825696421567696, rel=1e-12)


def test_j1_at_zero_and_first_zero():
    assert specfun.bessel_j(1, 0.0) == 0.0
    # first zero of J1 located by the oracle root-find
    z = float(oracles.j1_first_zero())
    assert z == pytest.approx(3.8317059702, abs=1e-9)
    assert abs(specfun.bessel_j(1, z)) < 1e-9


def test_k0_large_x_asymptotic_form():
    x = 50.0
    lead = math.sqrt(math.pi / (2 * x)) * math.exp(-x)
    assert specfun.bessel_k(0, x) == pytest.approx(lead, rel=1e-6)


def test_y1_small_x_singularity():
    x = 1e-6
    assert x * specfun.bessel_y(1, x) == pytest.approx(-2.0 / math.pi, abs=1e-8)


def test_k_underflows_to_zero():
    assert specfun.bessel_k(0, 800.0) == 0.0


# ---------------------------------------------------------------- identities

def test_k2_recurrence_on_log_grid():
    for x in _loggrid(1e-4, 100.0, 60):
        lhs = specfun.bessel_k(2, x)
        rhs = specfun.bessel_k(0, x) + 2.0 * specfun.bessel_k(1, x) / x
        assert lhs == pytest.approx(rhs, rel=1e-9)


@pytest.mark.parametrize("x", [0.5, 5.0, 50.0])
def test_bessel_wronskian(x):
    w = specfun.bessel_j(1, x) * specfun.bessel_y(0, x) - specfun.bessel_j(0, x) * specfun.bessel_y(1, x)
    assert w == pytest.approx(2.0 / (math.pi * x), abs=1e-10)


@given(st.floats(min_value=-4.0, max_value=2.0))
@settings(max_examples=60, deadline=None)
def test_k_positive_and_decreasing(log10x):
    x = 10.0 ** log10x
    for order in (0, 1, 2):
        a = specfun.bessel_k(order, x)
        b = specfun.bessel_k(order, x * 1.01)
        assert a > 0.0
        assert b < a


# ---------------------------------------------------------------- domain errors

def test_domain_errors():
    with pytest.raises(DomainError):
        specfun.bessel_k(0, 0.0)
    with pytest.raises(DomainError):
        specfun.bessel_k(1, -1.0)
    with pytest.raises(DomainError):
        specfun.bessel_j(0, -0.5)
    with pytest.raises(DomainError):
        specfun.bessel_y(1, 0.0)
    with pytest.raises(DomainError):
        specfun.bessel_k(3, 1.0)
    with pytest.raises(DomainError):
        specfun.bessel_j(2, 1.0)
    # non-finite arguments, which no regime's range contains
    for fn, order, x in ((specfun.bessel_j, 0, math.nan), (specfun.bessel_k, 0, math.nan),
                         (specfun.bessel_y, 0, math.nan), (specfun.bessel_y, 1, math.nan),
                         (specfun.bessel_j, 0, math.inf), (specfun.bessel_y, 1, math.inf)):
        with pytest.raises(DomainError):
            fn(order, x)
    assert specfun.bessel_k(0, math.inf) == 0.0

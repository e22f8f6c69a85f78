import logging
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from planar3b import potentials as P
from planar3b.errors import DomainError, NoRealRootError, TMatrixPoleError
from planar3b.specfun import EULER_GAMMA, bessel_k, bessel_k01
from planar3b.twobody import TwoBodyParams, dimer_energies, pole_function, t_matrix

logging.getLogger("planar3b.potentials").setLevel(logging.ERROR)

PARAMS_RES = TwoBodyParams(a0=10.0, a1_inv=0.0)
PARAMS_100 = TwoBodyParams.from_a1(a0=10.0, a1=100.0)


def mp_bisect_swave(R_over_a0, sign, lo, hi, digits=25):
    """Independent interval-halving oracle on the s-wave equation in mpmath."""
    with mp.workdps(40):
        c = 2 * mp.exp(-mp.euler) * mp.mpf(R_over_a0)

        def f(xi):
            return mp.besselk(0, c * xi) - sign * mp.log(xi)

        a, b = mp.mpf(lo), mp.mpf(hi)
        assert f(a) * f(b) < 0
        for _ in range(int(digits * 3.5)):
            m = (a + b) / 2
            if f(a) * f(m) <= 0:
                b = m
            else:
                a = m
        return float((a + b) / 2)


# ------------------------------------------------------------------ s-wave

def test_swave_plus_large_R_limit():
    r = P.solve_swave(400.0, +1)
    assert r.xi == pytest.approx(1.0, abs=1e-8)


def test_swave_plus_small_R_coulomb():
    xi2 = P.solve_swave(0.02, +1).xi ** 2
    assert xi2 == pytest.approx(50.0, rel=0.05)


def test_swave_plus_against_bisection_oracle():
    want = mp_bisect_swave(1.0, +1, 1.0, 4.0)
    got = P.solve_swave(1.0, +1).xi
    assert got == pytest.approx(want, abs=1e-12)


def test_swave_minus_oracle_and_existence():
    want = mp_bisect_swave(2.0, -1, 1e-6, 0.999999)
    got = P.solve_swave(2.0, -1).xi
    assert got == pytest.approx(want, abs=1e-12)
    for R in (0.1, 0.5, 0.99, 1.0):
        with pytest.raises(NoRealRootError):
            P.solve_swave(R, -1)


def test_swave_residuals_tiny():
    for R in (0.01, 0.3, 1.0, 7.0, 40.0):
        r = P.solve_swave(R, +1)
        assert r.converged and abs(r.residual) <= 1e-10


def test_swave_plus_tiny_R_reaches_coulomb_limit():
    # the root, about (R/a0)^-1/2 (1e65 and 1e100), lies far above 1
    for x in (1e-130, 1e-200):
        want = P.swave_asymptote(x, +1, "small")
        r = P.solve_swave(x, +1)
        assert r.converged and -r.xi ** 2 == pytest.approx(want, rel=1e-10)
        curve = P.sweep_branch(P.Branch.SWAVE_PLUS, PARAMS_100, np.array([x, 1.0]))
        assert curve.converged.all() and curve.V[0] == pytest.approx(want, rel=1e-10)
    # below R/a0 ~ 1e-308, V = -xi^2 overflows: the row is unconverged, no raise
    curve = P.sweep_branch(P.Branch.SWAVE_PLUS, PARAMS_100, np.array([1e-320, 1e-300]))
    assert not curve.converged[0] and math.isnan(curve.V[0])
    assert curve.converged[1] and curve.V[1] == pytest.approx(-1e300, rel=1e-10)


@given(log10_R=st.floats(-320.0, 300.0))
@example(log10_R=-320.0)
@example(log10_R=300.0)
@settings(max_examples=60, deadline=None)
def test_splus_bracket_has_a_sign_change(log10_R):
    # f(xi) = K0(c xi) - ln xi is non-negative at lo and negative at hi, in
    # 30-digit arithmetic at the very ends and c the solvers use
    c = P._TWO_EXP_NEG_GAMMA * 10.0 ** log10_R
    lo, hi = (float(end) for end in P._swave_bracket(+1, c))
    with mp.workdps(30):
        def f(xi):
            return mp.besselk(0, mp.mpf(c) * mp.mpf(xi)) - mp.log(mp.mpf(xi))

        assert f(lo) >= 0 > f(hi), (c, lo, hi)
    assert 1.0 <= lo < hi <= 4.0 * lo


def test_splus_point_solve_k0_budget(monkeypatch):
    # the closed-form bracket sits within a factor 4 of the root, about
    # 1e100 here; doubling up from 2 took 342 K0 evaluations
    calls = []
    k01 = P.bessel_k01_float

    def count_k(x):
        calls.append(x)
        return k01(x)

    monkeypatch.setattr(P, "bessel_k01_float", count_k)
    r = P.solve_swave(1e-200, +1)
    assert r.converged
    assert 0 < len(calls) <= 20


def test_splus_sweep_brackets_in_two_table_calls(monkeypatch):
    # one table-function call at the lower ends and one at the upper ends
    # of every row, however wide the grid (533 calls when doubling)
    calls = []
    table = P._table_function

    def count_table(*args):
        f = table(*args)

        def counted(x, rows):
            calls.append(rows.size)
            return f(x, rows)

        return counted

    grid = np.logspace(-320.0, 3.0, 400)
    monkeypatch.setattr(P, "_table_function", count_table)
    rows, lo, hi, flo, fhi = P._swave_brackets(+1, grid)
    assert calls == [400, 400]
    assert rows.size == 400 and np.all(flo >= 0.0) and np.all(fhi < 0.0)
    # f(1) = K0(c) is an exact zero, closing the bracket, where K0 underflows
    at_one = lo == 1.0
    k0_at_one = bessel_k01(P._TWO_EXP_NEG_GAMMA * grid[at_one])[0]
    assert np.array_equal(flo[at_one] == 0.0, k0_at_one == 0.0) and np.all(flo[~at_one] > 0.0)
    assert 0 < np.count_nonzero(flo == 0.0) and grid[flo == 0.0].min() > 500.0


def _mp_splus_root(c):
    """The s+ root just above 1 at the double c, in 30-digit mpmath."""
    with mp.workdps(30):
        return mp.findroot(lambda xi: mp.besselk(0, mp.mpf(c) * xi) - mp.log(xi), mp.mpf(1))


_S_DRAWS = st.one_of(
    st.tuples(st.just(+1), st.floats(-300.0, 4.0).map(lambda e: 10.0 ** e)),
    st.tuples(st.just(-1), st.floats(1.0, 1e4, exclude_min=True)))


@given(sign_R=_S_DRAWS)
@example(sign_R=(+1, 29.5))
@example(sign_R=(+1, 30.0))
@example(sign_R=(+1, 31.0))
@example(sign_R=(+1, 174.0))
@example(sign_R=(+1, 1000.0))
@example(sign_R=(-1, 29.5))
@example(sign_R=(-1, 30.0))
@example(sign_R=(-1, 31.0))
@example(sign_R=(-1, 174.0))
@example(sign_R=(-1, 1000.0))
@settings(max_examples=80, deadline=None)
def test_swave_residual_is_taken_at_the_root(sign_R):
    # the residual of a point solve is f at the xi it returns, and a sweep
    # row at xi = 1 (V = -1) carries f(1) = K0(c); near R/a0 = 30 the s+
    # root, within an ulp of 1, is the double next to the exact one
    sign, R = sign_R
    branch = P.Branch.SWAVE_PLUS if sign == +1 else P.Branch.SWAVE_MINUS
    c = P._TWO_EXP_NEG_GAMMA * R
    curve = P.sweep_branch(branch, PARAMS_100, np.array([R]))
    try:
        r = P.solve_swave(R, sign)
    except NoRealRootError:  # s- at R/a0 within rounding of 1
        assert sign == -1 and not curve.converged[0] and math.isnan(curve.V[0])
        return
    assert r.converged and r.residual == bessel_k(0, c * r.xi) - sign * math.log(r.xi)
    if curve.V[0] == -1.0:
        assert curve.residual[0] == bessel_k01(np.array([c]))[0][0]
    if sign == +1 and R in (29.5, 30.0, 31.0):
        assert abs(mp.mpf(r.xi) - _mp_splus_root(c)) <= math.ulp(1.0)


def test_swave_asymptote_forms():
    x = 9.0
    tail = math.sqrt(math.pi * math.exp(EULER_GAMMA) / x) * math.exp(
        -2.0 * math.exp(-EULER_GAMMA) * x
    )
    assert P.swave_asymptote(x, +1, "large") == pytest.approx(-1.0 - tail, rel=1e-14)
    assert P.swave_asymptote(x, -1, "large") == pytest.approx(-1.0 + tail, rel=1e-14)
    assert P.swave_asymptote(1.0, -1, "small") == 0.0
    with pytest.raises(DomainError):
        P.swave_asymptote(1.0, +1, "medium")


def test_swave_minus_repulsive_above_a0():
    grid = np.logspace(math.log10(1.02), math.log10(30.0), 40)
    v = [-P.solve_swave(R, -1).xi ** 2 for R in grid]
    assert all(b < a for a, b in zip(v, v[1:]))  # decreasing toward -|eps0|
    assert v[0] > -0.35
    assert v[-1] == pytest.approx(-1.0, abs=1e-2)
    vp = [-P.solve_swave(R, +1).xi ** 2 for R in grid]
    assert all(m > p for m, p in zip(v, vp))  # V- above V+


# ------------------------------------------------------------------ p-wave I

def test_pwave_I_resonance_vs_closed_form():
    r = P.solve_pwave_I(100.0, PARAMS_RES, +1)
    assert P.xi_I0_closed(100.0) == pytest.approx(r.xi, rel=0.05)


def test_pwave_I_resonance_minus_no_root():
    with pytest.raises(NoRealRootError):
        P.solve_pwave_I(100.0, PARAMS_RES, -1)


def test_pwave_I_approach_dimer_energy():
    d = dimer_energies(PARAMS_100)
    devs = []
    for mult in (4.0, 5.0, 6.0):
        R = mult * d.R1
        vp = P.v_pwave(P.solve_pwave_I(R, PARAMS_100, +1).xi)
        vm = P.v_pwave(P.solve_pwave_I(R, PARAMS_100, -1).xi)
        assert vp < d.eps1_pole < vm  # attractive from below, repulsive from above
        devs.append(abs(vp / d.eps1_pole - 1.0))
    assert devs[0] < 1e-2
    # exponentially shrinking splitting: each extra R1 cuts it by > 2x
    assert devs[1] < devs[0] / 2 and devs[2] < devs[1] / 2


def _mp_pwave_I_minus_root(R, a1_inv):
    """The I- root below the pole kappa1 in 40-digit mpmath, and kappa1."""
    with mp.workdps(40):
        a1i, Rm = mp.mpf(a1_inv), mp.mpf(R)
        k_star = mp.sqrt(2 * a1i)  # the pole function's minimum; kappa1 lies below
        kappa1 = mp.findroot(lambda k: a1i / k**2 + mp.log(k), (k_star / 8, k_star),
                             solver="anderson")

        def f(xi):
            return -2 * mp.besselk(1, xi * Rm) / (xi * Rm) + a1i / xi**2 + mp.log(xi)

        # the root lies about e^-(kappa1 R) relative below kappa1 (beyond
        # 40 digits for kappa1 R > 92)
        root = mp.findroot(f, (kappa1, kappa1 * (1 - mp.mpf("1e-6"))))
        assert abs(root - kappa1) < mp.mpf("1e-6") * kappa1
        return root, kappa1


def _check_pwave_I_minus_next_to_pole(R, params):
    r = P.solve_pwave_I(R, params, -1)
    root, kappa1 = _mp_pwave_I_minus_root(R, params.a1_inv)
    assert r.converged
    assert abs(r.xi - root) <= 1e-15 * root
    assert r.xi <= kappa1 * (1.0 + 1e-15)  # not the unphysical zero above kappa1


@pytest.mark.parametrize("a0, a1, R", [(13.36, 34.0, 141.1), (10.0, 100.0, 300.0),
                                       (8.0, 1000.0, 1100.0), (20.0, 20.0, 100.0)])
def test_pwave_I_minus_root_next_to_pole(a0, a1, R):
    # kappa1 R = 16-19: the root lies within 1e-9 relative of kappa1
    _check_pwave_I_minus_next_to_pole(R, TwoBodyParams.from_a1(a0=a0, a1=a1))


@given(log10_a1=st.floats(math.log10(6.0), 8.0), kappa1_R=st.floats(14.0, 300.0))
@settings(max_examples=12, deadline=None)  # mpmath K1 takes up to 0.1 s at kappa1 R < 50
def test_pwave_I_minus_roots_up_to_the_pole(log10_a1, kappa1_R):
    params = TwoBodyParams.from_a1(a0=10.0, a1=10.0 ** log10_a1)
    R = kappa1_R / dimer_energies(params).kappa1
    _check_pwave_I_minus_next_to_pole(R, params)


def test_no_root_error_reports_the_scanned_window():
    R = 0.9 * math.sqrt(2.0 * PARAMS_100.a1)  # I- detaches at sqrt(2 a1)
    with pytest.raises(NoRealRootError) as err:
        P.solve_pwave_I(R, PARAMS_100, -1)
    cap = math.sqrt(2.0 * PARAMS_100.a1_inv)  # the I- scan ends at this minimum
    assert err.value.window == (1e-7 / R, cap)
    assert f"{cap:.3g}] at R" in str(err.value)
    with pytest.raises(NoRealRootError) as err:
        P.solve_pwave_I(100.0, PARAMS_RES, -1)
    assert err.value.window == (1e-7 / 100.0, 1.0 - 1e-12)


def test_pwave_I_minus_vanishes_at_sqrt_2a1():
    thr = math.sqrt(2.0 * PARAMS_100.a1)
    with pytest.raises(NoRealRootError):
        P.solve_pwave_I(thr * 0.999, PARAMS_100, -1)
    r = P.solve_pwave_I(thr * 1.003, PARAMS_100, -1)
    assert abs(P.v_pwave(r.xi)) < 2e-4


def test_xi_I0_closed_forms_and_domain():
    R = 1e3
    inner = math.log(R) - EULER_GAMMA + 0.5
    denom = inner + math.log(inner)
    assert P.xi_I0_closed(R) ** 2 == pytest.approx(2.0 / (R * R * denom), rel=1e-13)
    # V = -xi^2/2 = -(1/R^2)/denom
    assert P.v_pwave(P.xi_I0_closed(R)) == pytest.approx(-1.0 / (R * R * denom), rel=1e-13)
    with pytest.raises(DomainError):
        P.xi_I0_closed(1.0)


def test_xi_I0_unified_limit():
    R = 1e12
    assert R * R * math.log(R) * P.v_pwave(P.xi_I0_closed(R)) == pytest.approx(-1.0, rel=0.25)


def test_closed_form_deviation_decreases():
    devs = []
    for R in (1e3, 1e4, 1e5, 1e6):
        full = P.solve_pwave_I(R, PARAMS_RES, +1).xi
        devs.append(abs(P.xi_I0_closed(R) / full - 1.0))
    assert all(d <= 0.05 for d in devs)
    assert all(b < a for a, b in zip(devs, devs[1:]))


# ------------------------------------------------------------------ p-wave II

def test_pwave_II_resonance_vs_closed_form():
    for R in (1e3, 1e4):
        r = P.solve_pwave_II(R, PARAMS_RES, +1)
        assert P.xi_II0_closed(R) == pytest.approx(r.xi, rel=0.05)
        assert abs(r.residual) <= 1e-10


def test_xi_II0_closed_value():
    R = 1e3
    denom = math.log(0.5 * R) + EULER_GAMMA + 1.5
    assert P.v_pwave(P.xi_II0_closed(R)) == pytest.approx(-1.0 / (R * R * denom), rel=1e-13)
    with pytest.raises(DomainError):
        P.xi_II0_closed(0.2)


def test_zero_branch_ratio_to_unified():
    # V_II0 / V_I0 -> 1
    r = 1e10
    ratio = P.v_pwave(P.xi_II0_closed(r)) / P.v_pwave(P.xi_I0_closed(r))
    assert ratio == pytest.approx(1.0, abs=0.15)


def test_branch_merge_bounded():
    # the two closed forms cross near R ~ 80, so the merge metric is not
    # monotone from 1e2; it stays below 0.1 on the whole window and decays
    # (logarithmically) far out
    vals = []
    for R in np.logspace(2, 6, 9):
        num = abs(P.v_pwave(P.xi_I0_closed(R)) - P.v_pwave(P.xi_II0_closed(R)))
        vals.append(num / abs(P.v_unified(R)))
    assert all(v < 0.1 for v in vals)
    far = abs(P.v_pwave(P.xi_I0_closed(1e15)) - P.v_pwave(P.xi_II0_closed(1e15))) / abs(
        P.v_unified(1e15)
    )
    assert far < vals[-1]


def test_pwave_II_branches_merge_with_I_at_large_R():
    scale = abs(dimer_energies(PARAMS_100).eps1_pole)
    prev = math.inf
    for R, cap in ((50.0, 0.05), (60.0, 0.02), (80.0, 0.01)):
        vip = P.v_pwave(P.solve_pwave_I(R, PARAMS_100, +1).xi)
        viip = P.v_pwave(P.solve_pwave_II(R, PARAMS_100, +1).xi)
        vim = P.v_pwave(P.solve_pwave_I(R, PARAMS_100, -1).xi)
        viim = P.v_pwave(P.solve_pwave_II(R, PARAMS_100, -1).xi)
        gap = max(abs(viip - vip), abs(viim - vim)) / scale
        assert gap < cap and gap < prev
        prev = gap


# ------------------------------------------------------------------ bracket scan

def test_scan_and_brent_disagreement_does_not_abort(monkeypatch):
    # The scan sees an exact zero at a grid point c, so its first bracket
    # ends at c; the scalar residual is a few ulp lower there, so Brent sees
    # one sign at both ends.  The solve must not abort: it keeps the end with
    # the smaller |f|, c, and the scalar residual there.
    grid_point = []

    def residual(xi, z, log_xi, k0, k1):
        if isinstance(xi, np.ndarray):
            grid_point.append(xi[0, 100])
            return xi - xi[0, 100]
        return (xi - grid_point[0]) - 1e-15 * grid_point[0]

    monkeypatch.setattr(P, "_pwave_equation", lambda *args: (residual, None, "stub"))
    r = P.solve_pwave_I(10.0, PARAMS_100, +1)
    c = grid_point[0]
    assert r.bracket[0] < r.bracket[1] == c
    assert (r.xi, r.residual) == (c, -1e-15 * c)
    assert r.xi == pytest.approx(c, rel=1e-14)
    assert r.converged and abs(r.residual) <= 1e-10 * c


@pytest.mark.parametrize("params, sign", [(PARAMS_100, +1), (PARAMS_100, -1),
                                          (PARAMS_RES, +1)], ids=["II+", "II-", "II0"])
def test_branch_II_polish_takes_one_k_pair_per_residual(monkeypatch, params, sign):
    # the Brent polish evaluates the residual on one (K0, K1) pair per
    # step; one bessel_k call per order computed the pair twice
    counts = {"evals": 0, "pairs": 0, "orders": 0}
    brent, pair, k = P.brent, P.bessel_k01_float, P.bessel_k

    def count_brent(f, a, b):
        def counted(x):
            counts["evals"] += 1
            return f(x)

        return brent(counted, a, b)

    def count_pair(x):
        counts["pairs"] += 1
        return pair(x)

    def count_order(order, x):
        counts["orders"] += 1
        return k(order, x)

    monkeypatch.setattr(P, "brent", count_brent)
    monkeypatch.setattr(P, "bessel_k01_float", count_pair)
    monkeypatch.setattr(P, "bessel_k", count_order)
    r = P.solve_pwave_II(20.0, params, sign)
    assert r.converged and counts["evals"] > 5
    assert counts["pairs"] == counts["evals"] and counts["orders"] == 0


def _scalar_scan_reference(f, lo, hi, n):
    """The scan as a scalar loop, one f(x) per point of the numpy log grid
    np.exp(ln lo + (ln hi - ln lo) i/(n - 1))."""
    llo, lhi = np.log([lo]), np.log([hi])
    grid = np.exp(llo + (lhi - llo) * np.arange(n) / (n - 1)).tolist()
    brackets, x_prev, f_prev = [], None, None
    for x in grid:
        fx = f(x)
        if not math.isfinite(fx):
            x_prev = f_prev = None
            continue
        if f_prev is not None and (fx == 0.0 or f_prev * fx < 0.0):
            brackets.append((x_prev, x))
        x_prev, f_prev = x, fx
    return brackets


def _scalar_pwave_residual(family, sign, R, params):
    """The branch equations as written with scalar K and math.log."""
    a1_inv = params.a1_inv
    log_ga0 = EULER_GAMMA + math.log(0.5 * params.a0)

    def f(xi):
        z = xi * R
        if family == "I":
            return -2.0 * bessel_k(1, z) / z - sign * pole_function(xi, a1_inv)
        k0, k1 = bessel_k(0, z), bessel_k(1, z)
        first = k0 + 2.0 * k1 / z + k0 + sign * pole_function(xi, a1_inv)
        return first * (k0 - sign * (math.log(xi) + log_ga0)) - 2.0 * k1 * k1

    return f


@given(family=st.sampled_from(["I", "II"]), sign=st.sampled_from([+1, -1]),
       a0=st.floats(5.0, 20.0), log10_a1=st.one_of(st.floats(1.2, 4.0), st.just(math.inf)),
       log10_R=st.floats(0.1, 2.0))
@settings(max_examples=40, deadline=None)
def test_vectorized_scan_matches_scalar_loop(family, sign, a0, log10_a1, log10_R):
    params = TwoBodyParams.from_a1(a0=a0, a1=10.0 ** log10_a1)
    R = 10.0 ** log10_R
    scans = []

    def spy(f, lo, hi, n=200):
        result = scan(f, lo, hi, n)
        scans.append((np.asarray(lo).item(), np.asarray(hi).item(), n,
                      list(zip(result.a.tolist(), result.b.tolist()))))
        return result

    scan = P.scan_sign_changes
    solve = P.solve_pwave_I if family == "I" else P.solve_pwave_II
    with pytest.MonkeyPatch.context() as mp_ctx:
        mp_ctx.setattr(P, "scan_sign_changes", spy)
        try:
            solve(R, params, sign)
        except NoRealRootError:
            pass
    [(lo, hi, n, brackets)] = scans
    f = _scalar_pwave_residual(family, sign, R, params)
    assert brackets == _scalar_scan_reference(f, lo, hi, n)


@given(family=st.sampled_from(["I", "II"]), sign=st.sampled_from([+1, -1]),
       log10_R=st.lists(st.floats(0.05, 2.5), min_size=1, max_size=40), pick=st.integers(0))
@settings(max_examples=25, deadline=None)
def test_point_solve_scans_its_sweep_row(family, sign, log10_R, pick):
    # the point solve at R scans, bit for bit, the grid of the sweep row at R
    grid = 10.0 ** np.array(log10_R)
    R = float(grid[pick % grid.size])
    scans = []

    def spy(f, lo, hi, n=200):
        def record(x):
            lows = np.broadcast_to(lo, x.shape[:1])
            scans.extend((low, row) for low, row in zip(lows.tolist(), x.tolist()))
            return f(x)
        return scan(record, lo, hi, n)

    scan = P.scan_sign_changes
    solve = P.solve_pwave_I if family == "I" else P.solve_pwave_II
    with pytest.MonkeyPatch.context() as mp_ctx:
        mp_ctx.setattr(P, "scan_sign_changes", spy)
        P.sweep_branch(P.Branch(family + "+-"[sign < 0]), PARAMS_100, grid)
        sweep_rows = dict(scans)
        scans.clear()
        try:
            solve(R, PARAMS_100, sign)
        except NoRealRootError:
            pass
    [(low, row)] = scans
    assert sweep_rows[low] == row


# ------------------------------------------------------------------ unified

def test_v_unified_values():
    assert P.v_unified(math.e) == pytest.approx(-math.exp(-2.0), rel=1e-14)
    assert P.v_unified(math.e ** 2) == pytest.approx(-1.0 / (2.0 * math.e ** 4), rel=1e-14)
    for R in np.logspace(0.1, 8, 20):
        assert P.v_unified(R) * R * R * math.log(R) == pytest.approx(-1.0, rel=1e-14)
    with pytest.raises(DomainError):
        P.v_unified(1.0)
    with pytest.raises(DomainError):
        P.v_unified(0.5)


def test_unified_potential_langer_form():
    u = P.UnifiedPotential()
    x = 7.5
    assert u.langer_w(x) == pytest.approx(-math.exp(2 * x) * u(math.exp(x)), rel=1e-12)


# ------------------------------------------------------------------ determinant

def test_determinant_zero_at_branch_roots():
    cases = []
    for R in (5.0, 8.0, 20.0, 40.0):
        cases.append((P.solve_pwave_I(R, PARAMS_100, +1).xi, R, "zero"))
        cases.append((P.solve_pwave_II(R, PARAMS_100, +1).xi, R, "plus"))
    for R in (20.0, 40.0):
        cases.append((P.solve_pwave_I(R, PARAMS_100, -1).xi, R, "zero"))
    for xi, R, block in cases:
        assert abs(P.determinant_residual(xi, R, PARAMS_100, block)) <= 1e-8


def test_determinant_sensitivity_off_root():
    xi = P.solve_pwave_I(20.0, PARAMS_100, +1).xi
    assert abs(P.determinant_residual(1.1 * xi, 20.0, PARAMS_100, "zero")) > 1e-4


def _reference_blocks(kappa, R, params):
    """The complex 2x2 blocks {'plus': M+, 'minus': M-, 'zero': M0} of the
    six-coefficient system, built from the five couplings: alpha_m =
    i pi T0(i kappa) H_m(i kappa R) and beta_m the same with T1, rewritten
    through K_m via H_m(iz) = (2/pi) i^-(m+1) K_m(z)."""
    t0, t1 = t_matrix(0, kappa, params), t_matrix(1, kappa, params)
    z = kappa * R
    k0, k1 = bessel_k(0, z), bessel_k(1, z)
    k2 = k0 + 2.0 * k1 / z
    alpha0, alpha1 = complex(2.0 * t0 * k0), -2.0j * t0 * k1
    beta0, beta1, beta2 = complex(2.0 * t1 * k0), -2.0j * t1 * k1, complex(-2.0 * t1 * k2)
    blocks = {
        name: np.array([[1.0 + s * alpha0, s * alpha1],
                        [s * 2.0 * beta1, 1.0 + s * (beta2 - beta0)]], dtype=complex)
        for name, s in (("plus", +1), ("minus", -1))
    }
    blocks["zero"] = np.array([[1.0, beta0 + beta2], [beta0 + beta2, 1.0]], dtype=complex)
    return blocks


def _reference_determinant(kappa, R, params, block):
    m = _reference_blocks(kappa, R, params)[block]
    return float((m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]).real)


@given(a0=st.floats(1.0, 100.0), a1_inv=st.one_of(st.just(0.0), st.floats(1e-5, 0.3)),
       log10_kappa=st.floats(-4.0, math.log10(0.99)), log10_R=st.floats(0.05, 3.0),
       block=st.sampled_from(["plus", "minus", "zero"]))
@settings(max_examples=300, deadline=None)
def test_determinant_matches_block_matrices(a0, a1_inv, log10_kappa, log10_R, block):
    # the closed forms against the determinants of the complex blocks
    params = TwoBodyParams(a0=a0, a1_inv=a1_inv)
    kappa, R = 10.0 ** log10_kappa, 10.0 ** log10_R
    try:
        want = _reference_determinant(kappa, R, params, block)
    except TMatrixPoleError:
        assume(False)
    got = P.determinant_residual(kappa, R, params, block)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_m_zero_block_structure():
    # det(M0) = 1 - (beta0+beta2)^2 by construction
    xi, R = 0.07, 12.0
    s = _reference_blocks(xi, R, PARAMS_100)["zero"][0, 1]
    det = P.determinant_residual(xi, R, PARAMS_100, "zero")
    assert det == pytest.approx(float((1 - s * s).real), rel=1e-12)
    with pytest.raises(DomainError):
        P.determinant_residual(xi, R, PARAMS_100, "bogus")
    # M0 holds T1 only, so it is finite at the T0 pole kappa = 2 e^-gamma/a0
    kappa = 2.0 * math.exp(-EULER_GAMMA) / PARAMS_100.a0
    with pytest.raises(TMatrixPoleError):
        P.determinant_residual(kappa, R, PARAMS_100, "plus")
    assert math.isfinite(P.determinant_residual(kappa, R, PARAMS_100, "zero"))


# ------------------------------------------------------------------ wavefunctions

def _solved_kappa(R):
    return P.solve_pwave_I(R, PARAMS_100, +1).xi


def test_psi_I_symmetry_under_center_swap():
    R = 10.0
    kappa = _solved_kappa(R)
    pts = np.array([[1.3, 0.7], [-2.2, 1.3], [0.8, -2.0]])
    mirror = pts * np.array([-1.0, 1.0])  # x -> -x swaps r+ and r-
    plus = P.light_wavefunction("I", +1, kappa, R, pts)
    assert np.all(np.abs(plus) > 0)
    np.testing.assert_allclose(plus, P.light_wavefunction("I", +1, kappa, R, mirror), rtol=1e-10)
    minus = P.light_wavefunction("I", -1, kappa, R, pts)
    np.testing.assert_allclose(minus, -P.light_wavefunction("I", -1, kappa, R, mirror), rtol=1e-10)


def test_psi_I_node_on_axis():
    R = 10.0
    kappa = _solved_kappa(R)
    pts = np.array([[1.7, 0.0], [-0.4, 0.0], [12.0, 0.0]])
    vals = P.light_wavefunction("I", +1, kappa, R, pts)
    np.testing.assert_allclose(vals, 0.0, atol=1e-14)


def test_psi_decay_far_field():
    R = 10.0
    kappa = _solved_kappa(R)
    r1, r2 = 60.0, 90.0
    pts = np.array([[0.0, r1], [0.0, r2]])
    vals = P.light_wavefunction("I", +1, kappa, R, pts)
    # K-function far field: psi ~ exp(-kappa r)/sqrt(r)
    expect = math.exp(-kappa * (r2 - r1)) * math.sqrt(r1 / r2)
    assert abs(vals[1] / vals[0]) == pytest.approx(expect, rel=0.05)


def test_psi_masks_centers():
    R = 10.0
    kappa = _solved_kappa(R)
    pts = np.array([[5.0, 0.0], [-5.0, 1e-9]])
    vals = P.light_wavefunction("I", +1, kappa, R, pts)
    assert np.isnan(vals).all()


def _psi_by_point(branch, sign, kappa, R, pts, params):
    # the documented formula, one point and one scalar K call at a time
    out = []
    for x, y in pts:
        r_p, r_m = math.hypot(x + R / 2, y), math.hypot(x - R / 2, y)
        if r_p < 1e-6 or r_m < 1e-6:
            out.append(math.nan)
            continue
        phi_p, phi_m = math.atan2(y, x + R / 2), math.atan2(y, x - R / 2)
        if branch == "I":
            out.append(math.sin(phi_p) * bessel_k(1, kappa * r_p)
                       + sign * math.sin(phi_m) * bessel_k(1, kappa * r_m))
            continue
        t0 = t_matrix(0, kappa, params)
        amp = (2 * t0 * bessel_k(0, kappa * R) + sign) / (2 * t0 * bessel_k(1, kappa * R))
        out.append(bessel_k(0, kappa * r_p) + sign * bessel_k(0, kappa * r_m)
                   - amp * (math.cos(phi_p) * bessel_k(1, kappa * r_p)
                            - sign * math.cos(phi_m) * bessel_k(1, kappa * r_m)))
    return np.array(out)


@pytest.mark.parametrize("branch", ["I", "II"])
@pytest.mark.parametrize("sign", [+1, -1])
def test_psi_array_matches_pointwise_formula(branch, sign):
    R = 10.0
    kappa = _solved_kappa(R)
    g = np.linspace(-12.0, 12.0, 25)
    pts = np.array([(x, y) for x in g for y in g]
                   + [(c + dx, dy) for c in (-R / 2, R / 2)
                      for dx, dy in ((0.0, 0.0), (0.0, 9e-7), (-7e-7, 7e-7), (1.5e-6, 0.0),
                                     (0.0, 2e-6), (3e-3, 0.0), (0.0, 20.0))])
    got = P.light_wavefunction(branch, sign, kappa, R, pts, PARAMS_100)
    want = _psi_by_point(branch, sign, kappa, R, pts, PARAMS_100)
    nan = np.isnan(want)
    assert nan.sum() == 8  # the centres, twice, and the points within 1e-6 of them
    np.testing.assert_array_equal(np.isnan(got), nan)
    scale = np.abs(want[~nan]).max()
    assert np.abs(got[~nan] - want[~nan]).max() <= 1e-13 * scale


def test_psi_rejects_nan_points():
    with pytest.raises(DomainError):
        P.light_wavefunction("I", +1, 0.1, 10.0, np.array([[0.0, 1.0], [math.nan, 0.0]]))


@pytest.mark.parametrize("kappa, R", [(math.inf, 10.0), (0.1, math.inf),
                                      (math.nan, 10.0), (0.1, math.nan)])
def test_psi_and_determinant_reject_non_finite(kappa, R):
    # infinite kappa or R gave all-zero wavefunctions and a determinant of 1.0
    pts = np.array([[0.0, 1.0], [2.0, -1.0]])
    for branch in ("I", "II"):
        with pytest.raises(DomainError):
            P.light_wavefunction(branch, +1, kappa, R, pts, PARAMS_100)
    if math.isfinite(kappa):
        with pytest.raises(DomainError):
            P.determinant_residual(kappa, R, PARAMS_100, "zero")


def test_psi_II_needs_params():
    with pytest.raises(DomainError):
        P.light_wavefunction("II", +1, 0.1, 10.0, np.array([[0.0, 1.0]]))
    vals = P.light_wavefunction("II", +1, 0.1, 10.0, np.array([[0.0, 1.0]]), PARAMS_100)
    assert np.isfinite(vals).all()


@pytest.mark.parametrize("R", [12000.0, 12600.0])
@pytest.mark.parametrize("sign", [+1, -1])
def test_psi_II_amplitude_beyond_doubles_is_domain_error(R, sign):
    # the branch II amplitude (2 t0 K0 + sign)/(2 t0 K1) at kappa R = 720
    # overflows (it was -inf everywhere), and at 756 K1 underflows to 0 (it
    # was a ZeroDivisionError)
    pts = np.array([[0.0, 1.0], [3.0, 2.0]])
    with pytest.raises(DomainError, match="kappa R"):
        P.light_wavefunction("II", sign, 0.06, R, pts, PARAMS_100)
    assert np.isfinite(P.light_wavefunction("I", sign, 0.06, R, pts)).all()


# ------------------------------------------------------------------ sweeps

def test_sweep_branch_failure_rows():
    grid = np.array([0.5, 2.0, 5.0])
    curve = P.sweep_branch(P.Branch.SWAVE_MINUS, PARAMS_100, grid)
    assert not curve.converged[0] and math.isnan(curve.V[0])
    assert curve.converged[1] and curve.converged[2]


def test_zero_branch_requires_resonance():
    with pytest.raises(DomainError):
        P.sweep_branch(P.Branch.PWAVE_I_ZERO, PARAMS_100, np.array([10.0]))


def test_non_finite_R_rejected():
    for branch in (P.Branch.PWAVE_I_PLUS, P.Branch.PWAVE_II_MINUS, P.Branch.ASYMPTOTIC_UNIFIED,
                   P.Branch.SWAVE_PLUS):
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError):
                P.sweep_branch(branch, PARAMS_100, np.array([bad, 10.0]))
    for bad in (math.inf, -math.inf, math.nan):
        for sign in (+1, -1):
            with pytest.raises(DomainError):
                P.solve_swave(bad, sign)
            with pytest.raises(DomainError):
                P.solve_pwave_I(bad, PARAMS_100, sign)
            with pytest.raises(DomainError):
                P.solve_pwave_II(bad, PARAMS_100, sign)
        with pytest.raises(DomainError):
            P.v_unified(bad)


_SWEEP_SOLVERS = {
    P.Branch.PWAVE_I_PLUS: (P.solve_pwave_I, +1), P.Branch.PWAVE_I_MINUS: (P.solve_pwave_I, -1),
    P.Branch.PWAVE_I_ZERO: (P.solve_pwave_I, +1), P.Branch.PWAVE_II_PLUS: (P.solve_pwave_II, +1),
    P.Branch.PWAVE_II_MINUS: (P.solve_pwave_II, -1), P.Branch.PWAVE_II_ZERO: (P.solve_pwave_II, +1),
    P.Branch.SWAVE_PLUS: (lambda R, params, sign: P.solve_swave(R, sign), +1),
    P.Branch.SWAVE_MINUS: (lambda R, params, sign: P.solve_swave(R, sign), -1),
}


@given(branch=st.sampled_from(sorted(_SWEEP_SOLVERS, key=lambda b: b.value)),
       a0=st.floats(5.0, 20.0), log10_a1=st.floats(1.2, 4.0),
       bounds=st.tuples(st.floats(math.log10(1.2), math.log10(300.0)),
                        st.floats(math.log10(1.2), math.log10(300.0))),
       n=st.integers(5, 20))
@settings(max_examples=30, deadline=None)
def test_sweep_matches_point_solves(branch, a0, log10_a1, bounds, n):
    params = TwoBodyParams.from_a1(a0=a0, a1=10.0 ** log10_a1)
    if branch in P.ZERO_BRANCHES:
        params = P.resonance_params(params)
    grid = np.logspace(min(bounds), max(bounds), n)
    if branch in P.S_BRANCHES:
        grid /= a0  # R/a0 from 0.06 to 60, across the s- threshold at 1
    curve = P.sweep_branch(branch, params, grid)
    solve, sign = _SWEEP_SOLVERS[branch]
    v_scale = 1.0 if branch in P.S_BRANCHES else 2.0  # V = -xi^2 or -xi^2/2
    for i, R in enumerate(grid.tolist()):
        try:
            r = solve(R, params, sign)
        except NoRealRootError:
            assert not curve.converged[i] and math.isnan(curve.V[i])
            assert curve.n_roots[i] == 1
            continue
        assert curve.converged[i] == r.converged
        assert curve.n_roots[i] == r.n_roots
        xi = math.sqrt(-v_scale * curve.V[i])
        if branch is P.Branch.SWAVE_MINUS and abs(xi / r.xi - 1.0) > 1e-12:
            # just above R/a0 = 1 the s- equation is flat in xi (its slope
            # times xi is about ln(R/a0)), so a few-ulp difference between
            # array and scalar K0 moves the root by more than 1e-12: require
            # instead that xi is a root of the scalar equation to rounding
            c = 2.0 * math.exp(-EULER_GAMMA) * R
            assert abs(bessel_k(0, c * xi) + math.log(xi)) <= 1e-14
        else:
            assert xi == pytest.approx(r.xi, rel=1e-12)


_PWAVE_JOBS = [(b, PARAMS_100) for b in (P.Branch.PWAVE_I_PLUS, P.Branch.PWAVE_I_MINUS,
                                         P.Branch.PWAVE_II_PLUS, P.Branch.PWAVE_II_MINUS)]
_PWAVE_JOBS += [(b, P.resonance_params(PARAMS_100)) for b in P.ZERO_BRANCHES]
_ALL_JOBS = _PWAVE_JOBS + [(b, PARAMS_100) for b in (*P.S_BRANCHES, P.Branch.ASYMPTOTIC_UNIFIED)]


def test_sweep_branches_matches_single_branch_sweeps():
    grid = np.logspace(math.log10(1.2), math.log10(60.0), 100)
    curves = P.sweep_branches(_ALL_JOBS, grid)
    assert list(curves) == [b for b, _ in _ALL_JOBS]
    for branch, params in _ALL_JOBS:
        one = P.sweep_branch(branch, params, grid)
        for field in ("V", "residual"):
            assert np.array_equal(getattr(curves[branch], field), getattr(one, field),
                                  equal_nan=True), (branch, field)
        assert np.array_equal(curves[branch].converged, one.converged)
        assert np.array_equal(curves[branch].n_roots, one.n_roots)


def test_sweep_branches_share_one_sign_map():
    calls = []
    k01 = P.bessel_k01

    def count_k01(x):
        calls.append(x)
        return k01(x)

    grid = np.logspace(math.log10(1.2), math.log10(60.0), 100)
    with pytest.MonkeyPatch.context() as mp_ctx:
        mp_ctx.setattr(P, "bessel_k01", count_k01)
        curves = P.sweep_branches(_PWAVE_JOBS, grid)
    # 7 chunks of 16 rows times two scan caps (I- has its own), then one
    # call per refinement step for all six branches together
    assert len(calls) <= 40
    assert all(curve.converged.any() for curve in curves.values())


def test_sweep_branches_scan_once_per_chunk_and_cap():
    # the point solves' scan, one call per chunk of 16 rows and scan cap;
    # each call evaluates every branch with that cap on one stack of grids
    shapes = []
    scan = P.scan_sign_changes

    def spy(f, lo, hi, n=200):
        def stacked(x):
            fx = f(x)
            shapes.append(fx.shape)
            return fx

        return scan(stacked, lo, hi, n)

    grid = np.logspace(math.log10(1.2), math.log10(60.0), 100)
    with pytest.MonkeyPatch.context() as mp_ctx:
        mp_ctx.setattr(P, "scan_sign_changes", spy)
        curves = P.sweep_branches(_PWAVE_JOBS, grid)
    assert len(shapes) == 14  # 7 chunks x 2 caps (I- has its own)
    assert sorted({m for m, _, _ in shapes}) == [1, 5]
    assert sum(rows for m, rows, _ in shapes if m == 5) == 100
    assert all(curve.converged.any() for curve in curves.values())


def test_sweep_branches_is_one_refinement():
    # every branch's brackets form one table that one refine_brackets call
    # closes; no sweep row reaches a scalar solver
    refinements = []
    refine = P.refine_brackets

    def count_refine(f, a, *args):
        refinements.append(a.size)
        return refine(f, a, *args)

    def scalar(*args):
        raise AssertionError("a sweep reached a scalar solver")

    grid = np.logspace(math.log10(1.2), math.log10(60.0), 100)
    with pytest.MonkeyPatch.context() as mp_ctx:
        mp_ctx.setattr(P, "refine_brackets", count_refine)
        for name in ("brent", "solve_swave", "bessel_k", "bessel_k01_float"):
            mp_ctx.setattr(P, name, scalar)
        curves = P.sweep_branches(_ALL_JOBS, grid)
    assert len(refinements) == 1
    assert all(curve.converged.any() for curve in curves.values())


def test_sweep_logs_extra_roots_at_info(caplog):
    # the per-branch count of multi-root points is an INFO record, so a
    # default run writes nothing to stderr
    grid = np.logspace(math.log10(1.2), math.log10(60.0), 100)
    with caplog.at_level(logging.INFO, logger="planar3b.potentials"):
        curves = P.sweep_branches(_PWAVE_JOBS, grid)
    multi = {b.value: int((c.n_roots > 1).sum()) for b, c in curves.items()}
    records = [r for r in caplog.records if "extra roots" in r.getMessage()]
    assert records and all(r.levelno == logging.INFO for r in records)
    assert {r.getMessage().split(":")[0]: r.getMessage() for r in records} == {
        b: f"{b}: {m} of 100 sweep points had extra roots; kept the smallest xi at each"
        for b, m in multi.items() if m}


def test_sweep_is_one_array_problem():
    # "k" counts the scalar K calls, of one order or of the pair
    calls = {"k01": 0, "k": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    grid = np.logspace(math.log10(1.2), math.log10(60.0), 100)
    with pytest.MonkeyPatch.context() as mp_ctx:
        mp_ctx.setattr(P, "bessel_k01", counted("k01", P.bessel_k01))
        mp_ctx.setattr(P, "bessel_k", counted("k", P.bessel_k))
        mp_ctx.setattr(P, "bessel_k01_float", counted("k", P.bessel_k01_float))
        curve = P.sweep_branch(P.Branch.PWAVE_II_PLUS, PARAMS_100, grid)
    assert curve.converged.all()
    assert calls["k01"] < 100 and calls["k"] < 200


@pytest.mark.parametrize("call", [
    lambda: P.swave_asymptote(math.nan, +1, "small"),
    lambda: P.swave_asymptote(math.inf, +1, "large"),
    lambda: P.swave_asymptote(math.inf, -1, "large"),
    lambda: P.xi_I0_closed(math.nan),
    lambda: P.xi_I0_closed(math.inf),
    lambda: P.xi_II0_closed(math.nan),
    lambda: P.xi_II0_closed(math.inf),
])
def test_closed_forms_reject_non_finite(call):
    with pytest.raises(DomainError):
        call()

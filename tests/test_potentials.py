import logging
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planar3b import potentials as P
from planar3b.errors import DomainError, NoRealRootError
from planar3b.specfun import EULER_GAMMA, bessel_k
from planar3b.twobody import TwoBodyParams, dimer_energies, t_matrix

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
    # the root, about (R/a0)^-1/2 (1e65 and 1e100), lies beyond 200 doublings of 2
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

    monkeypatch.setattr(P, "_pwave_equation", lambda *args: (residual, None, True, "stub"))
    r = P.solve_pwave_I(10.0, PARAMS_100, +1)
    c = grid_point[0]
    assert r.bracket[0] < r.bracket[1] == c
    assert (r.xi, r.residual) == (c, -1e-15 * c)
    assert r.xi == pytest.approx(c, rel=1e-14)
    assert r.converged and abs(r.residual) <= 1e-10 * c


def _scalar_scan_reference(f, lo, hi, n):
    """The scan as a scalar loop, one f(x) per grid point."""
    llo, lhi = math.log(lo), math.log(hi)
    brackets, x_prev, f_prev = [], None, None
    for i in range(n):
        x = math.exp(llo + (lhi - llo) * i / (n - 1))
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
            return -2.0 * bessel_k(1, z) / z - sign * P.pole_function(xi, a1_inv)
        k0, k1 = bessel_k(0, z), bessel_k(1, z)
        first = k0 + 2.0 * k1 / z + k0 + sign * P.pole_function(xi, a1_inv)
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

    def spy(f, lo, hi, n=200, *, log=True):
        result = scan(f, lo, hi, n, log=log)
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


def test_m_zero_block_structure():
    # det(M0) = 1 - (beta0+beta2)^2 by construction
    xi, R = 0.07, 12.0
    _, _, m0 = P.block_matrices(xi, R, PARAMS_100)
    s = m0[0, 1]
    det = P.determinant_residual(xi, R, PARAMS_100, "zero")
    assert det == pytest.approx(float((1 - s * s).real), rel=1e-12)
    with pytest.raises(DomainError):
        P.determinant_residual(xi, R, PARAMS_100, "bogus")


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


# ------------------------------------------------------------------ sweeps

def test_sweep_branch_failure_rows():
    grid = np.array([0.5, 2.0, 5.0])
    curve = P.sweep_branch(P.Branch.SWAVE_MINUS, PARAMS_100, grid)
    assert not curve.converged[0] and math.isnan(curve.V[0])
    assert curve.converged[1] and curve.converged[2]
    assert curve.validity == (1.0, math.inf)


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


def test_sweep_branches_matches_single_branch_sweeps():
    grid = np.logspace(math.log10(1.2), math.log10(60.0), 100)
    curves = P.sweep_branches(_PWAVE_JOBS, grid)
    assert list(curves) == [b for b, _ in _PWAVE_JOBS]
    for branch, params in _PWAVE_JOBS:
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

    def spy(f, lo, hi, n=200, *, log=True):
        def stacked(x):
            fx = f(x)
            shapes.append(fx.shape)
            return fx

        return scan(stacked, lo, hi, n, log=log)

    grid = np.logspace(math.log10(1.2), math.log10(60.0), 100)
    with pytest.MonkeyPatch.context() as mp_ctx:
        mp_ctx.setattr(P, "scan_sign_changes", spy)
        curves = P.sweep_branches(_PWAVE_JOBS, grid)
    assert len(shapes) == 14  # 7 chunks x 2 caps (I- has its own)
    assert sorted({m for m, _, _ in shapes}) == [1, 5]
    assert sum(rows for m, rows, _ in shapes if m == 5) == 100
    assert all(curve.converged.any() for curve in curves.values())


def test_sweep_is_one_array_problem():
    calls = {"k01": 0, "k": 0}
    k01, k = P.bessel_k01, P.bessel_k

    def count_k01(x):
        calls["k01"] += 1
        return k01(x)

    def count_k(order, x):
        calls["k"] += 1
        return k(order, x)

    grid = np.logspace(math.log10(1.2), math.log10(60.0), 100)
    with pytest.MonkeyPatch.context() as mp_ctx:
        mp_ctx.setattr(P, "bessel_k01", count_k01)
        mp_ctx.setattr(P, "bessel_k", count_k)
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

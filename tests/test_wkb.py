import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from planar3b import numerics, wkb
from planar3b.errors import ConvergenceError, DomainError, NoTurningPointError
from planar3b.potentials import UnifiedPotential

U = UnifiedPotential()


# ------------------------------------------------------------- turning point

def test_turning_point_exact_inverse():
    assert wkb.turning_point(-math.exp(-2.0), U) == pytest.approx(math.e, rel=1e-12)


def test_turning_point_round_trip():
    E = U(1e3)
    assert wkb.turning_point(E, U) == pytest.approx(1e3, rel=1e-9)


def test_turning_point_threshold_cap():
    with pytest.raises(NoTurningPointError):
        wkb.turning_point(-1e-300, U, R_max=1e20)
    with pytest.raises(NoTurningPointError):
        wkb.turning_point(0.0, U)
    with pytest.raises(NoTurningPointError):
        # below the potential everywhere right of the probe radius
        wkb.turning_point(-1e6, U, R_lo=2.0)


@pytest.mark.parametrize("E", [-1e-3, -1e-9, -1e-40, -1e-200])
def test_turning_point_brent_starts_at_last_point_below(monkeypatch, E):
    # the doubling steps x_lo + 2^k end at the first point at or above E;
    # Brent starts at the one before it, not back at x_lo
    brackets = []
    brent = wkb.brent

    def record(f, a, b):
        brackets.append((a, b))
        return brent(f, a, b)

    monkeypatch.setattr(wkb, "brent", record)
    r_e = wkb.turning_point(E, U)
    ((a, b),) = brackets
    x_lo = math.log(1.0 + 1e-12)
    assert b - x_lo == pytest.approx(2.0 * (a - x_lo), rel=1e-12)  # adjacent doublings
    assert U(math.exp(a)) < E <= U(math.exp(b)) and a < math.log(r_e) <= b


# ------------------------------------------------------------- phases

def test_phase_at_turning_point_is_theta():
    cfg = wkb.WkbConfig(theta=0.4)
    E = U(50.0)
    r_e = wkb.turning_point(E, U)
    assert wkb.wkb_phase(r_e, E, U, cfg, nu0=100.0) == pytest.approx(0.4, abs=1e-9)


def test_phase_nu0_scaling():
    cfg = wkb.WkbConfig(theta=0.0)
    E = U(200.0)
    p1 = wkb.wkb_phase(5.0, E, U, cfg, nu0=50.0)
    p2 = wkb.wkb_phase(5.0, E, U, cfg, nu0=200.0)
    assert p2 / p1 == pytest.approx(2.0, rel=1e-9)


def test_phase_approx_closed_form():
    nu0, R, R_E = 500.0, 10.0, 1e4
    want = 2.0 * math.sqrt(nu0) * (math.sqrt(math.log(R_E)) - math.sqrt(math.log(R)))
    assert wkb.wkb_phase_approx(R, R_E, nu0, 0.0) == pytest.approx(want, rel=1e-14)
    assert wkb.wkb_phase_approx(1.0, R_E, nu0, 0.3) == pytest.approx(
        2.0 * math.sqrt(nu0) * math.sqrt(math.log(R_E)) + 0.3, rel=1e-14
    )
    assert wkb.wkb_phase_approx(R_E, R_E, nu0, 0.3) == 0.3
    with pytest.raises(DomainError):
        wkb.wkb_phase_approx(0.5, 10.0, nu0, 0.0)


def test_zero_energy_phase_matches_approx_within_phi():
    # E = 0 with a cap: phase equals the closed form exactly (no energy term)
    nu0, cfg = 500.0, wkb.WkbConfig()
    r, r_cap = 10.0, 1e5
    full = wkb.wkb_phase(r, 0.0, U, cfg, nu0=nu0, R_cap=r_cap)
    assert full == pytest.approx(wkb.wkb_phase_approx(r, r_cap, nu0, 0.0), abs=1e-8)
    with pytest.raises(DomainError):
        wkb.wkb_phase(r, 0.0, U, cfg, nu0=nu0)  # missing cap


# ------------------------------------------------------------- Phi correction

def test_phi_asymptotic_value():
    phi = wkb.phi_correction(2.0, 1e4, 500.0)
    assert phi * math.sqrt(1e4 / 500.0) == pytest.approx(1.0 - math.log(2.0), abs=1e-3)


def test_phi_positive_and_sqrt_convergent():
    vals = []
    for x_eps in (1e2, 1e3, 1e4):
        phi = wkb.phi_correction(1.0, x_eps, 100.0)
        assert phi > 0.0
        vals.append(phi * math.sqrt(x_eps / 100.0))
    target = 1.0 - math.log(2.0)
    devs = [abs(v - target) for v in vals]
    assert devs[1] < devs[0] and devs[2] < devs[1]


@pytest.mark.parametrize("x_eps", [1e2, 1e4])
def test_phi_chain_reconciles_full_and_approx(x_eps):
    nu0 = 500.0
    for x in (2.0, 10.0, x_eps / 2.0):
        full = wkb.wkb_phase_langer(x, x_eps, nu0, U.langer_w, 0.0)
        approx = 2.0 * math.sqrt(nu0) * (math.sqrt(x_eps) - math.sqrt(x))
        phi = wkb.phi_correction(x, x_eps, nu0)
        assert abs(full - (approx - phi)) <= 2e-10


@settings(max_examples=60, deadline=None)
@given(x_eps=st.floats(0.5, 700.0), frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       nu0=st.floats(1.0, 1e4))
def test_phase_chain_identity(x_eps, frac, nu0):
    # for W = 1/x the full phase is exactly the closed form minus Phi
    x = frac * x_eps
    assume(0.0 < x < x_eps)
    full = wkb.wkb_phase_langer(x, x_eps, nu0, U.langer_w, 0.0)
    approx = 2.0 * math.sqrt(nu0) * (math.sqrt(x_eps) - math.sqrt(x))
    phi = wkb.phi_correction(x, x_eps, nu0)
    assert abs(full - (approx - phi)) <= 2e-10 + 1e-13 * abs(full)


@pytest.mark.parametrize("nu0, x_eps", [(50.0, 1e7), (1e4, 1e7)])
def test_phase_far_turning_point(nu0, x_eps):
    # a fixed rule has no recursion depth to run out of; Phi does not depend
    # on x once x_eps - x exceeds its cut-off of 40
    full = wkb.wkb_phase_langer(0.0, x_eps, nu0, U.langer_w, 0.0)
    want = 2.0 * math.sqrt(nu0 * x_eps) - wkb.phi_correction(1e-300, x_eps, nu0)
    assert isinstance(full, float)
    assert full == pytest.approx(want, rel=1e-12)


def test_phase_on_arrays_matches_floats():
    x_eps = np.array([[0.7, 3.0], [40.0, 900.0]])
    phases = wkb.wkb_phase_langer(0.5, x_eps, 200.0, U.langer_w, 0.3)
    assert phases.shape == x_eps.shape
    for got, xe in zip(phases.ravel(), x_eps.ravel()):
        assert got == pytest.approx(wkb.wkb_phase_langer(0.5, float(xe), 200.0, U.langer_w, 0.3),
                                    rel=1e-15, abs=1e-15)
    assert wkb.wkb_phase_langer(2.0, np.array([2.0, 5.0]), 200.0, U.langer_w, 0.3)[0] == 0.3
    with pytest.raises(DomainError):
        wkb.wkb_phase_langer(2.0, np.array([3.0, 1.0]), 200.0, U.langer_w, 0.3)


def test_langer_w_maps_scalar_potential_over_arrays():
    # a potential without a log form goes through the same array path
    w = wkb.langer_w(lambda R: U(R))
    x = np.array([0.5, 2.0, 30.0])
    np.testing.assert_allclose(w(x), 1.0 / x, rtol=1e-14)
    assert w(2.0) == pytest.approx(0.5, rel=1e-14)
    assert U.langer_w(4.0) == 0.25 and isinstance(U.langer_w(4.0), float)
    for bad in (0.0, np.array([1.0, 0.0]), np.array([-1.0]), math.nan,
                np.array([1.0, math.nan])):
        with pytest.raises(DomainError):
            U.langer_w(bad)


def test_phi_whole_range_at_small_x_eps():
    # x_eps - x <= 1 puts the last node of the sqrt-substituted head at
    # sqrt(x_eps - x)^2, which can round past x_eps
    phi = wkb.phi_correction(1e-130, 0.5, 1.0)
    full = wkb.wkb_phase_langer(1e-130, 0.5, 1.0, U.langer_w, 0.0)
    assert full == pytest.approx(2.0 * math.sqrt(0.5) - phi, abs=2e-10)


def test_phi_domain():
    with pytest.raises(DomainError):
        wkb.phi_correction(5.0, 5.0, 100.0)
    with pytest.raises(DomainError):
        wkb.phi_correction(-1.0, 5.0, 100.0)


def _phi_mpmath(x, x_eps, nu0):
    """Phi at 30 digits, by mpmath's tanh-sinh rule over the unsubstituted
    integral (the tail beyond s = 60 is below e^-120)."""
    with mp.workdps(30):
        x, x_eps, nu0 = mp.mpf(x), mp.mpf(x_eps), mp.mpf(nu0)
        top = min(x_eps - x, mp.mpf(60))

        def f(s):
            a = 1 - s / x_eps
            decay = mp.exp(-2 * s)
            return mp.sqrt(a) * decay / (1 + mp.sqrt(1 - a * decay))

        points = [mp.mpf(0), *(p for p in (1, 2, 4, 8, 16, 32) if p < top), top]
        return float(mp.sqrt(nu0 / x_eps) * mp.quad(f, points))


@pytest.mark.parametrize("x_eps", [0.05, 0.5, 3.0, 20.0, 80.0, 1e3, 1e8, 1e300])
@pytest.mark.parametrize("frac", [1e-15, 1e-6, 0.3, 0.99, 0.9999])
def test_phi_matches_mpmath(x_eps, frac):
    # x << x_eps puts a near square-root end point at s = x_eps - x; x near
    # x_eps makes the end piece in v a sliver next to sqrt(x), where
    # x_eps - v^2 would cancel
    for nu0 in (1.0, 500.0):
        want = _phi_mpmath(frac * x_eps, x_eps, nu0)
        got = wkb.phi_correction(frac * x_eps, x_eps, nu0)
        assert abs(got - want) <= 1e-13 * want, (got, want)


def test_phi_takes_no_adaptive_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("adaptive_simpson called")

    monkeypatch.setattr(numerics, "adaptive_simpson", refuse)
    monkeypatch.setattr(wkb, "adaptive_simpson", refuse)
    assert wkb.phi_correction(2.0, 1e4, 500.0) == pytest.approx(
        (1.0 - math.log(2.0)) * math.sqrt(500.0 / 1e4), rel=2e-4)
    assert wkb.phi_correction(1e-130, 0.5, 1.0) > 0.0


# ------------------------------------------------------------- quantization

def test_quantize_closed_form_positions():
    nu0 = 500.0
    spec = wkb.quantize_spectrum((1, 10), nu0, wkb.WkbConfig())
    for n, rho, _ in spec.levels:
        assert rho == pytest.approx(math.exp(math.pi**2 * n**2 / (4 * nu0)), rel=1e-13)


def test_quantize_monotone_spectrum():
    spec = wkb.quantize_spectrum((1, 20), 300.0, wkb.WkbConfig())
    assert np.all(spec.E < 0)
    assert np.all(np.diff(spec.E) > 0)
    assert np.all(np.diff(spec.rho) > 0)


def test_quantize_slope_fit():
    nu0 = 500.0
    spec = wkb.quantize_spectrum((5, 25), nu0, wkb.WkbConfig())
    assert spec.slope_theory == pytest.approx(-math.pi**2 / (2 * nu0), rel=1e-15)
    assert spec.slope_fit == pytest.approx(spec.slope_theory, rel=1e-10)
    assert spec.E0_fit > 0


def test_quantize_ratio_law():
    nu0 = 500.0
    spec = wkb.quantize_spectrum((10, 20), nu0, wkb.WkbConfig())
    n, e = spec.n, spec.E
    ratios = e[1:] / e[:-1]
    law = np.exp(-math.pi**2 * (n[:-1] + 0.5) / nu0) * (n[:-1] / (n[:-1] + 1.0)) ** 2
    np.testing.assert_allclose(ratios, law, rtol=1e-12)


def test_theta_reindexing():
    # shifting theta by delta acts as n -> n - delta/pi in closed-form mode
    nu0, delta = 200.0, 0.5 * math.pi
    base = wkb.quantize_spectrum((2, 6), nu0, wkb.WkbConfig(theta=0.0))
    shifted = wkb.quantize_spectrum((2, 6), nu0, wkb.WkbConfig(theta=delta))
    for (n, rho_s, _) in shifted.levels:
        x_expect = (math.pi * (n - 0.5)) ** 2 / (4.0 * nu0)
        assert math.log(rho_s) == pytest.approx(x_expect, rel=1e-12)
    assert shifted.theta_used == delta
    assert len(base.levels) == len(shifted.levels)


def test_full_mode_exceeds_closed_form_by_phi_shift():
    # the energy term under the root shifts ln(rho_n) upward, approaching
    # 1 - ln 2 from below as n grows; the 5% closed-vs-full agreement the
    # asymptotic analysis might suggest does not hold at these n
    nu0 = 100.0
    full = wkb.quantize_spectrum((5, 12), nu0, wkb.WkbConfig(phase_mode="full"))
    closed = wkb.quantize_spectrum((5, 12), nu0, wkb.WkbConfig())
    gaps = [
        math.log(rf / rc)
        for (_, rf, _), (_, rc, _) in zip(full.levels, closed.levels)
    ]
    cap = 1.0 - math.log(2.0)
    assert all(0.0 < g < cap * 1.02 for g in gaps)
    assert all(b > a for a, b in zip(gaps, gaps[1:]))  # increasing toward the cap


class _CountingPotential(UnifiedPotential):
    def __init__(self):
        self.calls = self.elements = 0

    def langer_w(self, x):
        self.calls += 1
        self.elements += np.size(x)
        return super().langer_w(x)


def _spy_phases(monkeypatch):
    """The x_eps array of every phase evaluation, in order."""
    seen = []
    integrals = wkb._phase_integrals

    def spy(x, x_eps, *args, **kwargs):
        seen.append(np.array(x_eps))
        return integrals(x, x_eps, *args, **kwargs)

    monkeypatch.setattr(wkb, "_phase_integrals", spy)
    return seen


def test_full_mode_work_bound(monkeypatch):
    # one Newton solve from the closed-form levels: each phase evaluation is
    # one array expression on fixed nodes with three W calls (the nodes,
    # x_eps, and the central difference at x_eps), and at most eight settle
    # six levels (five, once the phase's rounding lets a last step fall
    # within 4 ulp); a wall at R_inner > 1 adds two W calls (W and W' there)
    # for the start of the levels next to it
    seen = _spy_phases(monkeypatch)
    for nu0, R_inner, theta in [(200.0, 1.0, 0.0), (20.0, 1.0, 0.0), (200.0, 1.0, 0.7),
                                (200.0, math.e, -0.9)]:
        seen.clear()
        pot = _CountingPotential()
        cfg = wkb.WkbConfig(phase_mode="full", R_inner=R_inner, theta=theta)
        spec = wkb.quantize_spectrum((1, 6), nu0, cfg, pot)
        assert len(spec.levels) == 6
        assert len(seen) <= 8
        assert pot.calls == 3 * len(seen) + 6 + 2 * (R_inner > 1.0)  # and one W per level for E_n
        assert pot.elements <= 3_500


@pytest.mark.parametrize("R_inner", [math.e, math.e**3])
@pytest.mark.parametrize("nu0", [20.0, 200.0, 2000.0])
def test_level_next_to_the_wall_takes_few_phases(monkeypatch, nu0, R_inner):
    # at theta just below pi the level lies within about 1e-10 of the wall,
    # where the phase grows as (x - x_inner)^(3/2); the closed-form start
    # rounded to the wall, and the solve took 31-35 phases
    seen = _spy_phases(monkeypatch)
    cfg = wkb.WkbConfig(theta=math.nextafter(math.pi, 0.0), phase_mode="full",
                        R_inner=R_inner)
    spec = wkb.quantize_spectrum((1, 1), nu0, cfg)
    assert len(seen) <= 8
    x_n = math.log(spec.levels[0][1])
    phase = wkb.wkb_phase_langer(math.log(R_inner), x_n, nu0, U.langer_w, 0.0)
    assert phase == pytest.approx(math.pi - cfg.theta, rel=1e-6)


def test_full_mode_drops_levels_beyond_rmax():
    cfg = wkb.WkbConfig(R_max=1e10, phase_mode="full")
    spec = wkb.quantize_spectrum((1, 40), 5.0, cfg)
    assert spec.levels and spec.levels[-1][0] < 40
    assert all(rho <= 1e10 for _, rho, _ in spec.levels)


@pytest.mark.parametrize("theta", [0.0, 0.6, -2.0])
def test_full_mode_keeps_every_level_below_rmax(theta):
    # the levels are exactly those whose target the phase reaches by R_max;
    # at nu0 = 5 the phase there is 6.79 pi, and levels 5 and 6 lie below it
    cfg = wkb.WkbConfig(R_max=1e10, phase_mode="full", theta=theta)
    spec = wkb.quantize_spectrum((1, 40), 5.0, cfg)
    at_cap = wkb.wkb_phase_langer(0.0, math.log(1e10), 5.0, U.langer_w, 0.0)
    assert [n for n, _, _ in spec.levels] == [
        n for n in range(1, 41) if at_cap >= math.pi * n - theta]
    for n, rho, _ in spec.levels:
        phase = wkb.wkb_phase_langer(0.0, math.log(rho), 5.0, U.langer_w, 0.0)
        assert phase == pytest.approx(math.pi * n - theta, rel=1e-13)


def test_levels_past_the_cap_take_one_phase_there(monkeypatch):
    # at theta = 0.6 level 7's closed form lies below the cap and its first
    # step passes it; levels 8-40 start past it.  Each is dropped after one
    # phase at x_cap, with no search toward the cap
    seen = _spy_phases(monkeypatch)
    x_cap = math.log(1e10)
    cfg = wkb.WkbConfig(R_max=1e10, phase_mode="full", theta=0.6)
    assert wkb.quantize_spectrum((7, 7), 5.0, cfg).levels == []
    assert len(seen) == 2 and seen[0] < x_cap and seen[1].tolist() == [x_cap]
    seen.clear()
    spec = wkb.quantize_spectrum((1, 40), 5.0, cfg)
    assert [n for n, _, _ in spec.levels] == [1, 2, 3, 4, 5, 6]
    assert sum(int((xe == x_cap).sum()) for xe in seen) == 34
    assert len(seen) <= 6


class _NanPotential(_CountingPotential):
    def langer_w(self, x):
        return np.where(np.asarray(x) > 0.2, math.nan, super().langer_w(x))


def test_nan_phase_is_convergence_error():
    # level 4 starts at x = 0.197 and lies at x = 0.285, past the point where
    # W turns NaN: the second phase is not finite, and the solve stops there
    pot = _NanPotential()
    with pytest.raises(ConvergenceError, match="not finite"):
        wkb.quantize_spectrum((1, 4), 200.0, wkb.WkbConfig(phase_mode="full"), pot)
    assert pot.calls == 2 * 3


def test_unsettled_newton_solve_is_convergence_error(monkeypatch):
    # the solve has a fixed step cap; six levels need more than two steps
    monkeypatch.setattr(wkb, "_NEWTON_MAXITER", 2)
    with pytest.raises(ConvergenceError, match="not settled in 2"):
        wkb.quantize_spectrum((1, 6), 200.0, wkb.WkbConfig(phase_mode="full"))


@settings(max_examples=60, deadline=None)
@given(log_nu0=st.floats(math.log(0.5), math.log(2000.0)),
       R_inner=st.floats(1.0, math.exp(3.0)), theta=st.floats(-math.pi, math.pi),
       n_top=st.integers(1, 40))
def test_newton_levels_match_bracketed_reference(log_nu0, R_inner, theta, n_top):
    # every level that both solvers keep agrees; the reference's doubling
    # search may drop levels just below the cap
    nu0, x_inner, x_cap = math.exp(log_nu0), math.log(R_inner), math.log(1e150)
    targets = [math.pi * n - theta for n in range(1, n_top + 1) if math.pi * n - theta > 0]
    got = wkb._full_phase_roots(targets, nu0, U.langer_w, x_inner, x_cap)
    want = oracles.full_phase_roots(targets, nu0, U.langer_w, x_inner, x_cap)
    for g, w in zip(got, want):
        if not math.isnan(w):
            assert not math.isnan(g)
            assert g == pytest.approx(w, rel=1e-14)


def test_levels_beyond_rmax_are_dropped():
    cfg = wkb.WkbConfig(R_max=1e10)
    spec = wkb.quantize_spectrum((1, 200), 5.0, cfg)
    assert spec.levels, "some levels must survive"
    assert all(rho <= 1e10 for _, rho, _ in spec.levels)
    assert spec.levels[-1][0] < 200


# ------------------------------------------------------------- counting

def test_count_bound_states_value():
    nb = wkb.count_bound_states(100.0, 20.0)
    assert nb == pytest.approx(math.sqrt(40.0 * math.log(50.0)) / math.pi, rel=1e-14)
    assert nb == pytest.approx(3.98, abs=0.01)


def test_count_bound_states_scaling_and_divergence():
    nb = wkb.count_bound_states(100.0, 20.0)
    assert wkb.count_bound_states(100.0, 80.0) == pytest.approx(2.0 * nb, rel=1e-14)
    assert wkb.count_bound_states(1e8, 20.0) > wkb.count_bound_states(1e4, 20.0)
    with pytest.raises(DomainError):
        wkb.count_bound_states(2.0, 20.0)


def test_n_max():
    assert wkb.n_max(math.pi**2) == pytest.approx(1.0, rel=1e-14)
    assert wkb.n_max(1e5) == pytest.approx(1.013e4, rel=1e-3)
    assert wkb.n_max(2.0) == pytest.approx(0.2026, abs=1e-3)
    with pytest.raises(DomainError):
        wkb.n_max(0.0)


def test_config_validation():
    with pytest.raises(DomainError):
        wkb.WkbConfig(theta=4.0)
    with pytest.raises(DomainError):
        wkb.WkbConfig(R_inner=0.5)
    with pytest.raises(DomainError):
        wkb.WkbConfig(phase_mode="other")
    for kw in ({"theta": math.nan}, {"R_inner": math.nan}, {"R_inner": math.inf},
               {"R_max": math.nan}, {"R_max": 0.5}, {"R_max": math.inf},
               {"R_max": 1e308}):
        with pytest.raises(DomainError):
            wkb.WkbConfig(**kw)
    with pytest.raises(TypeError):  # Phi has no tolerance left to set
        wkb.WkbConfig(quad_tol=1e-10)


def test_quantize_spectrum_rejects_bad_nu0():
    for nu0 in (math.nan, math.inf, 0.0, -5.0):
        with pytest.raises(DomainError):
            wkb.quantize_spectrum((1, 3), nu0, wkb.WkbConfig())


@pytest.mark.parametrize("call", [
    lambda: wkb.turning_point(math.nan, U),
    lambda: wkb.turning_point(-math.inf, U),
    lambda: wkb.count_bound_states(math.nan, 10.0),
    lambda: wkb.count_bound_states(math.inf, 10.0),
    lambda: wkb.count_bound_states(100.0, math.nan),
    lambda: wkb.count_bound_states(100.0, math.inf),
    lambda: wkb.n_max(math.nan),
    lambda: wkb.n_max(math.inf),
    lambda: wkb.wkb_phase_approx(math.nan, 10.0, 10.0, 0.0),
    lambda: wkb.wkb_phase_approx(2.0, math.nan, 10.0, 0.0),
    lambda: wkb.wkb_phase_approx(2.0, math.inf, 10.0, 0.0),
    lambda: wkb.wkb_phase_approx(2.0, 10.0, math.nan, 0.0),
    lambda: wkb.wkb_phase_approx(2.0, 10.0, math.inf, 0.0),
    lambda: wkb.wkb_phase_approx(2.0, 10.0, -1.0, 0.0),
    lambda: wkb.wkb_phase_approx(2.0, 10.0, 10.0, math.nan),
    lambda: wkb.wkb_phase(5.0, -0.01, U, wkb.WkbConfig(), nu0=math.nan),
    lambda: wkb.wkb_phase(5.0, -0.01, U, wkb.WkbConfig(), nu0=math.inf),
    lambda: wkb.wkb_phase(5.0, 0.0, U, wkb.WkbConfig(), nu0=10.0, R_cap=math.inf),
    lambda: wkb.wkb_phase(0.5, -0.01, U, wkb.WkbConfig(), nu0=10.0),
    lambda: wkb.phi_correction(2.0, 1e4, math.nan),
    lambda: wkb.phi_correction(2.0, 1e4, -1.0),
    lambda: wkb.phi_correction(2.0, math.inf, 10.0),
    lambda: wkb.phi_correction(2.0, 1e4, math.inf),
    # level indices are integers >= 1, in a list or at the ends of a range
    lambda: wkb.quantize_spectrum([1.5, 2], 10.0, wkb.WkbConfig()),
    lambda: wkb.quantize_spectrum([math.nan], 10.0, wkb.WkbConfig()),
    lambda: wkb.quantize_spectrum((1, 2.5), 10.0, wkb.WkbConfig()),
    lambda: wkb.quantize_spectrum([True], 10.0, wkb.WkbConfig()),
    lambda: wkb.quantize_spectrum((0, 3), 10.0, wkb.WkbConfig()),
    lambda: wkb.quantize_spectrum((1, 2, 3), 10.0, wkb.WkbConfig()),
])
def test_wkb_rejects_bad_inputs(call):
    with pytest.raises(DomainError):
        call()

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planar3b import radial, scattering, wkb
from planar3b.errors import ConvergenceError, DomainError, StepSizeError
from planar3b.potentials import UnifiedPotential
from planar3b.specfun import bessel_j

U = UnifiedPotential()
NU0 = 4.0
R1_A1_100 = math.sqrt(50.0 * math.log(50.0))


def _exact_window(h, lo=0.5, hi=8.0, a=1.0, b=0.3):
    x = np.arange(lo, hi + h / 2, h)
    exact = radial.zero_energy_exact(x, NU0, a, b)
    return x, exact


# ------------------------------------------------------------- zero-energy exact

def test_zero_energy_first_node_pure_j():
    # A=1, B=0: first node where 2 sqrt(nu0 x) hits the first J1 zero
    j11 = 3.8317059702075125
    x_node = j11**2 / (4.0 * NU0)
    x = np.linspace(x_node * 0.2, x_node * 1.5, 4001)
    s = radial.zero_energy_exact(x, NU0, 1.0, 0.0)
    sign_flips = np.flatnonzero(s.values[:-1] * s.values[1:] < 0.0)
    assert len(sign_flips) == 1
    crossing = x[sign_flips[0]]
    assert crossing == pytest.approx(x_node, rel=1e-3)


def test_zero_energy_envelope_and_phase():
    # chi0 ~ x^(1/4) sin(2 sqrt(nu0 x) - theta0), theta0 = atan(B/A) + pi/4
    a_coef, b_coef = 1.0, 0.3
    theta0 = math.atan2(b_coef, a_coef) + math.pi / 4
    for x in (30.0, 60.0, 120.0):
        s = radial.zero_energy_exact(np.array([x, x + 1e-6]), NU0, a_coef, b_coef)
        amp = math.sqrt(2.0 / math.pi) / (4.0 * NU0 * x) ** 0.25 * math.hypot(a_coef, b_coef)
        envelope = s.values[0] / (x**0.25)
        assert abs(envelope) <= amp * (x**0.25) * 1.01  # bounded envelope
        want = math.sin(2.0 * math.sqrt(NU0 * x) - theta0)
        got = s.values[0] / (x**0.25 * amp * x**0.25)
        assert got == pytest.approx(want, abs=3.0 / math.sqrt(x))


def test_zero_energy_matches_specfun_value():
    s = radial.zero_energy_exact(np.array([1.0, 2.0]), NU0, 1.0, 0.0)
    assert s.values[0] == pytest.approx(bessel_j(1, 4.0), rel=1e-12)


def test_zero_energy_one_bessel_call_each(monkeypatch):
    # z = 2 sqrt(nu0 x) on this grid spans all three J/Y regimes
    x = np.geomspace(1e-3, 20.0, 50)
    want = radial.zero_energy_exact(x, NU0, 0.7, 0.3).values
    calls = []
    for name in ("bessel_j", "bessel_y"):
        fn = getattr(radial, name)
        monkeypatch.setattr(radial, name, lambda n, z, fn=fn, name=name: calls.append(name) or fn(n, z))
    got = radial.zero_energy_exact(x, NU0, 0.7, 0.3).values
    assert sorted(calls) == ["bessel_j", "bessel_y"]
    assert got.tobytes() == want.tobytes()
    z = 2.0 * np.sqrt(NU0 * x)
    assert z.min() < 4.0 and z.max() > 16.0


def test_zero_energy_domain():
    with pytest.raises(DomainError):
        radial.zero_energy_exact(np.array([-1.0, 1.0]), NU0, 1.0, 0.0)


# ------------------------------------------------------------- Numerov

def test_numerov_vs_exact_rms():
    h = 1e-3
    x, exact = _exact_window(h)
    num = radial.numerov_integrate(U, 0.0, x, (exact.values[0], exact.values[1]), nu0=NU0)
    scale = np.dot(exact.values, num.values) / np.dot(num.values, num.values)
    rms = math.sqrt(np.mean((scale * num.values - exact.values) ** 2))
    assert rms <= 1e-6
    assert num.node_count == exact.node_count


def test_numerov_fourth_order_convergence():
    errs = []
    for h in (0.02, 0.01):
        x, exact = _exact_window(h)
        num = radial.numerov_integrate(U, 0.0, x, (exact.values[0], exact.values[1]), nu0=NU0)
        scale = np.dot(exact.values, num.values) / np.dot(num.values, num.values)
        errs.append(np.max(np.abs(scale * num.values - exact.values)))
    assert 12.0 <= errs[0] / errs[1] <= 20.0


class _ZeroPotential:
    def __call__(self, R):
        return 0.0

    @staticmethod
    def langer_w(x):
        return 0.0


@pytest.mark.parametrize("E, analytic", [
    (+1.0, lambda k, dx: math.sin(k * dx)),       # oscillatory
    (-1.0, lambda k, dx: math.sinh(k * dx)),      # exponential
])
def test_numerov_constant_coefficient_window(E, analytic):
    # V = 0 on a short window: eps e^(2x) is constant to O(2 dx), so the
    # solution matches the constant-coefficient form to ~dx^3
    nu0 = 4.0
    x0, h, n = 0.0, 2.5e-4, 5
    x = x0 + h * np.arange(n)
    k = math.sqrt(abs(nu0 * E))
    want = np.array([analytic(k, xx - x0) for xx in x])
    num = radial.numerov_integrate(_ZeroPotential(), E, x, (want[0], want[1]), nu0=nu0)
    assert np.max(np.abs(num.values - want)) < 1e-8


def test_numerov_step_rejection():
    x = np.linspace(0.01, 3.0, 30)  # far too coarse for nu0/x at the left edge
    with pytest.raises(StepSizeError):
        radial.numerov_integrate(U, 0.0, x, (0.0, 1e-3), nu0=400.0)


def test_numerov_nonuniform_grid_rejected():
    x = np.array([0.5, 0.6, 0.75, 0.9])
    with pytest.raises(DomainError):
        radial.numerov_integrate(U, 0.0, x, (0.0, 1e-3), nu0=NU0)


# ------------------------------------------------------------- eigenvalues

def test_harmonic_oscillator_self_test():
    res = radial.bound_states_1d(lambda x: x * x, (-6.0, 6.0), 4, h=2e-3)
    assert res.complete
    np.testing.assert_allclose(res.energies, [1.0, 3.0, 5.0, 7.0], atol=1e-6)
    spacings = np.diff(res.energies)
    np.testing.assert_allclose(spacings, 2.0, atol=1e-6)
    assert res.nodes == [0, 1, 2, 3]


def test_level_count_matches_counting_rule():
    # hard-wall window [r1, R1(a1=100)], nu0=20: zero-energy node count 4
    cnt = radial.count_negative_levels(U, 20.0, (1.0, R1_A1_100))
    nb = wkb.count_bound_states(100.0, 20.0)
    assert abs(cnt - round(nb)) <= 1
    res = radial.bound_states_numerov(U, 20.0, (1.0, R1_A1_100), cnt + 1, h=2e-4)
    assert not res.complete and len(res.energies) == cnt


def test_level_count_shifted_inner_wall():
    # moving the inner wall from r1 to e removes most of the phase integral;
    # the count drops to the node count of the zero-energy solution there
    cnt = radial.count_negative_levels(U, 20.0, (math.e, R1_A1_100))
    x_lo, x_hi = 1.0, math.log(R1_A1_100)
    phase = 2.0 * math.sqrt(20.0) * (math.sqrt(x_hi) - math.sqrt(x_lo))
    assert cnt in (math.floor(phase / math.pi), math.ceil(phase / math.pi))


def test_deepest_levels_against_wkb():
    nu0 = 100.0
    bs = radial.bound_states_numerov(U, nu0, (1.0, R1_A1_100), 3, h=2e-4)
    spec = wkb.quantize_spectrum((1, 3), nu0, wkb.WkbConfig(phase_mode="full"))
    assert bs.complete and len(spec.levels) == 3
    for e_num, (_, _, e_wkb) in zip(bs.energies, spec.levels):
        assert abs(e_wkb / e_num - 1.0) < 0.15


def test_eigenvalues_sorted_with_node_theorem():
    res = radial.bound_states_numerov(U, 30.0, (1.0, R1_A1_100), 3, h=2e-4)
    assert res.energies == sorted(res.energies)
    assert res.nodes == [0, 1, 2]


def test_outer_wall_independence():
    a = radial.bound_states_numerov(U, 20.0, (1.0, 8.0), 1, h=2e-4)
    b = radial.bound_states_numerov(U, 20.0, (1.0, 30.0), 1, h=2e-4)
    assert abs(a.energies[0] / b.energies[0] - 1.0) <= 1e-6


def test_window_validation():
    with pytest.raises(DomainError):
        radial.bound_states_numerov(U, 20.0, (0.5, 10.0), 1)
    with pytest.raises(DomainError):
        radial.bound_states_numerov(U, 20.0, (5.0, 5.0), 1)


@pytest.mark.parametrize("nu0, counts", [
    (4.0, (1, 0)), (20.0, (4, 1)), (50.0, (7, 2)), (100.0, (10, 3)), (200.0, (14, 5)),
])
def test_level_counts_unchanged(nu0, counts):
    # counts of the second-order wall start at h = 2e-4, on a wall at r1 and at e
    assert radial.count_negative_levels(U, nu0, (1.0, R1_A1_100)) == counts[0]
    assert radial.count_negative_levels(U, nu0, (math.e, R1_A1_100)) == counts[1]


def test_wall_start_fourth_order():
    # deepest level at nu0 = 200 on (1, 300): the change per halving of h must
    # fall by ~16 (it fell by 3.9 with the 1/x term missing from the first step)
    levels = [radial.bound_states_numerov(U, 200.0, (1.0, 300.0), 1, h=h).energies[0]
              for h in (4e-4, 2e-4, 1e-4)]
    ratio = (levels[0] - levels[1]) / (levels[1] - levels[2])
    assert ratio >= 12.0


def test_default_step_matches_fine_step():
    coarse = radial.bound_states_numerov(U, 200.0, (1.0, 300.0), 2)
    fine = radial.bound_states_numerov(U, 200.0, (1.0, 300.0), 2, h=1e-4)
    np.testing.assert_allclose(coarse.energies, fine.energies, rtol=2e-6)


def test_default_step_at_large_nu0():
    # at nu0 = 2000 a step of 8e-4 puts nu0 h = 1.6 at the first grid point,
    # beyond the Numerov criterion, and the deepest level was 2% off
    default = radial.bound_states_numerov(U, 2000.0, (1.0, 300.0), 1)
    fine = radial.bound_states_numerov(U, 2000.0, (1.0, 300.0), 1, h=1e-4)
    assert default.energies[0] == pytest.approx(fine.energies[0], rel=1e-4)
    # up to nu0 = 250 the default step stays 8e-4
    for nu0 in (20.0, 250.0):
        assert (radial.bound_states_numerov(U, nu0, (1.0, 30.0), 1).energies
                == radial.bound_states_numerov(U, nu0, (1.0, 30.0), 1, h=8e-4).energies)
        assert (radial.count_negative_levels(U, nu0, (1.0, 30.0))
                == radial.count_negative_levels(U, nu0, (1.0, 30.0), h=8e-4))


# ------------------------------------------------------------- WKB-seeded brackets

def _count_shots(monkeypatch):
    shots = []
    sweep = radial._numerov_sweep
    monkeypatch.setattr(radial, "_numerov_sweep",
                        lambda q, *args, **kw: shots.append(len(q)) or sweep(q, *args, **kw))
    return shots


#: grid points summed over every sweep of one 2-level solve at the centre
#: pairs, with a count bracket and Ridders refinement per level
_BRACKET_RIDDERS_POINTS = {(50.0, 100.0): 25318, (100.0, 320.0): 20756, (200.0, 1000.0): 14055}


@pytest.mark.parametrize("nu0, a1", [(50.0, 100.0), (100.0, 320.0), (200.0, 1000.0)])
def test_two_level_shots_bounded(monkeypatch, nu0, a1):
    # around each (nu0, a1) of the benchmark's spectra workload, where
    # node-count bisection took 49-95 shots and jumped under 3% changes
    shots = _count_shots(monkeypatch)
    for f_nu0 in (0.97, 1.0, 1.03):
        for f_a1 in (0.97, 1.0, 1.03):
            shots.clear()
            res = radial.bound_states_numerov(U, nu0 * f_nu0, (1.0, scattering.r1_range(a1 * f_a1)), 2)
            assert res.complete and res.nodes == [0, 1]
            assert len(shots) <= 25, (nu0 * f_nu0, a1 * f_a1)
            if f_nu0 == f_a1 == 1.0:
                # Cooley's corrections sweep each level's window about three
                # times and take no zero-energy shot over the whole grid
                assert sum(shots) <= 0.6 * _BRACKET_RIDDERS_POINTS[nu0, a1]


def test_count_bracket_shot_budget_from_e(monkeypatch):
    # from R = e the WKB seeds are 15-320% off, and most steps leave their
    # label or the bracket.  A count bracket of memoized plain shots with
    # corrections inside took 15.9 shots per level and 1,645,462 grid points
    # on these windows; matched shots that each narrow the bracket by
    # Johnson's count take 9.7 and 961,685
    corrections = []
    correct = radial._ShootingProblem.correct
    monkeypatch.setattr(radial._ShootingProblem, "correct",
                        lambda self, eps: corrections.append(eps) or correct(self, eps))
    points = _count_shots(monkeypatch)
    levels = 0
    for nu0 in (20.0, 50.0, 100.0, 200.0, 300.0):
        for a1 in (30.0, 300.0, 3000.0):
            window = (math.e, scattering.r1_range(a1))
            res = radial.bound_states_numerov(U, nu0, window, 3)
            assert res.nodes == list(range(len(res.energies)))
            levels += len(res.energies)
    assert levels == 39
    assert len(corrections) <= 11 * levels
    assert sum(points) <= 0.7 * 1_645_462


def test_settled_seeds_take_no_zero_energy_shot(monkeypatch):
    energies = []
    correct = radial._ShootingProblem.correct
    monkeypatch.setattr(radial._ShootingProblem, "correct",
                        lambda self, eps: energies.append(eps) or correct(self, eps))
    shots = _count_shots(monkeypatch)
    window = (1.0, scattering.r1_range(100.0))
    res = radial.bound_states_numerov(U, 50.0, window, 2)
    assert res.complete and res.nodes == [0, 1]
    n_grid = len(radial._numerov_problem(U, 50.0, window, None).x)
    assert shots and max(shots) < n_grid
    assert energies and max(energies) < 0.0


@settings(max_examples=12, deadline=None)
@given(nu0=st.floats(5.0, 300.0), a1=st.floats(30.0, 3000.0), k=st.integers(1, 3),
       start=st.sampled_from([1.0, math.e]))
def test_seeded_levels_match_bisection(nu0, a1, k, start):
    # the search from the WKB seeds and the one from eps = 0 find the same
    # levels; from R = e the seeds are 8-70% off, so the steps walk far
    window = (start, scattering.r1_range(a1))
    seeded = radial.bound_states_numerov(U, nu0, window, k)
    plain = radial._eigensolve(radial._numerov_problem(U, nu0, window, None), k)
    assert seeded.nodes == plain.nodes
    assert seeded.complete == plain.complete
    np.testing.assert_allclose(seeded.energies, [e / nu0 for e in plain.energies], rtol=1e-9)


def _plain_count(problem, eps):
    """Node count of the plain shot at eps: one outward sweep to the cap
    index, the cell at the cap included."""
    q = eps * problem.w + problem.v
    end = max(problem._cap_index(q)[1], 3)
    y1, qy0 = radial._start(problem.wall, eps, problem.h)
    return radial._numerov_sweep(q[: end + 1], problem.h, 0.0, y1, qy0=qy0)[1]


@settings(max_examples=60, deadline=None)
@given(nu0=st.floats(5.0, 300.0), a1=st.floats(10.0, 3000.0),
       start=st.sampled_from([1.0, math.e, 1.5]), decades=st.floats(0.0, 12.0, exclude_min=True))
@example(nu0=20.0, a1=30.0, start=math.e, decades=1.0)
def test_johnson_count_matches_plain_count(nu0, a1, start, decades):
    # nodes + (delta < 0) of the matched shot counts the levels below eps
    # as the plain shot's nodes do, at eps between the floor and 0 and at 0;
    # at the floor, where Q <= 0 past the wall, it reads 0
    problem = radial._numerov_problem(U, nu0, (start, scattering.r1_range(a1)), None)
    floor = problem.floor
    assert floor < 0.0 and problem.count(floor) == 0
    for eps in (floor * 10.0**-decades, 0.0):
        assert problem.count(eps) == _plain_count(problem, eps), eps


def _bisection_levels(nu0, window, k):
    """eps = nu0 E of the first min(k, count) levels by bisection on plain
    shot node counts alone, each to 1e-12 relative."""
    problem = radial._numerov_problem(U, nu0, window, None)

    def count(eps):
        return _plain_count(problem, eps)

    floor = -1.0
    while count(floor) > 0:
        floor *= 2.0
    levels = []
    for j in range(min(k, count(0.0))):
        lo, hi = (levels[-1] if levels else floor), 0.0
        while hi - lo > 1e-12 * abs(hi):
            mid = 0.5 * (lo + hi)
            if count(mid) <= j:
                lo = mid
            else:
                hi = mid
        levels.append(0.5 * (lo + hi))
    return levels


@settings(max_examples=12, deadline=None)
@given(nu0=st.floats(5.0, 300.0), a1=st.floats(30.0, 3000.0), k=st.integers(1, 3),
       start=st.sampled_from([1.0, math.e]))
@example(nu0=50.0, a1=100.0, k=2, start=1.0)
@example(nu0=20.0, a1=30.0, k=3, start=math.e)
def test_levels_match_count_bisection(nu0, a1, k, start):
    # an independent reference: node counts only, no correction and no seed
    window = (start, scattering.r1_range(a1))
    res = radial.bound_states_numerov(U, nu0, window, k)
    want = _bisection_levels(nu0, window, k)
    assert res.nodes == list(range(len(res.energies)))
    assert len(res.energies) == len(want)
    np.testing.assert_allclose(res.energies, [e / nu0 for e in want], rtol=1e-9)


def test_bad_seeds_fall_back_to_bisection():
    problem = radial._numerov_problem(U, 30.0, (1.0, 300.0), None)
    plain = radial._eigensolve(problem, 2)
    # no seed for level 1 and NaN seeds (the search starts at eps = 0),
    # seeds far below, seeds above eps = 0 (ignored)
    for seeds in ([plain.energies[0]], [math.nan, math.nan], [10.0 * e for e in plain.energies],
                  [1.0, 1.0]):
        res = radial._eigensolve(problem, 2, seeds=seeds)
        assert res.nodes == [0, 1]
        np.testing.assert_allclose(res.energies, plain.energies, rtol=1e-9)


def test_wkb_failure_falls_back_to_bisection(monkeypatch):
    want = radial.bound_states_numerov(U, 30.0, (1.0, 300.0), 2)

    def fail(*args):
        raise ConvergenceError("full WKB phase is not finite at a bracket end")

    monkeypatch.setattr(radial, "quantize_spectrum", fail)
    got = radial.bound_states_numerov(U, 30.0, (1.0, 300.0), 2)
    assert got.nodes == want.nodes == [0, 1]
    np.testing.assert_allclose(got.energies, want.energies, rtol=1e-9)


@pytest.mark.parametrize("nu0, a1, start, k", [
    (20.0, 30.0, math.e, 1), (20.0, 30.0, math.e, 2), (20.0, 30.0, math.e, 3),
    (134.57, 13.74, math.e, 2), (6.71, 29.56, 1.0, 2),
])
def test_levels_whose_count_bracket_sat_above_them(nu0, a1, start, k):
    # node counts without the cell at the cap put a level's count bracket
    # above the level, and the refinement raised "lost its bracket"
    window = (start, scattering.r1_range(a1))
    res = radial.bound_states_numerov(U, nu0, window, k)
    fine = radial.bound_states_numerov(U, nu0, window, k, h=1e-4)
    count = radial.count_negative_levels(U, nu0, window)
    assert res.complete == (k <= count)
    assert res.nodes == fine.nodes == list(range(min(k, count)))
    np.testing.assert_allclose(res.energies, fine.energies, rtol=1e-8)


@settings(max_examples=15, deadline=None)
@given(nu0=st.floats(5.0, 300.0), a1=st.floats(10.0, 3000.0), k=st.integers(1, 4),
       start=st.sampled_from([1.0, math.e]))
@example(nu0=20.0, a1=30.0, k=1, start=math.e)
def test_level_count_is_min_of_request_and_count(nu0, a1, k, start):
    window = (start, scattering.r1_range(a1))
    res = radial.bound_states_numerov(U, nu0, window, k)
    count = radial.count_negative_levels(U, nu0, window)
    assert len(res.energies) == min(k, count)
    assert res.complete == (k <= count)
    assert res.nodes == list(range(len(res.energies)))


@pytest.mark.parametrize("k_levels", [0, -1, 2.5, True, "2", None])
def test_bad_level_count_rejected(k_levels):
    with pytest.raises(DomainError):
        radial.bound_states_numerov(U, 20.0, (1.0, 3.0), k_levels)
    with pytest.raises(DomainError):
        radial.bound_states_1d(lambda x: x * x, (-6.0, 6.0), k_levels)


class _StubProblem:
    """Matched shots from a given function of eps, which returns their
    (nodes, correction) pair, above a floor at eps = -2."""

    floor = -2.0

    def __init__(self, correction):
        self.correction = correction
        self.shots = []

    def correct(self, eps):
        self.shots.append(eps)
        return self.correction(eps)


def test_stub_problem_level():
    # Newton's correction for exp(eps + 1) - 1, which vanishes at eps = -1
    problem = _StubProblem(lambda eps: (0, math.expm1(-(eps + 1.0))))
    res = radial._eigensolve(problem, 1)
    assert res.complete and res.nodes == [0]
    assert res.energies[0] == pytest.approx(-1.0, rel=1e-12)


def test_node_theorem_violation_is_convergence_error():
    # Johnson's count puts a level at -0.7, but the matched shots within 1e-9
    # of it have three nodes, and a 0-node step from further out is larger
    # than 1e-10 |eps|: the bracket closes around -0.7 without a settled step
    problem = _StubProblem(lambda eps: (3 if abs(eps + 0.7) < 1e-9 else 0, -0.7 - eps))
    with pytest.raises(ConvergenceError, match="node theorem"):
        radial._eigensolve(problem, 1)


def test_unsettled_correction_is_convergence_error():
    # the correction creeps toward the level at -0.7 by 1e-7 a shot: every
    # step reads 0 nodes and stays inside the bracket, so the one search
    # gives up after _CORRECTION_LIMIT shots
    problem = _StubProblem(lambda eps: (0, 1e-7 if eps < -0.7 else -1e-7))
    with pytest.raises(ConvergenceError, match="not settled"):
        radial._eigensolve(problem, 1, seeds=[-0.5])
    assert len(problem.shots) == radial._CORRECTION_LIMIT


def test_seeded_stub_takes_no_shot():
    # a seed that settles takes no shot at eps_hi = 0
    problem = _StubProblem(lambda eps: (0, math.expm1(-(eps + 1.0))))
    res = radial._eigensolve(problem, 1, seeds=[-1.2])
    assert res.complete and res.nodes == [0] and 0.0 not in problem.shots
    assert res.energies[0] == pytest.approx(-1.0, rel=1e-12)


# ------------------------------------------------------------- sweep kernel

def _reference_sweep(q, h, y0, y1, qy0=None):
    """Step-by-step array form of the Numerov recurrence."""
    t = (h * h / 12.0) * np.asarray(q, dtype=float)
    y = np.empty(len(q))
    y[0], y[1] = y0, y1
    nodes, scale_log = 0, 0.0
    ya, yb = y1, y0
    ta, tb = t[1], t[0]
    for i in range(2, len(q)):
        tc = t[i]
        if i == 2 and qy0 is not None:
            lead = (h * h / 12.0) * qy0
        else:
            lead = yb * (1.0 + tb)
        yc = (2.0 * ya * (1.0 - 5.0 * ta) - lead) / (1.0 + tc)
        yb, ya = ya, yc
        tb, ta = ta, tc
        if abs(yc) > 1e250:
            f = abs(yc)
            yb /= f
            ya /= f
            y[:i] /= f
            scale_log += math.log(f)
        y[i] = ya
        if y[i - 1] * y[i] < 0.0:
            nodes += 1
    if y[0] * y[1] < 0.0:
        nodes += 1
    return y, nodes, scale_log


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("case", ["regular", "wall", "renormalised"])
def test_sweep_matches_reference_bit_for_bit(seed, case):
    rng = np.random.default_rng(seed)
    h = 0.01
    if case == "renormalised":
        # |q| h^2 ~ 4: growth by ~e^2 a step, renormalised every ~290 steps,
        # with single allowed points that flip signs
        q = -4e4 * rng.uniform(0.5, 1.5, 2000)
        q[rng.integers(0, 2000, 40)] *= -1.0
    else:
        q = rng.uniform(-3e3, 3e3, 1500)
    y0, y1 = (0.0, h) if case != "regular" else (rng.normal(), rng.normal())
    qy0 = rng.uniform(1.0, 300.0) if case == "wall" else None
    got = radial._numerov_sweep(q, h, y0, y1, qy0=qy0)
    with np.errstate(over="ignore"):
        want = _reference_sweep(q, h, y0, y1, qy0)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1] == want[1]
    if case == "renormalised":
        assert want[2] > 0.0


class _NoArithmetic(np.float64):
    """A numpy scalar that refuses arithmetic and comparison."""

    def _refuse(self, *args):
        raise AssertionError("numpy scalar arithmetic inside the Numerov loop")

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _refuse
    __truediv__ = __rtruediv__ = __neg__ = __abs__ = _refuse
    __lt__ = __le__ = __gt__ = __ge__ = _refuse


@pytest.mark.parametrize("case", ["regular", "wall"])
def test_sweep_converts_numpy_scalars_first(case):
    # the loop runs on Python floats only if the sweep converts its start
    # values before the first step
    h = 0.01
    q = np.random.default_rng(5).uniform(-3e3, 3e3, 500)
    y1, qy0 = 0.37, (120.0 if case == "wall" else None)
    got = radial._numerov_sweep(q, h, 0.0, _NoArithmetic(y1),
                                qy0=None if qy0 is None else _NoArithmetic(qy0))
    want = radial._numerov_sweep(q, h, 0.0, y1, qy0=qy0)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1] == want[1]


@pytest.mark.parametrize("case", ["regular", "wall"])
def test_sweep_same_bits_for_numpy_and_python_floats(case):
    # numpy-scalar h, y0, y1 and qy0 (a grid step, a numpy energy) and Python
    # floats give the same sweep, renormalised
    rng = np.random.default_rng(11)
    q = -4e4 * rng.uniform(0.5, 1.5, 2000)
    q[rng.integers(0, 2000, 40)] *= -1.0
    h, y1 = np.float64(0.01), np.float64(0.0099)
    y0 = np.float64(0.0) if case == "wall" else np.float64(rng.normal())
    qy0 = np.float64(rng.uniform(1.0, 300.0)) if case == "wall" else None
    got = radial._numerov_sweep(q, h, y0, y1, qy0=qy0)
    want = radial._numerov_sweep(q, float(h), float(y0), float(y1),
                                 qy0=None if qy0 is None else float(qy0))
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1] == want[1]
    with np.errstate(over="ignore"):
        assert _reference_sweep(q, float(h), float(y0), float(y1), qy0)[2] > 0.0


def test_shooting_problem_step_and_wall_are_python_floats(monkeypatch):
    # the grid step and the wall strength come from numpy arrays; the shot
    # energy may be a numpy scalar too, which the sweep converts itself
    seen = []
    sweep = radial._numerov_sweep

    def spy(q, h, y0, y1, *, qy0=None):
        seen.append((h, y0, y1, qy0))
        return sweep(q, h, y0, y1, qy0=qy0)

    monkeypatch.setattr(radial, "_numerov_sweep", spy)
    problem = radial._numerov_problem(U, 50.0, (1.0, scattering.r1_range(100.0)), None)
    problem.correct(np.float64(-40.0))
    h, _, _, qy0 = seen[0]
    assert type(h) is float and type(qy0) is float


def _reference_cap_index(q, h, cap=35.0):
    action = 0.0
    neg = np.flatnonzero(q < 0.0)
    if len(neg) == 0:
        return len(q) - 1
    for i in range(neg[0], len(q)):
        if q[i] < 0.0:
            action += math.sqrt(-q[i]) * h
            if action > cap:
                return i
        else:
            action = 0.0
    return len(q) - 1


def _cap_index(q, h):
    return radial._ShootingProblem(h * np.arange(len(q) + 1), None, None)._cap_index(q)[1]


_q_runs = st.lists(
    st.tuples(st.booleans(), st.integers(1, 60), st.floats(1.0, 4e4)), min_size=1, max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(runs=_q_runs, h=st.sampled_from([0.01, 0.05, 0.2]), seed=st.integers(0, 2**32 - 1))
def test_cap_index_matches_loop(runs, h, seed):
    # allowed and forbidden runs in any order, so the action restarts on
    # every re-entered forbidden region
    rng = np.random.default_rng(seed)
    q = np.concatenate([(1.0 if allowed else -1.0) * scale * rng.uniform(0.1, 1.0, n)
                        for allowed, n, scale in runs])
    assert _cap_index(q, h) == _reference_cap_index(q, h)


@settings(max_examples=200, deadline=None)
@given(runs=_q_runs, h=st.sampled_from([0.01, 0.05, 0.2]), seed=st.integers(0, 2**32 - 1))
def test_turning_point_starts_the_capped_run(runs, h, seed):
    # the matching point is where the run that holds the cap begins: the
    # forbidden tail in which the shot stops
    rng = np.random.default_rng(seed)
    q = np.concatenate([(1.0 if allowed else -1.0) * scale * rng.uniform(0.1, 1.0, n)
                        for allowed, n, scale in runs])
    m, cap = radial._ShootingProblem(h * np.arange(len(q) + 1), None, None)._cap_index(q)
    if q[cap] < 0.0:
        assert np.all(q[m:cap + 1] < 0.0) and (m == 0 or q[m - 1] >= 0.0)
    else:
        assert cap == len(q) - 1 and m == cap - 1


def _whole_run_cap_index(q, h, cap=35.0):
    """The cap index from one cumsum over each whole negative run."""
    neg = q < 0.0
    bounds = [0, *(np.flatnonzero(neg[1:] != neg[:-1]) + 1).tolist(), len(q)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if neg[lo]:
            action = np.cumsum(np.sqrt(-q[lo:hi]) * h)
            k = int(np.searchsorted(action, cap, side="right"))
            if k < hi - lo:
                return lo + k
    return len(q) - 1


_PIECE = radial._CAP_PIECE
_long_q_runs = st.lists(
    st.tuples(st.booleans(), st.integers(1, 3 * _PIECE), st.floats(1e-4, 4e4)),
    min_size=1, max_size=5,
)


@settings(max_examples=60, deadline=None)
@given(runs=_long_q_runs, h=st.sampled_from([0.001, 0.01, 0.05]),
       seed=st.integers(0, 2**32 - 1))
@example(runs=[(False, 3, 1.0), (True, 2 * _PIECE, 1e-4), (False, 5, 1.0),
               (True, 3 * _PIECE, 4e4)], h=0.01, seed=0)  # reached in a later run
@example(runs=[(True, 3 * _PIECE, 1e-4), (False, 10, 1.0), (True, _PIECE, 1e-3)],
         h=0.001, seed=1)  # never reached
def test_cap_index_matches_whole_run_cumsum(runs, h, seed):
    # runs up to three pieces long, so the cap falls in any piece of any run
    rng = np.random.default_rng(seed)
    q = np.concatenate([(1.0 if allowed else -1.0) * scale * rng.uniform(0.1, 1.0, n)
                        for allowed, n, scale in runs])
    assert _cap_index(q, h) == _whole_run_cap_index(q, h)


@pytest.mark.parametrize("cross", [
    _PIECE - 2, _PIECE - 1, _PIECE, _PIECE + 1, 2 * _PIECE - 1, 2 * _PIECE, 2 * _PIECE + 1,
])
@pytest.mark.parametrize("lead", [0, 7])
def test_cap_index_at_piece_boundaries(cross, lead):
    # a run of constant action a = 35/(cross + 1/2) per point crosses the cap
    # at index cross of the run; lead allowed points shift the run
    h = 0.01
    a = 35.0 / (cross + 0.5)
    q = np.concatenate([np.ones(lead), np.full(3 * _PIECE, -(a / h) ** 2)])
    assert _cap_index(q, h) == _whole_run_cap_index(q, h) == lead + cross


@pytest.mark.parametrize("n", [_PIECE // 2, _PIECE, 2 * _PIECE])
def test_cap_index_sum_equal_to_cap(n):
    # the action is exact in binary and reaches 35 exactly at point n - 1 of
    # the run (mid-piece, or the last point of a piece); the cap needs more
    # than 35, so point n is returned
    h = 2.0**-6
    a = 35.0 / n
    q = np.concatenate([np.ones(3), np.full(3 * _PIECE, -(a / h) ** 2)])
    action = np.cumsum(np.sqrt(-q[3:]) * h)
    assert action[n - 1] == 35.0
    assert _cap_index(q, h) == _whole_run_cap_index(q, h) == 3 + n


def test_cap_index_in_a_later_run():
    # the first run stops just short of the cap; the second starts from zero
    h = 0.01
    first = np.full(2 * _PIECE, -(34.9 / (2 * _PIECE) / h) ** 2)
    second = np.full(_PIECE + 300, -(35.0 / (_PIECE + 100.5) / h) ** 2)
    q = np.concatenate([np.ones(4), first, np.ones(50), second])
    assert _cap_index(q, h) == _whole_run_cap_index(q, h) == 4 + 2 * _PIECE + 50 + _PIECE + 100
    assert _cap_index(q[:-200], h) == _whole_run_cap_index(q[:-200], h) == len(q) - 201


# ------------------------------------------------------------- domain errors

_BAD = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("nu0", _BAD + (-5.0, 0.0))
def test_bad_nu0_rejected(nu0):
    with pytest.raises(DomainError):
        radial.bound_states_numerov(U, nu0, (1.0, 3.0), 1)
    with pytest.raises(DomainError):
        radial.count_negative_levels(U, nu0, (1.0, 3.0))
    with pytest.raises(DomainError):
        radial.zero_energy_exact(np.array([1.0, 2.0]), nu0, 1.0, 0.0)
    with pytest.raises(DomainError):
        radial.numerov_integrate(U, 0.0, np.linspace(0.5, 1.0, 11), (0.0, 1e-3), nu0=nu0)


@pytest.mark.parametrize("window", [(math.nan, 3.0), (1.0, math.nan), (1.0, math.inf),
                                    (math.inf, 3.0), (3.0, 2.0), (1.0, 0.5),
                                    (1.0, 1.35e154), (1.0, 1e200), (1.0, 1e250)])
def test_bad_window_rejected(window):
    # past R = e^{354.89} = 1.34e154, e^{2x} overflows and Q is NaN
    with pytest.raises(DomainError):
        radial.bound_states_numerov(U, 20.0, window, 1)
    with pytest.raises(DomainError):
        radial.count_negative_levels(U, 20.0, window)


@pytest.mark.parametrize("h", _BAD + (-1e-3, 0.0))
def test_bad_step_rejected(h):
    with pytest.raises(DomainError):
        radial.bound_states_numerov(U, 20.0, (1.0, 3.0), 1, h=h)
    with pytest.raises(DomainError):
        radial.count_negative_levels(U, 20.0, (1.0, 3.0), h=h)
    with pytest.raises(DomainError):
        radial.bound_states_1d(lambda x: x * x, (-6.0, 6.0), 1, h=h)


@pytest.mark.parametrize("x_hi", [355.0, 400.0])
def test_numerov_grid_past_double_range_rejected(x_hi):
    # e^{2x} overflows past x = ln(DBL_MAX)/2 = 354.89
    with pytest.raises(DomainError):
        radial.numerov_integrate(U, 0.0, np.linspace(300.0, x_hi, 2001), (0.0, 1e-3), nu0=1.0)


@pytest.mark.parametrize("bad", _BAD)
def test_bad_values_rejected(bad):
    x = np.linspace(0.5, 1.0, 11)
    with pytest.raises(DomainError):
        radial.numerov_integrate(U, bad, x, (0.0, 1e-3), nu0=NU0)
    with pytest.raises(DomainError):
        radial.numerov_integrate(U, 0.0, x, (bad, 1e-3), nu0=NU0)
    with pytest.raises(DomainError):
        radial.zero_energy_exact(np.array([1.0, bad]), NU0, 1.0, 0.0)
    with pytest.raises(DomainError):
        radial.zero_energy_exact(x, NU0, bad, 0.0)
    with pytest.raises(DomainError):
        radial.bound_states_1d(lambda t: t * t, (-6.0, bad), 1)

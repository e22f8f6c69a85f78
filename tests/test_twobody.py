import math
import random

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planar3b import specfun, twobody
from planar3b.errors import DomainError, NoPoleError, TMatrixPoleError

GAMMA = specfun.EULER_GAMMA


def test_mass_config_reduced_mass():
    mc = twobody.MassConfig(m=1.0, M=20.0)
    assert mc.mu == pytest.approx(2.0 * 1.0 * 20.0 / (1.0 + 40.0))
    assert mc.nu0 == pytest.approx(20.0 / mc.mu)
    # heavy limit: nu0 = 1/2 + M/m -> M/m
    heavy = twobody.MassConfig(m=1.0, M=1e7)
    assert heavy.nu0 == pytest.approx(1e7, rel=1e-6)


def test_mass_config_nu0_above_one():
    assert twobody.MassConfig(m=1.0, M=0.7).nu0 > 1.0


def test_params_reject_nan_and_inf():
    nan, inf = math.nan, math.inf
    for kw in ({"a0": nan}, {"a0": inf}, {"a0": 10.0, "a1_inv": nan},
               {"a0": 10.0, "a1_inv": inf}, {"a0": 10.0, "r0": nan}):
        with pytest.raises(DomainError):
            twobody.TwoBodyParams(**kw)
    for a1 in (nan, -inf, 0.0):
        with pytest.raises(DomainError):
            twobody.TwoBodyParams.from_a1(a0=10.0, a1=a1)
    assert twobody.TwoBodyParams.from_a1(a0=10.0, a1=inf).a1_inv == 0.0
    with pytest.raises(DomainError):
        twobody.MassConfig(m=nan, M=1.0)


# ----------------------------------------------------------- phase shifts

def test_cot_delta0_dimer_pole_location():
    a0 = 7.0
    kappa = 2.0 * math.exp(-GAMMA) / a0
    assert twobody.cot_delta0(kappa, a0) == pytest.approx(0.0, abs=1e-14)


def test_cot_delta0_log_unit():
    a0 = 3.0
    kappa = 2.0 * math.exp(-GAMMA + 1.0) / a0
    assert twobody.cot_delta0(kappa, a0) == pytest.approx(2.0 / math.pi, rel=1e-13)


def test_cot_delta0_value():
    # (2/pi)(gamma + ln 0.05)
    want = (2.0 / math.pi) * (GAMMA + math.log(0.05))
    assert twobody.cot_delta0(0.01, 10.0) == pytest.approx(want, rel=1e-13)
    assert want == pytest.approx(-1.539, abs=1e-3)


def test_cot_delta1_resonance_unit_kappa():
    assert twobody.cot_delta1(1.0, 0.0) == 0.0


def test_cot_delta1_value():
    want = (2.0 / math.pi) * (0.01 / 0.01 + math.log(0.1))
    assert twobody.cot_delta1(0.1, 0.01) == pytest.approx(want, rel=1e-13)
    assert want == pytest.approx(-0.829, abs=1e-3)


def test_cot_delta1_fixed_point_pole():
    # kappa = exp(-a1_inv/kappa^2) is the defining relation of the pole
    a1_inv = 0.01
    kappa = twobody.pwave_pole(a1_inv)
    assert kappa == pytest.approx(math.exp(-a1_inv / kappa**2), rel=1e-11)
    assert twobody.cot_delta1(kappa, a1_inv) == pytest.approx(0.0, abs=1e-12)


# ----------------------------------------------------------- T-matrix

def test_t_matrix_pole_flag():
    params = twobody.TwoBodyParams(a0=10.0, a1_inv=0.01)
    kappa1 = twobody.pwave_pole(0.01)
    with pytest.raises(TMatrixPoleError):
        twobody.t_matrix(1, kappa1, params)


def test_t_matrix_log_dominance():
    params = twobody.TwoBodyParams(a0=10.0)
    t_far = abs(twobody.t_matrix(0, 100.0, params))
    t_near = abs(twobody.t_matrix(0, 10.0, params))
    assert t_far < t_near
    assert t_far == pytest.approx(0.5 / abs(GAMMA + math.log(500.0)), rel=1e-12)


def test_t_matrix_p_wave_value():
    params = twobody.TwoBodyParams(a0=10.0, a1_inv=0.0)
    cot = (2.0 / math.pi) * math.log(0.5)
    assert twobody.t_matrix(1, 0.5, params) == pytest.approx(-1.0 / (math.pi * cot), rel=1e-13)


# ----------------------------------------------------------- dimer energies

def test_dimer_resonance_sentinels():
    d = twobody.dimer_energies(twobody.TwoBodyParams(a0=10.0, a1_inv=0.0))
    assert d.eps1 == 0.0
    assert d.kappa1 == 0.0
    assert math.isinf(d.R1)


def test_dimer_R1_at_a1_100():
    d = twobody.dimer_energies(twobody.TwoBodyParams.from_a1(a0=10.0, a1=100.0))
    assert d.R1 == pytest.approx(math.sqrt(50.0 * math.log(50.0)), rel=1e-12)
    assert d.R1 == pytest.approx(13.99, abs=0.01)


def test_dimer_eps0_at_a0_10():
    d = twobody.dimer_energies(twobody.TwoBodyParams(a0=10.0))
    assert d.eps0 == pytest.approx(-2.0 * math.exp(-2.0 * GAMMA) / 100.0, rel=1e-13)
    assert d.eps0 == pytest.approx(-6.30e-3, abs=5e-5)


def test_eps0_quarter_scaling():
    d1 = twobody.dimer_energies(twobody.TwoBodyParams(a0=5.0))
    d2 = twobody.dimer_energies(twobody.TwoBodyParams(a0=10.0))
    assert d2.eps0 / d1.eps0 == pytest.approx(0.25, rel=1e-14)


def test_pole_energy_vs_closed_form_convergence():
    # The closed form misses a ln(ln(a1/2)) correction, so the relative
    # deviation is ln(ln)/(ln + ln(ln)) -- about 30% at a1 = 100 -- and
    # decays only logarithmically.  Assert the predicted law and the decay.
    prev = None
    for a1 in (1e2, 1e4, 1e8, 1e16):
        d = twobody.dimer_energies(twobody.TwoBodyParams.from_a1(a0=10.0, a1=a1))
        rel = abs(d.eps1_pole / d.eps1 - 1.0)
        lg = math.log(0.5 * a1)
        predicted = math.log(lg) / (lg + math.log(lg))
        assert rel == pytest.approx(predicted, rel=0.25)
        if prev is not None:
            assert rel < prev
        prev = rel
    assert d.eps1_pole == pytest.approx(-0.5 * d.kappa1**2, rel=1e-14)


def test_no_pole_for_small_a1():
    with pytest.raises(NoPoleError):
        twobody.pwave_pole(1.0 / 4.0)  # a1 = 4 < 2e


def test_r1_bound_validation():
    with pytest.raises(DomainError):
        twobody.TwoBodyParams(a0=10.0, r0=1.0)  # r0 < 2 exp(-gamma) = 1.1229...
    twobody.TwoBodyParams(a0=10.0, r0=twobody.R0_MIN * 1.0000001)


@given(st.floats(min_value=0.5, max_value=100.0))
@settings(max_examples=40, deadline=None)
def test_domain_errors_nonpositive_kappa(a0):
    with pytest.raises(DomainError):
        twobody.cot_delta0(0.0, a0)
    with pytest.raises(DomainError):
        twobody.cot_delta0(-1.0, a0)
    with pytest.raises(DomainError):
        twobody.cot_delta1(0.0, 0.1)


def test_pwave_pole_to_the_last_double():
    # kappa1 closes to adjacent doubles: within 4.5e-16 relative of the
    # 60-digit root of a1_inv/k^2 + ln k, for a1 from 6 (just above 2e) to 1e8
    rng = random.Random(151)
    for _ in range(300):
        a1_inv = 1.0 / math.exp(rng.uniform(math.log(6.0), math.log(1e8)))
        kappa = twobody.pwave_pole(a1_inv)
        with mp.workdps(60):
            exact = mp.findroot(lambda k: mp.mpf(a1_inv) / k**2 + mp.log(k), mp.mpf(kappa))
            assert abs(kappa - exact) / exact <= 4.5e-16, (1.0 / a1_inv, kappa)


PARAMS = twobody.TwoBodyParams.from_a1(a0=10.0, a1=100.0)


@pytest.mark.parametrize("call", [
    lambda: twobody.cot_delta0(math.nan, 10.0),
    lambda: twobody.cot_delta0(math.inf, 10.0),
    lambda: twobody.cot_delta0(0.1, math.nan),
    lambda: twobody.cot_delta1(math.nan, 0.01),
    lambda: twobody.cot_delta1(math.inf, 0.01),
    lambda: twobody.cot_delta1(0.1, math.nan),
    lambda: twobody.cot_delta1(0.1, math.inf),
    lambda: twobody.t_matrix(0, math.nan, PARAMS),
    lambda: twobody.t_matrix(1, math.nan, PARAMS),
    lambda: twobody.t_matrix(1, math.inf, PARAMS),
    lambda: twobody.pwave_pole(math.nan),
    lambda: twobody.pwave_pole(-1.0),
    lambda: twobody.pwave_pole(math.inf),
])
def test_twobody_rejects_non_finite(call):
    with pytest.raises(DomainError):
        call()

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planar3b import scattering as S
from planar3b.errors import DomainError, TMatrixPoleError
from planar3b.specfun import EULER_GAMMA
from planar3b.wkb import count_bound_states


# ------------------------------------------------------------ cross-section

def test_cross_section_maximum():
    # k A0 e^gamma / 2 = 1 kills the log: sigma0 = 4/k
    A0 = 14.0
    k = 2.0 * math.exp(-EULER_GAMMA) / A0
    assert S.cross_section(k, A0) == pytest.approx(4.0 / k, rel=1e-13)


def test_cross_section_threshold_decay():
    A0 = 14.0
    ks = [1e-3, 1e-5, 1e-7]
    vals = [S.cross_section(k, A0) * k for k in ks]
    # k*sigma0 = pi^2/(pi^2/4 + ln^2 ...) decays monotonically toward threshold
    assert vals[0] > vals[1] > vals[2]


def test_cross_section_value():
    k, A0 = 0.01, 14.0
    lg = math.log(0.5 * k * A0) + EULER_GAMMA
    want = (math.pi**2 / k) / (math.pi**2 / 4.0 + lg * lg)
    assert S.cross_section(k, A0) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("k, A0", [(math.nan, 14.0), (math.inf, 14.0), (0.0, 14.0),
                                   (0.01, math.nan), (0.01, math.inf), (0.01, -1.0)])
def test_cross_section_rejects_bad_inputs(k, A0):
    with pytest.raises(DomainError):
        S.cross_section(k, A0)


def test_cross_section_peak_scales_inverse_A0():
    # the peak in k sits at 2 e^-gamma / A0, so it scales as 1/A0
    for A0 in (5.0, 50.0):
        k_star = 2.0 * math.exp(-EULER_GAMMA) / A0
        s_star = S.cross_section(k_star, A0) * k_star
        for k in (k_star * 0.5, k_star * 2.0):
            assert S.cross_section(k, A0) * k < s_star


def test_cross_section_domain():
    with pytest.raises(DomainError):
        S.cross_section(0.0, 1.0)
    with pytest.raises(DomainError):
        S.cross_section(1.0, -1.0)


# ------------------------------------------------------------ A0

def test_A0_equals_R1_at_integer_Nb():
    nu0 = 100.0
    a1 = 2.0 * math.exp(math.pi**2 * 3.0**2 / (2.0 * nu0))  # N_b = 3 exactly
    nb = count_bound_states(a1, nu0)
    assert nb == pytest.approx(3.0, abs=1e-12)
    assert S.atom_molecule_A0(a1, nu0) == pytest.approx(S.r1_range(a1), rel=1e-10)


def test_A0_diverges_at_resonance():
    nu0 = 20.0
    tab = S.resonance_positions((2, 2), nu0)
    a1_res = tab.rows[0].a1_exact
    r1 = S.r1_range(a1_res)

    def log_dev(v):
        return math.inf if v == 0.0 or math.isinf(v) else abs(math.log(v / r1))

    above = S.atom_molecule_A0(a1_res * (1.0 + 1e-6), nu0)
    below = S.atom_molecule_A0(a1_res * (1.0 - 1e-6), nu0)
    # |ln(A0/R1)| blows up on both sides (A0 -> inf on one, -> 0 on the other)
    assert log_dev(above) > 1e3
    assert log_dev(below) > 1e3
    assert above > 1e3 * r1 or below > 1e3 * r1


def test_A0_value_at_a1_100():
    nu0 = 20.0
    nb = count_bound_states(100.0, nu0)
    cot = 1.0 / math.tan(math.pi * nb)
    want = S.r1_range(100.0) * math.exp(-math.pi * nb / (2.0 * nu0 * cot))
    assert S.atom_molecule_A0(100.0, nu0) == pytest.approx(want, rel=1e-13)
    assert nb == pytest.approx(3.98, abs=0.01)


def test_A0_flags_half_integer():
    nu0 = 50.0
    a1 = 2.0 * math.exp(math.pi**2 * 2.5**2 / (2.0 * nu0))
    with pytest.raises(TMatrixPoleError):
        S.atom_molecule_A0(a1, nu0)


def test_A0_continuous_between_resonances():
    nu0 = 30.0
    tab = S.resonance_positions((2, 3), nu0)
    lo, hi = tab.rows[0].a1_exact, tab.rows[1].a1_exact
    last = None
    for t in (0.05, 0.2, 0.4, 0.6, 0.8, 0.95):
        a1 = lo * (hi / lo) ** t
        val = S.atom_molecule_A0(a1, nu0)
        assert math.isfinite(val) and val > 0
        last = val


# ------------------------------------------------------------ resonance table

def test_resonance_round_trip():
    nu0 = 100.0
    tab = S.resonance_positions((1, 10), nu0)
    for row in tab.rows:
        assert row.N_b_at == pytest.approx(row.n + 0.5, abs=1e-12)


def test_resonance_value_nu0_100_n5():
    tab = S.resonance_positions((5, 5), 100.0)
    assert tab.rows[0].a1_exact == pytest.approx(
        2.0 * math.exp(math.pi**2 * 30.25 / 200.0), rel=1e-13
    )


def test_resonance_asymptotic_ratio():
    nu0 = 100.0
    tab = S.resonance_positions((20, 20), nu0)
    row = tab.rows[0]
    ratio = math.log(row.a1_exact) / (math.pi**2 * 400.0 / (2.0 * nu0))
    assert ratio == pytest.approx(1.0, abs=0.10)
    far = S.resonance_positions((60, 60), 100.0).rows[0]
    ratio_far = math.log(far.a1_exact) / (math.pi**2 * 3600.0 / 200.0)
    assert abs(ratio_far - 1.0) < abs(ratio - 1.0)


def test_resonance_log_spacing():
    nu0 = 40.0
    tab = S.resonance_positions((1, 6), nu0)
    for r0, r1 in zip(tab.rows, tab.rows[1:]):
        gap = math.log(r1.a1_exact) - math.log(r0.a1_exact)
        assert gap == pytest.approx(math.pi**2 * (r0.n + 1.0) / nu0, rel=1e-12)


def test_resonance_overflow_capped():
    tab = S.resonance_positions((1, 60), 1.0)
    assert any(r.capped for r in tab.rows)
    capped = [r for r in tab.rows if r.capped]
    assert all(math.isinf(r.a1_exact) for r in capped)
    assert all(r.N_b_at == r.n + 0.5 for r in capped)


@given(st.integers(min_value=1, max_value=12), st.floats(min_value=5.0, max_value=500.0))
@settings(max_examples=60, deadline=None)
def test_resonance_rows_increasing(n, nu0):
    tab = S.resonance_positions((n, n + 2), nu0)
    a1s = [r.a1_exact for r in tab.rows]
    assert a1s == sorted(a1s) and a1s[0] < a1s[1] < a1s[2]


@pytest.mark.parametrize("call", [
    lambda: S.atom_molecule_A0(math.nan, 10.0),
    lambda: S.atom_molecule_A0(math.inf, 10.0),
    lambda: S.atom_molecule_A0(100.0, math.nan),
    lambda: S.r1_range(math.nan),
    lambda: S.r1_range(math.inf),
    lambda: S.resonance_positions((1, 3), math.nan),
    # resonance indices are integers >= 1, as the level indices of wkb
    lambda: S.resonance_positions([1.5], 20.0),
    lambda: S.resonance_positions([math.nan], 20.0),
    lambda: S.resonance_positions((1, 2.5), 20.0),
    lambda: S.resonance_positions([0], 20.0),
])
def test_scattering_rejects_non_finite(call):
    with pytest.raises(DomainError):
        call()


def test_resonance_positions_rejects_infinite_nu0():
    # the error names nu0, not the a1 = 2 that nu0 = inf leads to
    with pytest.raises(DomainError, match="nu0"):
        S.resonance_positions((1, 3), math.inf)

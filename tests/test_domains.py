"""The closed forms and the radial solutions over the whole double range.

Each argument is drawn log-uniformly from the smallest subnormal 5e-324 to
the largest double, with its negative, zero, NaN and +/-inf mixed in.
Under warnings turned into errors, every call must return finite values
or raise one of the package's own exceptions (``planar3b.errors``).
"""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planar3b import errors, potentials, radial, twobody
from planar3b.potentials import UnifiedPotential
from planar3b.twobody import TwoBodyParams

PLANAR3B_ERRORS = tuple(obj for obj in vars(errors).values()
                        if isinstance(obj, type) and issubclass(obj, Exception))
EDGES = [5e-324, 1e-323, sys.float_info.min, 1.0, sys.float_info.max]

# mantissa in [0.5, 1) times 2^e covers 2^-1074 = 5e-324 up to DBL_MAX
POSITIVE = st.one_of(
    st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1073, 1024)),
    st.sampled_from(EDGES),
)
ARG = st.one_of(POSITIVE, POSITIVE.map(lambda v: -v),
                st.sampled_from([0.0, math.nan, math.inf, -math.inf]))
#: a1_inv = 0 is the exact resonance, so it is drawn as often as a sign
A1_INV = st.one_of(ARG, st.just(0.0))
CLOSED_FORM = settings(max_examples=400, deadline=None)


def finite_or_error(call):
    """call() under warnings as errors: its result, or None where it
    raised a planar3b error.  Any other exception fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call()
        except PLANAR3B_ERRORS:
            return None


def params(a0, a1_inv):
    return TwoBodyParams(a0=a0, a1_inv=a1_inv)


@given(ARG, ARG, A1_INV)
@CLOSED_FORM
def test_cot_forms(kappa, a0, a1_inv):
    for call in (lambda: twobody.cot_delta0(kappa, a0),
                 lambda: twobody.cot_delta1(kappa, a1_inv)):
        out = finite_or_error(call)
        assert out is None or math.isfinite(out), out


@given(st.sampled_from([0, 1]), ARG, ARG, A1_INV)
@CLOSED_FORM
def test_t_matrix(order, kappa, a0, a1_inv):
    out = finite_or_error(lambda: twobody.t_matrix(order, kappa, params(a0, a1_inv)))
    assert out is None or math.isfinite(out), out


@given(ARG, ARG, ARG, A1_INV, st.sampled_from(["plus", "minus", "zero"]))
@CLOSED_FORM
def test_determinant_residual(xi, R, a0, a1_inv, block):
    out = finite_or_error(
        lambda: potentials.determinant_residual(xi, R, params(a0, a1_inv), block))
    assert out is None or math.isfinite(out), out


@given(ARG, A1_INV)
@CLOSED_FORM
def test_dimer_energies(a0, a1_inv):
    out = finite_or_error(lambda: twobody.dimer_energies(params(a0, a1_inv)))
    if out is None:
        return
    values = [out.eps0, out.eps1, out.kappa1, out.R1, out.eps1_pole]
    if a1_inv == 0.0:  # the documented R1 = inf at exact resonance
        assert out.R1 == math.inf
        values.remove(math.inf)
    assert all(math.isfinite(v) for v in values), out


@given(ARG, st.sampled_from([+1, -1]), st.sampled_from(["small", "large"]))
@CLOSED_FORM
def test_swave_asymptote(x, sign, regime):
    out = finite_or_error(lambda: potentials.swave_asymptote(x, sign, regime))
    assert out is None or math.isfinite(out), out


@given(ARG)
@CLOSED_FORM
def test_resonance_closed_forms_and_asymptote(R):
    for f in (potentials.xi_I0_closed, potentials.xi_II0_closed, potentials.v_unified):
        out = finite_or_error(lambda: f(R))
        assert out is None or math.isfinite(out), (f.__name__, out)


# x = ln R up to 354.89, where e^{2x} is still a double
X = st.floats(math.log(5e-324), math.log(354.89)).map(math.exp)
NU0 = st.floats(math.log(0.5), math.log(1e6)).map(math.exp)


@given(st.lists(X, min_size=1, max_size=12), NU0, ARG, ARG)
@settings(max_examples=200, deadline=None)
def test_zero_energy_exact(x, nu0, A, B):
    out = finite_or_error(lambda: radial.zero_energy_exact(np.sort(x), nu0, A, B))
    assert out is None or np.all(np.isfinite(out.values)), out


@pytest.mark.parametrize("x_hi, nu0", [(354.0, 0.5), (354.8, 0.5), (354.8, 40.0),
                                       (354.89, 1e6)])
def test_zero_energy_exact_warning_free_at_large_x(x_hi, nu0):
    # the solution's norm, with its e^{2x} weight, overflowed here
    x = np.array([1.0, 100.0, x_hi])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = radial.zero_energy_exact(x, nu0, 1.0, 1.0)
    assert np.all(np.isfinite(out.values))


@pytest.mark.parametrize("E", [-0.3, -0.1])
def test_numerov_integrate_renormalising_sweep_warning_free(E):
    # the sweep renormalises on the way and ends near |y| ~ 1e207 (E = -0.3);
    # the norm of those values overflowed at y * y
    x = np.linspace(1.0, 8.0, 200001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = radial.numerov_integrate(UnifiedPotential(), E, x, (0.0, 1e-3), nu0=1.0)
    y = out.values
    assert y.shape == x.shape and np.all(np.isfinite(y))
    assert y[1] < 1e-3  # the start carries the renormalisations
    assert out.node_count == 0 and np.all(np.diff(y[-1000:]) > 0.0)

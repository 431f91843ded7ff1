"""Public entry points at the edges of their accepted domains, with every
RuntimeWarning (numpy's floating-point warnings) raised as an error: the
Marcum Q1 complement for any finite a, b >= 0, the received density at any
finite radius and any loading in (0, 1], subnormal ones included, the
backoff approximation and the exact SE at subnormal loadings, and the link
budget of build_scenario, which names its arguments when it leaves the float
range."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from ofdmsee import (
    build_scenario, clip_probability, marcum_q1_complement, noise_entropy, pdf_radial, se, se_curve, se_ibo,
    se_ideal
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)

# every finite float of the range, subnormals included
nonnegative = st.floats(min_value=0.0, max_value=1e308)
loading = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)


@SETTINGS
@given(a=nonnegative, b=nonnegative)
@example(a=5e18, b=3.0)
@example(a=1e308, b=3.0)
@example(a=1e308, b=1e308)
@example(a=1e17, b=1e17 + 16)
def test_marcum_complement_lies_in_the_unit_interval(a, b):
    c = marcum_q1_complement(a, b)
    assert 0.0 <= c <= 1.0


def test_marcum_complement_limits_far_from_the_ridge():
    # past a - b = 40 the integrand underflows (0.0); past b - a = 9 the
    # complement rounds to 1.0, b - a taken as the float difference
    a = np.asarray([5e18, 1e308, 1e150, 1e17, 0.0])
    b = np.asarray([3.0, 0.0, 1e3, 1e17 + 16, 1e308])
    assert marcum_q1_complement(a, b).tolist() == [0.0, 0.0, 0.0, 1.0, 1.0]


@SETTINGS
@given(r=nonnegative, xi=loading)
@example(r=1e150, xi=0.3)
@example(r=1e308, xi=0.3)
@example(r=1.0, xi=5e-324)
def test_density_is_finite_and_nonnegative(scenario, r, xi):
    f = pdf_radial(r, xi, scenario)
    assert math.isfinite(f) and f >= 0.0


def test_density_takes_one_loading(scenario):
    # an array of loadings, an empty one too, is refused by name
    for xi in (np.array([]), np.array([0.3, 0.4]), [0.3]):
        with pytest.raises(ValueError, match="xi must be one loading"):
            pdf_radial(1.0, xi, scenario)
    assert pdf_radial(np.array([]), 0.3, scenario).shape == (0,)
    assert pdf_radial(1.0, np.float64(0.3), scenario) == pdf_radial(1.0, 0.3, scenario)


@SETTINGS
@given(xi=loading)
@example(xi=1e-310)
@example(xi=1e-320)
def test_backoff_approximation_is_finite(scenario, xi):
    # the penalty is 0 where the clip probability is, and the formula's own
    # float wherever it is not
    got = se_ibo(xi, scenario)
    assert math.isfinite(got)
    clip = clip_probability(xi)
    if clip > 0.0:
        want = se_ideal(xi, scenario) + clip * (1.0 / (np.asarray(xi) * math.log(2.0)) + noise_entropy(scenario))
        assert got == float(want)
    else:
        assert got == se_ideal(xi, scenario)


def test_backoff_approximation_on_an_array_of_subnormal_loadings(scenario):
    xis = np.array([5e-324, 1e-320, 1e-310, 1e-3, 0.5])
    got = se_ibo(xis, scenario)
    assert np.isfinite(got).all()
    assert got[-1] == se_ibo(0.5, scenario)


@pytest.mark.parametrize("xi", [5e-324, 1e-320, 1e-310])
def test_se_at_subnormal_loadings(scenario, xi):
    # b is inf there and the density the noise's Gaussian: no information
    assert se(xi, scenario) == 0.0
    assert se_curve([xi, 0.5], scenario)[0] == 0.0


@pytest.mark.parametrize(
    "g_db, d_km, name",
    [(-math.inf, 0.2, "g_db"), (math.inf, 0.2, "g_db"), (math.nan, 0.2, "g_db"), (1e308, 0.2, "g_db"),
     (-1e308, 0.2, "g_db"), (5.0, 1e-320, "d_km"), (5.0, 1e300, "d_km")],
)
def test_link_budget_outside_the_float_range_names_its_arguments(pa_low, g_db, d_km, name):
    with pytest.raises(ValueError, match=name):
        build_scenario(g_db, 3.76, d_km, -174.0, 1e7, pa_low)


@SETTINGS
@given(
    g_db=st.floats(allow_nan=True, allow_infinity=True),
    alpha=st.floats(min_value=-1e3, max_value=1e3),
    d_km=st.floats(min_value=0.0, max_value=1e308, exclude_min=True),
    psd=st.floats(min_value=-1e4, max_value=1e4),
)
def test_link_budget_is_a_scenario_or_a_value_error(pa_low, g_db, alpha, d_km, psd):
    try:
        sc = build_scenario(g_db, alpha, d_km, psd, 1e7, pa_low)
    except ValueError as exc:
        assert "noise variance of g_db, alpha, d_km and noise_psd_dbm_hz" in str(exc)
        return
    assert math.isfinite(sc.noise_variance) and sc.noise_variance > 0.0

"""Energy-efficiency invariants over the whole parameter space: peak SNR from
-30 to +100 dB, loading from 1e-6 to 1, 1 to 4 Doherty ways, every
transmitter preset and every embedded datasheet row."""

import math
from dataclasses import replace

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from ofdmsee import (
    BS_PRESETS,
    LinkScenario,
    ee,
    ee_ideal,
    ee_linear,
    embedded_datasheet,
    pc_nonlinear,
)

# each example costs one se() call (a few ms); derandomize makes every run
# draw the same examples
SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# slack on the practical EE, in b/s/Hz of spectral efficiency: the exact
# se() may exceed log2(1 + gamma*xi) by its quadrature error, which is
# absolute (2e-14 in 2,000 random draws) and so large relative to a tiny se
SE_SLACK = 1e-10


@st.composite
def links(draw):
    """(xi, scenario, power, n_ways): an embedded PA at a peak SNR, with a
    preset's site overhead sized to that PA, as the command line builds it."""
    spec = draw(st.sampled_from(embedded_datasheet()))
    gamma_db = draw(st.floats(min_value=-30.0, max_value=100.0))
    xi = draw(st.floats(min_value=-6.0, max_value=0.0).map(lambda e: 10.0**e))
    scenario = LinkScenario(
        bandwidth=1e7,
        noise_variance=spec.p_max_out / 10.0 ** (gamma_db / 10.0),
        gain=spec.gain,
        p_max_out=spec.p_max_out,
    )
    power = replace(BS_PRESETS[draw(st.sampled_from(sorted(BS_PRESETS)))], p_max_out=spec.p_max_out)
    return xi, scenario, power, draw(st.integers(min_value=1, max_value=4))


@SETTINGS
@given(link=links())
def test_ee_is_bounded_by_the_linear_and_ideal_amplifiers(link):
    xi, sc, power, n_ways = link
    practical = ee(xi, sc, power, n_ways=n_ways)
    linear = ee_linear(xi, sc, power, n_ways=n_ways)
    pc = pc_nonlinear(xi, power, n_ways=n_ways)
    assert math.isfinite(practical) and practical > 0.0
    assert practical <= linear + sc.bandwidth * SE_SLACK / pc
    assert linear <= ee_ideal(xi, sc, power)

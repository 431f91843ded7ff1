"""Energy-efficiency invariants over the whole parameter space: peak SNR from
-30 to +100 dB, loading from 1e-6 to 1, 1 to 4 Doherty ways, every
transmitter preset and every embedded datasheet row, for one amplifier and
for a switching schedule that runs one of its two arms full time."""

import math
from dataclasses import replace

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from ofdmsee import (
    BS_PRESETS,
    Duplex,
    LinkScenario,
    PasConfig,
    ee,
    ee_ideal,
    ee_linear,
    embedded_datasheet,
    pa_with_loss,
    pas_ee,
    pc_nonlinear,
    switched_arm,
)

# each example costs one se() call (a few ms); derandomize makes every run
# draw the same examples
SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# slack on the practical EE, in b/s/Hz of spectral efficiency: the exact
# se() may exceed log2(1 + gamma*xi) by its quadrature error, which is
# absolute (2e-14 in 2,000 random draws) and so large relative to a tiny se
SE_SLACK = 1e-10


loadings = st.floats(min_value=-6.0, max_value=0.0).map(lambda e: 10.0**e)
ways = st.integers(min_value=1, max_value=4)
presets = st.sampled_from(sorted(BS_PRESETS))


@st.composite
def pa_links(draw):
    """(spec, scenario): an embedded PA at a peak SNR over 10 MHz."""
    spec = draw(st.sampled_from(embedded_datasheet()))
    gamma_db = draw(st.floats(min_value=-30.0, max_value=100.0))
    scenario = LinkScenario(
        bandwidth=1e7,
        noise_variance=spec.p_max_out / 10.0 ** (gamma_db / 10.0),
        gain=spec.gain,
        p_max_out=spec.p_max_out,
    )
    return spec, scenario


@st.composite
def links(draw):
    """(xi, scenario, power, n_ways): an embedded PA at a peak SNR, with a
    preset's site overhead sized to that PA, as the command line builds it."""
    spec, scenario = draw(pa_links())
    power = replace(BS_PRESETS[draw(presets)], p_max_out=spec.p_max_out)
    return draw(loadings), scenario, power, draw(ways)


@st.composite
def one_arm_schedules(draw):
    """(xi, config, arm): a two-arm schedule whose kappa (0 or 1) runs one
    arm full time, with any insertion loss, duplex and dead time."""
    low, high = (switched_arm(*draw(pa_links()), BS_PRESETS[draw(presets)]) for _ in range(2))
    kappa = draw(st.sampled_from([0.0, 1.0]))
    config = PasConfig(
        pa_low=low,
        pa_high=high,
        frame_length=0.01,
        frame_count=draw(st.integers(min_value=1, max_value=40)),
        kappa=kappa,
        insertion_loss_db=draw(st.floats(min_value=0.0, max_value=3.0)),
        switching_time=draw(st.floats(min_value=0.0, max_value=1e-3)),
        duplex=draw(st.sampled_from(Duplex)),
        n_ways=draw(ways),
    )
    return draw(loadings), config, low if kappa == 1.0 else high


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


@SETTINGS
@given(schedule=one_arm_schedules())
def test_one_arm_schedule_is_that_arms_ee(schedule):
    # no dead time is charged and the idle arm draws nothing, so the
    # schedule's EE is the single-amplifier EE of the running arm on its
    # link with the switch's insertion loss folded in
    xi, config, arm = schedule
    lossy = pa_with_loss(arm.scenario, config.insertion_loss_db)
    assert pas_ee(xi, config) == ee(xi, lossy, arm.power, n_ways=config.n_ways)

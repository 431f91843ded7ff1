"""Energy-efficiency invariants over the whole parameter space: peak SNR from
-30 to +100 dB, loading from 1e-6 to 1, 1 to 4 Doherty ways, every
transmitter preset and every embedded datasheet row, for one amplifier and
for a switching schedule that runs one of its two arms full time."""

import math
from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st

from ofdmsee import (
    BS_PRESETS,
    Duplex,
    InfeasibleError,
    LinkScenario,
    PasConfig,
    doherty_pieces,
    ee,
    ee_ideal,
    ee_linear,
    embedded_datasheet,
    find_pa,
    pa_with_loss,
    pas_ee,
    pc_nonlinear,
    switched_arm,
    xi_ee_opt,
    zeta,
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


def pa_link(spec, gamma_db):
    """The link of amplifier spec at peak SNR gamma_db over 10 MHz."""
    return LinkScenario(
        bandwidth=1e7,
        noise_variance=spec.p_max_out / 10.0 ** (gamma_db / 10.0),
        gain=spec.gain,
        p_max_out=spec.p_max_out,
    )


@st.composite
def pa_links(draw):
    """(spec, scenario): an embedded PA at a peak SNR over 10 MHz."""
    spec = draw(st.sampled_from(embedded_datasheet()))
    return spec, pa_link(spec, draw(st.floats(min_value=-30.0, max_value=100.0)))


@st.composite
def links(draw):
    """(xi, scenario, power, n_ways): an embedded PA at a peak SNR, with a
    preset's site overhead sized to that PA, as the command line builds it."""
    spec, scenario = draw(pa_links())
    power = replace(BS_PRESETS[draw(presets)], p_max_out=spec.p_max_out)
    return draw(loadings), scenario, power, draw(ways)


@st.composite
def ee_optimizable_links(draw):
    """(scenario, power, n_ways) as links() draws them, restricted to links
    whose first consumption piece has its quasi-concavity threshold below
    full load, the hypothesis of xi_ee_opt."""
    _, scenario, power, n_ways = draw(links())
    _, _, v1, v2 = doherty_pieces(power, n_ways)[0]
    assume(zeta(v1, v2, scenario.gamma) < 1.0)
    return scenario, power, n_ways


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


# the grid search that the exact EE optimizer must match or beat
EE_GRID = np.geomspace(1e-9, 1.0, 4000)

# a 12 dB link whose EE optimum (0.48) lies below zeta (0.71): the exact
# optimizer once clamped its root up to zeta and returned a loading 1.1%
# short of the optimum
PA1157 = find_pa("PA1157")
LOW_SNR_FEMTO = (pa_link(PA1157, 12.0), replace(BS_PRESETS["femto"], p_max_out=PA1157.p_max_out), 1)


@SETTINGS
@given(link=ee_optimizable_links())
@example(link=LOW_SNR_FEMTO)
def test_exact_ee_optimum_beats_a_grid_search(link):
    sc, power, n_ways = link
    try:
        xi_star, _ = xi_ee_opt(sc, power, method="exact", n_ways=n_ways)
    except InfeasibleError:
        # the optimizers' hypothesis xi* >= zeta fails on this link
        return
    # ee_linear over the whole grid at once: B * log2(1 + gamma*xi) / P_c
    grid = sc.bandwidth * np.log2(1.0 + sc.gamma * EE_GRID) / pc_nonlinear(EE_GRID, power, n_ways)
    best = float(grid.max())
    assert ee_linear(xi_star, sc, power, n_ways=n_ways) >= best * (1.0 - 1e-9)

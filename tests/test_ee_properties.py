"""Energy-efficiency invariants over the whole parameter space: peak SNR from
-30 to +100 dB, loading from 1e-6 to 1, 1 to 4 Doherty ways, every
transmitter preset and every embedded datasheet row, for one amplifier and
for a switching schedule that runs one of its two arms full time; and the
exact SE and EE optima against a grid search. The exact SE of every link
lies between two closed-form bounds, and the density core that the SE
quadrature runs on a batch of loadings gives each loading's pdf_radial."""

import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

import ofdmsee
from ofdmsee import (
    BS_PRESETS,
    Duplex,
    LinkScenario,
    PasConfig,
    clip_probability,
    ee,
    ee_ideal,
    ee_linear,
    ee_sweep,
    embedded_datasheet,
    find_pa,
    pa_with_loss,
    pas_ee,
    pc_nonlinear,
    se,
    se_ibo,
    se_ideal,
    se_memo,
    se_sweep,
    switched_arm,
    xi_ee_max,
    xi_se_max,
)
from ofdmsee.se_engine import ENTROPY_TOL, _density, _entropy_edges, _loading_constants, pdf_radial
from ofdmsee.specfun import _GK15
from oracles import se_bounds

# each example costs one se() call (a few ms); derandomize makes every run
# draw the same examples
SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# slack on the two SE bounds, b/s/Hz: the quadrature's tolerance plus the
# rounding of se = h(Y) - h(N), a few ulps of entropies of tens of bits
SE_BOUND_SLACK = ENTROPY_TOL + 1e-12

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
def sized_links(draw):
    """(scenario, power, n_ways) as links() draws them."""
    _, scenario, power, n_ways = draw(links())
    return scenario, power, n_ways


@st.composite
def one_arm_schedules(draw):
    """(xi, kappa, config, arm): a two-arm schedule whose kappa (0 or 1) runs
    one arm full time, with any insertion loss, duplex and dead time."""
    low, high = (switched_arm(*draw(pa_links()), BS_PRESETS[draw(presets)]) for _ in range(2))
    kappa = draw(st.sampled_from([0.0, 1.0]))
    config = PasConfig(
        pa_low=low,
        pa_high=high,
        frame_length=0.01,
        frame_count=draw(st.integers(min_value=1, max_value=40)),
        insertion_loss_db=draw(st.floats(min_value=0.0, max_value=3.0)),
        switching_time=draw(st.floats(min_value=0.0, max_value=1e-3)),
        duplex=draw(st.sampled_from(Duplex)),
        n_ways=draw(ways),
    )
    return draw(loadings), kappa, config, low if kappa == 1.0 else high


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
@given(link=sized_links(), xi=loadings)
def test_se_lies_between_the_bussgang_and_max_entropy_bounds(link, xi):
    sc = link[0]
    lower, upper = se_bounds(sc.gamma, xi)
    assert lower - SE_BOUND_SLACK <= se(xi, sc) <= upper + SE_BOUND_SLACK


# a batch of the entropy quadrature: up to 8 loadings, repeats and both ends
# of the range among them
batches = st.lists(st.one_of(loadings, st.sampled_from([1e-6, 1.0])), min_size=1, max_size=8)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(link=sized_links(), xis=batches)
def test_density_core_of_a_batch_is_pdf_radial_per_loading(link, xis):
    # the quadrature evaluates a whole batch in one call of the density core,
    # each loading's constants taken once and each loading its own Marcum
    # lattice; at every node of every loading's panels it reads the float
    # pdf_radial gives that loading alone
    sc = link[0]
    nodes = _GK15[0]
    radii = []
    for x in xis:
        edges = _entropy_edges(x, sc)
        half = 0.5 * (edges[1:] - edges[:-1])
        radii.append(((0.5 * (edges[1:] + edges[:-1]))[:, None] + half[:, None] * nodes).ravel())
    rows = np.repeat(np.arange(len(xis)), [r.size for r in radii])
    batch = _density(np.concatenate(radii), rows, _loading_constants(np.asarray(xis), sc), sc)
    alone = [pdf_radial(r, x, sc) for r, x in zip(radii, xis)]
    assert batch.tobytes() == np.concatenate(alone).tobytes()
    if len(xis) == 1:
        # a batch of one takes its constants as floats
        one = _density(radii[0], None, _loading_constants(xis[0], sc), sc)
        assert one.tobytes() == alone[0].tobytes()


@SETTINGS
@given(schedule=one_arm_schedules())
def test_one_arm_schedule_is_that_arms_ee(schedule):
    # no dead time is charged and the idle arm draws nothing, so the
    # schedule's EE is the single-amplifier EE of the running arm on its
    # link with the switch's insertion loss folded in
    xi, kappa, config, arm = schedule
    lossy = pa_with_loss(arm.scenario, config.insertion_loss_db)
    assert pas_ee(xi, kappa, config) == ee(xi, lossy, arm.power, n_ways=config.n_ways)


# the sweep columns whose functions also take a whole array of loadings
CLOSED_FORMS = ("se_ideal", "se_ibo", "ee_linear", "ee_ideal")


# each example costs about three se() evaluations per loading
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(link=sized_links(), xis=st.lists(loadings, min_size=1, max_size=20))
def test_sweep_columns_are_the_per_point_floats(link, xis):
    # the sweeps compute each column over the whole grid at once, yet every
    # entry is the float its per-point function gives that loading alone
    sc, power, n_ways = link
    se_table = se_sweep(sc, xis)
    ee_table = ee_sweep(sc, power, xis, n_ways=n_ways)
    per_point = [
        (se_table, "se_exact", lambda x: se(x, sc)),
        (se_table, "se_ideal", lambda x: se_ideal(x, sc)),
        (se_table, "se_ibo", lambda x: se_ibo(x, sc)),
        (se_table, "pr_clip", clip_probability),
        (ee_table, "se_exact", lambda x: se(x, sc)),
        (ee_table, "ee_exact", lambda x: ee(x, sc, power, n_ways=n_ways)),
        (ee_table, "ee_linear", lambda x: ee_linear(x, sc, power, n_ways=n_ways)),
        (ee_table, "ee_ideal", lambda x: ee_ideal(x, sc, power)),
        (ee_table, "pc_watts", lambda x: pc_nonlinear(x, power, n_ways=n_ways)),
    ]
    for table in (se_table, ee_table):
        assert list(table["xi"]) == xis
    for table, column, f in per_point:
        floats = [f(x) for x in xis]
        assert list(table[column]) == floats, column
        if column in CLOSED_FORMS:
            # one call on the whole list (as an array or a plain list), and a
            # float for each loading alone, given as a float, a NumPy scalar or
            # a 0-d array
            for whole in (f(np.asarray(xis)), f(list(xis))):
                assert isinstance(whole, np.ndarray) and list(whole) == floats, column
            for scalar in (np.float64, np.asarray):
                alone = [f(scalar(x)) for x in xis]
                assert alone == floats and all(type(v) is float for v in alone), column
            assert all(type(v) is float for v in floats), column


@pytest.mark.parametrize("bad", [[0.5, math.nan], [0.0, 0.5], [0.5, 1.5], [math.inf]])
@pytest.mark.parametrize("column", CLOSED_FORMS)
def test_closed_forms_reject_a_bad_entry(scenario, macro_power, column, bad):
    f = {
        "se_ideal": se_ideal,
        "se_ibo": se_ibo,
        "ee_linear": lambda x, sc: ee_linear(x, sc, macro_power),
        "ee_ideal": lambda x, sc: ee_ideal(x, sc, macro_power),
    }[column]
    with pytest.raises(ValueError, match=r"^loading factor must lie in \(0, 1\]$"):
        f(np.asarray(bad), scenario)


# the log grid that the exact optima must match or beat; it reaches below
# the smallest EE optimum of the space, about 1e-6 (a 100 W amplifier under
# the femto preset at 100 dB)
OPT_GRID = np.geomspace(1e-9, 1.0, 300)

# a 12 dB link whose linear-PA bound peaks (0.48) below zeta (0.71): an
# optimizer that assumed the bound rises below zeta lost EE here
PA1157 = find_pa("PA1157")
LOW_SNR_FEMTO = (pa_link(PA1157, 12.0), replace(BS_PRESETS["femto"], p_max_out=PA1157.p_max_out), 1)


# each example costs about 470 se() calls, 0.4 s
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(link=sized_links())
@example(link=LOW_SNR_FEMTO)
def test_exact_optima_beat_a_grid_search(link):
    sc, power, n_ways = link
    with se_memo():
        se_grid = [se(float(x), sc) for x in OPT_GRID]
        ee_grid = [ee(float(x), sc, power, n_ways=n_ways) for x in OPT_GRID]
        xi_se = xi_se_max(sc)
        xi_ee, _ = xi_ee_max(sc, power, n_ways=n_ways)
        assert se(xi_se, sc) >= max(se_grid) * (1.0 - 1e-9)
        assert ee(xi_ee, sc, power, n_ways=n_ways) >= max(ee_grid) * (1.0 - 1e-9)


# one run of a property's draws (its body swapped for a recorder) with the
# conftest and the property's own file loaded, as when that file runs alone,
# then again after importing every test file of the checkout; prints the
# number of draws and whether the two runs drew alike
DRAWS_ALONE_AND_IN_SUITE = """
import importlib, sys
from pathlib import Path
root = Path(sys.argv[1])
sys.path[:0] = [str(root / "tests"), str(root), sys.argv[2]]
import conftest
import test_ee_properties as props
prop = props.test_ee_is_bounded_by_the_linear_and_ideal_amplifiers
runs = []
for step in ("alone", "suite"):
    if step == "suite":
        for path in sorted(root.glob("**/tests/test_*.py")):
            parts = path.relative_to(root).with_suffix("").parts
            importlib.import_module(".".join(parts[1:] if parts[0] == "tests" else parts))
    drawn = []
    prop.hypothesis.inner_test = lambda link: drawn.append(repr(link))
    prop()
    runs.append(drawn)
print(len(runs[0]), runs[0] == runs[1])
"""


def test_draws_do_not_depend_on_the_test_files_loaded():
    root = Path(__file__).resolve().parents[1]
    src = Path(ofdmsee.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", DRAWS_ALONE_AND_IN_SUITE, str(root), str(src)],
        capture_output=True, text=True, timeout=300, check=True,
    )
    assert done.stdout.split() == ["200", "True"]

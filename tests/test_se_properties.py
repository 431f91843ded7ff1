"""Physical invariants of the exact spectral efficiency over the whole
parameter space: peak SNR from -30 to +100 dB and loading from 1e-6 to 1;
the batched SE curve against scalar se(); and the Marcum Q1 complement that
truncates its unclipped density."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from ofdmsee import (
    clip_probability, marcum_q1_complement, pdf_clipped, pdf_unclipped, se, se_curve, se_ideal
)
from ofdmsee.se_engine import _entropy_edges
from ofdmsee.specfun import _PANEL_H, gauss_panels

# each example costs at most two se() calls (~4 ms each) or two radial
# mass integrals; the bounds keep the file under ten seconds, and
# derandomize makes every run draw the same examples
SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

gamma_db = st.floats(min_value=-30.0, max_value=100.0)
loading = st.floats(min_value=-6.0, max_value=0.0).map(lambda e: 10.0**e)


@SETTINGS
@given(g_db=gamma_db, xi=loading)
def test_se_never_exceeds_distortion_free_link(snr_scenario, g_db, xi):
    sc = snr_scenario(g_db)
    assert se(xi, sc) <= se_ideal(xi, sc) + 1e-10


@SETTINGS
@given(g1=gamma_db, g2=gamma_db, xi=loading)
def test_se_nondecreasing_in_snr(snr_scenario, g1, g2, xi):
    lo, hi = sorted((g1, g2))
    assert se(xi, snr_scenario(hi)) >= se(xi, snr_scenario(lo)) - 1e-10


@SETTINGS
@given(g_db=gamma_db, xi=loading)
def test_branch_masses_on_entropy_panels(snr_scenario, g_db, xi):
    # the panels entropy_y integrates on carry the whole received law, and
    # the clipped branch carries exactly the clip probability
    sc = snr_scenario(g_db)
    edges = _entropy_edges(xi, sc)

    def mass(pdf):
        return gauss_panels(
            lambda r: 2.0 * math.pi * r * pdf(r, xi, sc), edges, order=16, tol=1e-11
        )

    m_unclipped, m_clipped = mass(pdf_unclipped), mass(pdf_clipped)
    assert abs(m_unclipped + m_clipped - 1.0) <= 1e-9
    assert abs(m_clipped - clip_probability(xi)) <= 1e-9


# (peak SNR dB, loadings) whose entropy panels between them take each edge
# layout: at 20 dB the ring starts at 0 and covers a capped bulk (21 edges)
# or an uncapped one (22); at 51 dB it overlaps a capped bulk (22) or an
# uncapped one (23), or lies past a gap (24)
CURVE_EXAMPLES = (
    (20.0, list(np.geomspace(1e-6, 1.0, 12))),
    (51.0, list(np.geomspace(1e-6, 1.0, 25))),
)


def test_curve_examples_take_every_layout(snr_scenario):
    sizes = {g: {_entropy_edges(float(x), snr_scenario(g)).size for x in xs} for g, xs in CURVE_EXAMPLES}
    assert sizes == {20.0: {21, 22}, 51.0: {22, 23, 24}}


# each example costs up to 25 batched and 25 scalar se() evaluations
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(g_db=gamma_db, xis=st.lists(loading, min_size=1, max_size=25))
@example(g_db=CURVE_EXAMPLES[0][0], xis=CURVE_EXAMPLES[0][1])
@example(g_db=CURVE_EXAMPLES[1][0], xis=CURVE_EXAMPLES[1][1])
def test_curve_is_scalar_se_digit_for_digit(snr_scenario, g_db, xis):
    # the batch shares density calls and Marcum lattices across loadings,
    # yet each loading's value is the float se() gives it alone
    sc = snr_scenario(g_db)
    curve = se_curve(xis, sc)
    assert [repr(float(v)) for v in curve] == [repr(se(x, sc)) for x in xis]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    b=st.floats(min_value=0.0, max_value=3000.0),
    k=st.integers(min_value=-32, max_value=44),
    step=st.floats(min_value=0.0, max_value=2.0),
)
def test_complement_nonincreasing_in_a(b, k, step):
    # a larger noncentrality moves mass above b, so the complement cannot
    # grow; the first two points straddle the lattice point b + k h, where a
    # row's partial panel hands over to the running sum of full panels
    t = b + k * _PANEL_H
    a = np.maximum(0.0, t + np.asarray([-1e-9, 1e-9, 1e-9 + step]))
    c = marcum_q1_complement(a, b)
    assert np.all(np.diff(c) <= 1e-13 * c[:-1])

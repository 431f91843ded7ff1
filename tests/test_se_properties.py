"""Physical invariants of the exact spectral efficiency over the whole
parameter space: peak SNR from -30 to +100 dB and loading from 1e-6 to 1."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from ofdmsee import se, se_ideal

# each example costs one or two se() calls (~40 ms each); the bounds keep
# the file under ten seconds, and derandomize makes every run draw the same
# examples
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

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

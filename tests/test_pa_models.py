"""Amplifier models and the embedded datasheet corpus."""

import io
import math
import warnings

import numpy as np
import pytest

from ofdmsee import (
    DatasheetWarning,
    PaSpec,
    RappParams,
    clip_probability,
    drain_efficiency,
    embedded_datasheet,
    find_pa,
    load_datasheet,
    pa_models,
    rapp,
    soft_limiter,
)


@pytest.fixture(scope="module")
def sm44():
    return find_pa("SM2122-44L")


class TestPaSpec:
    def test_db_conversions(self, sm44):
        assert sm44.p_max_out == pytest.approx(10 ** (44 / 10) / 1000, rel=1e-12)
        assert sm44.gain == pytest.approx(10 ** (55 / 10), rel=1e-12)

    def test_derived_amplitudes(self, sm44):
        assert sm44.p_max_in == pytest.approx(sm44.p_max_out / sm44.gain, rel=1e-12)
        assert sm44.a_max == pytest.approx(math.sqrt(sm44.p_max_in), rel=1e-12)
        assert sm44.b_max == pytest.approx(math.sqrt(sm44.p_max_out), rel=1e-12)
        # amplitude gain times max input amplitude reaches the ceiling
        assert math.sqrt(sm44.gain) * sm44.a_max == pytest.approx(sm44.b_max, rel=1e-12)

    def test_find_by_row_id(self, sm44):
        assert find_pa(106).model_name == sm44.model_name
        assert find_pa("106").model_name == sm44.model_name

    def test_find_unknown_raises(self):
        with pytest.raises(KeyError):
            find_pa("definitely-not-a-model")


class TestSoftLimiter:
    def test_linear_below_ceiling(self, sm44):
        a = 0.25 * sm44.a_max
        assert soft_limiter(a, sm44) == pytest.approx(math.sqrt(sm44.gain) * a, rel=1e-14)

    def test_clipped_above_ceiling(self, sm44):
        assert soft_limiter(3.0 * sm44.a_max, sm44) == pytest.approx(sm44.b_max, rel=1e-14)

    def test_continuous_at_knee(self, sm44):
        below = soft_limiter(sm44.a_max * (1 - 1e-12), sm44)
        above = soft_limiter(sm44.a_max * (1 + 1e-12), sm44)
        assert abs(above - below) <= 1e-9 * sm44.b_max

    def test_vectorized(self, sm44):
        a = np.linspace(0.0, 2.0, 7) * sm44.a_max
        out = soft_limiter(a, sm44)
        assert out.shape == a.shape
        assert np.all(np.diff(out) >= -1e-15)
        assert np.all(out <= sm44.b_max * (1 + 1e-12))

    @pytest.mark.parametrize(
        "a", [-1e-3, math.nan, [0.1, math.nan], [0.1, -0.1]],
        ids=["negative", "nan", "nan-entry", "negative-entry"],
    )
    def test_negative_or_nan_amplitude_rejected(self, sm44, a):
        with pytest.raises(ValueError, match="non-negative"):
            soft_limiter(np.asarray(a), sm44)

    def test_empty_and_infinite_amplitudes_pass(self, sm44):
        assert soft_limiter(np.array([]), sm44).shape == (0,)
        assert soft_limiter(math.inf, sm44) == sm44.b_max


class TestRapp:
    def test_limits(self):
        params = RappParams(gain=100.0, b_sat=2.0)
        # small signal: linear with amplitude gain sqrt(g)
        assert rapp(1e-6, params) == pytest.approx(10.0 * 1e-6, rel=1e-4)
        # hard overdrive approaches saturation
        assert rapp(1e3, params) == pytest.approx(2.0, rel=1e-3)

    def test_sharpness_parameter(self):
        soft = RappParams(gain=100.0, b_sat=2.0, p=1.0)
        sharp = RappParams(gain=100.0, b_sat=2.0, p=8.0)
        a = 0.2  # right at the nominal knee
        assert rapp(a, sharp) > rapp(a, soft)

    def test_monotone(self):
        params = RappParams(gain=50.0, b_sat=1.0)
        a = np.linspace(0.0, 5.0, 200)
        out = rapp(a, params)
        assert np.all(np.diff(out) >= 0.0)

    def test_overflow_guard(self):
        params = RappParams(gain=100.0, b_sat=2.0, p=2.0)
        assert rapp(1e200, params) == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize(
        "a", [-1e-3, math.nan, [0.1, math.nan], [0.1, -0.1]],
        ids=["negative", "nan", "nan-entry", "negative-entry"],
    )
    def test_negative_or_nan_amplitude_rejected(self, a):
        # a NaN would otherwise take the saturated branch and read 2 * 2**-0.25
        with pytest.raises(ValueError, match="non-negative"):
            rapp(np.asarray(a), RappParams(gain=100.0, b_sat=2.0))

    def test_empty_amplitudes_pass(self):
        assert rapp(np.array([]), RappParams(gain=100.0, b_sat=2.0)).shape == (0,)

    def test_infinite_amplitude_saturates_without_a_warning(self):
        params = RappParams(gain=100.0, b_sat=2.0, p=2.0)
        mixed = np.array([0.0, math.inf, 0.05, 0.2, 0.21, math.inf, 1e200])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = rapp(mixed, params)
            assert rapp(math.inf, params) == 2.0
        # the finite entries keep the bits of both branches evaluated everywhere
        a = mixed[np.isfinite(mixed)]
        t = 10.0 * a / 2.0
        with np.errstate(over="ignore", under="ignore"):
            low = t * (1.0 + t**4.0) ** -0.25
            high = (1.0 + np.where(t > 1.0, t, 1.0) ** -4.0) ** -0.25
        assert np.array_equal(got[np.isfinite(mixed)], 2.0 * np.where(t <= 1.0, low, high))
        assert np.all(got[np.isinf(mixed)] == 2.0)


class TestClipProbability:
    def test_values(self):
        assert clip_probability(1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
        assert clip_probability(0.25) == pytest.approx(math.exp(-4.0), rel=1e-14)

    def test_monotone_in_loading(self):
        xs = np.linspace(0.01, 1.0, 50)
        ps = [clip_probability(x) for x in xs]
        assert all(b > a for a, b in zip(ps, ps[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            clip_probability(0.0)
        with pytest.raises(ValueError):
            clip_probability(1.5)
        with pytest.raises(ValueError):
            clip_probability(math.nan)


class TestDatasheet:
    def test_embedded_size_and_ids(self):
        assert len(embedded_datasheet()) == 34
        assert find_pa("106").model_name == "SM2122-44L"
        assert find_pa("113").model_name == "SM1720-50"

    def test_drain_efficiency_definition(self, sm44):
        eta = drain_efficiency(sm44)
        assert eta == pytest.approx(sm44.p_max_out / (12.0 * 8.2), rel=1e-12)

    def test_drain_efficiency_band(self):
        etas = [drain_efficiency(s) for s in embedded_datasheet()]
        etas = [e for e in etas if e is not None]
        med = float(np.median(etas))
        assert 0.15 <= med <= 0.35

    def test_csv_roundtrip(self):
        # the embedded rows in the loader's CSV format, row ids dropped
        text = "model,p_max_out_dBm,gain_dB,voltage_V,current_mA,p_max_in_dBm,turn_on_us\n"
        for _, *cells in pa_models._EMBEDDED_ROWS:
            text += ",".join("" if c is None else str(c) for c in cells) + "\n"
        # reloading the table as a plain file re-flags the known rows whose
        # listed max input disagrees with output/gain by more than 3 dB
        with pytest.warns(DatasheetWarning):
            specs = load_datasheet(io.StringIO(text))
        assert specs == embedded_datasheet()

    def test_loader_skips_bad_rows(self):
        csv = (
            "model,p_max_out_dBm,gain_dB,voltage_V,current_mA\n"
            "GOOD-1,40,30,12,4000\n"
            "BAD-1,not-a-number,30,12,4000\n"
            "GOOD-2,30,20,5,1000\n"
        )
        with pytest.warns(DatasheetWarning):
            specs = load_datasheet(io.StringIO(csv))
        assert [s.model_name for s in specs] == ["GOOD-1", "GOOD-2"]

    def test_loader_skips_rows_that_fail_the_spec(self):
        # the cells parse, but PaSpec rejects the values they give
        csv = (
            "model,p_max_out_dBm,gain_dB,voltage_V,current_mA\n"
            "GOOD-1,40,30,12,4000\n"
            "X,nan,30,12,4000\n"
            "Y,40,inf,12,4000\n"
            "Z,40,30,-12,4000\n"
            "GOOD-2,30,20,5,1000\n"
        )
        with pytest.warns(DatasheetWarning) as record:
            specs = load_datasheet(io.StringIO(csv))
        assert [s.model_name for s in specs] == ["GOOD-1", "GOOD-2"]
        assert [str(w.message).split(":")[0] for w in record] == [
            "datasheet line 3", "datasheet line 4", "datasheet line 5",
        ]

    def test_loader_requires_mandatory_columns(self):
        with pytest.raises(ValueError):
            load_datasheet(io.StringIO("model,foo\nX,1\n"))

    def test_mismatched_input_rating_warns(self):
        # listed max input 3.5 dB above pout - gain triggers a consistency flag
        csv = (
            "model,p_max_out_dBm,gain_dB,voltage_V,current_mA,p_max_in_dBm\n"
            "SUSPECT,40,30,12,4000,13.5\n"
        )
        with pytest.warns(DatasheetWarning):
            load_datasheet(io.StringIO(csv))

    def test_embedded_list_is_quiet(self, recwarn):
        embedded_datasheet()
        assert not [w for w in recwarn.list if issubclass(w.category, DatasheetWarning)]

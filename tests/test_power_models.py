"""Transmitter consumption models: presets, piecewise supply, calibration."""

import math

import numpy as np
import pytest

from ofdmsee import (
    BS_PRESETS,
    PowerModelParams,
    doherty_pieces,
    pc_ideal,
    pc_linear,
    pc_nonlinear,
    ppa_doherty,
)


class TestPresets:
    def test_table_values(self):
        macro = BS_PRESETS["macro"]
        assert (macro.p_max_out, macro.p_fix, macro.c) == (20.0, 130.0, 4.7)
        assert BS_PRESETS["femto"].p_max_out == pytest.approx(0.05)
        assert set(BS_PRESETS) == {"macro", "rrh", "micro", "pico", "femto"}

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerModelParams(p_max_out=10.0, p_fix=5.0, c=-2.0)
        with pytest.raises(ValueError):
            PowerModelParams(p_max_out=10.0, p_fix=math.nan, c=2.0)

    def test_derived_coefficients(self):
        p = BS_PRESETS["macro"]
        assert p.c0 == pytest.approx(p.c * p.p_max_out, rel=1e-15)


class TestDohertySupply:
    def test_continuity_at_knee(self):
        # w = 1 puts the knee at full load, so only the left limit exists
        for w in (2, 3):
            knee = 1.0 / w**2
            below = ppa_doherty(knee * (1 - 1e-13), 100.0, n_ways=w)
            above = ppa_doherty(knee * (1 + 1e-13), 100.0, n_ways=w)
            assert abs(above - below) <= 1e-10 * max(1.0, above)
        edge = ppa_doherty(1.0 - 1e-13, 100.0, n_ways=1)
        assert edge == pytest.approx(ppa_doherty(1.0, 100.0, n_ways=1), rel=1e-10)

    def test_class_b_efficiency_pi_over_4(self):
        # single-way amplifier at full load draws 4/pi times its output
        p_full = 37.0
        draw = ppa_doherty(1.0, p_full, n_ways=1)
        assert p_full / draw == pytest.approx(math.pi / 4.0, abs=1e-13)

    def test_knee_efficiency_pi_over_4(self):
        # the Doherty knee restores peak drain efficiency
        p_full = 50.0
        for w in (2, 3):
            knee = 1.0 / w**2
            draw = ppa_doherty(knee, p_full, n_ways=w)
            assert (knee * p_full) / draw == pytest.approx(math.pi / 4.0, rel=1e-12)

    def test_monotone_in_loading(self):
        xs = np.linspace(1e-4, 1.0, 500)
        draws = [ppa_doherty(float(x), 10.0, n_ways=2) for x in xs]
        assert all(b >= a for a, b in zip(draws, draws[1:]))

    @pytest.mark.parametrize("kind", sorted(BS_PRESETS))
    def test_is_the_shape_pc_nonlinear_evaluates(self, kind):
        # ppa_doherty is pc_nonlinear's PA term with its full-load draw c0
        # replaced by the class-B full-load draw 4p/pi. The grid starts at
        # 1e-3: below it pc - p_fix cancels more than 1e-12 of its digits
        params = BS_PRESETS[kind]
        p = params.p_max_out
        for w in (1, 2, 3, 4):
            xs = np.concatenate([np.geomspace(1e-3, 1.0, 301), [1.0 / w**2]])
            pa_term = (pc_nonlinear(xs, params, n_ways=w) - params.p_fix) / params.c0
            np.testing.assert_allclose(
                ppa_doherty(xs, p, n_ways=w), 4.0 * p / math.pi * pa_term, rtol=1e-12, atol=0.0
            )


class TestConsumption:
    @pytest.mark.parametrize("kind", sorted(BS_PRESETS))
    def test_full_load_calibration_is_exact(self, kind):
        params = BS_PRESETS[kind]
        for w in (1, 2, 3):
            assert pc_nonlinear(1.0, params, n_ways=w) == pc_linear(1.0, params)

    def test_linear_interpolates_fix_to_max(self):
        params = BS_PRESETS["macro"]
        # loading domain is (0, 1]: the zero-load limit is the fixed draw
        assert pc_linear(1e-12, params) == pytest.approx(params.p_fix)
        assert pc_linear(1.0, params) == pytest.approx(params.p_fix + params.c0)
        with pytest.raises(ValueError):
            pc_linear(0.0, params)
        with pytest.raises(ValueError):
            pc_linear(math.nan, params)

    def test_rejects_out_of_range_loading(self):
        params = BS_PRESETS["macro"]
        for bad in (0.0, 1.5, math.nan):
            with pytest.raises(ValueError):
                pc_nonlinear(bad, params)
            with pytest.raises(ValueError):
                ppa_doherty(bad, 20.0)

    @pytest.mark.parametrize("kind", sorted(BS_PRESETS))
    def test_ideal_never_above_nonlinear(self, kind):
        params = BS_PRESETS[kind]
        gain = 10 ** (30 / 10)
        xs = np.linspace(1e-6, 1.0, 1000)
        for w in (1, 2):
            pn = np.asarray([pc_nonlinear(float(x), params, n_ways=w) for x in xs])
            pi_ = np.asarray([pc_ideal(float(x), params, gain) for x in xs])
            assert np.all(pi_ <= pn * (1 + 1e-12))

    def test_nonlinear_at_least_fixed_draw(self):
        params = BS_PRESETS["rrh"]
        for x in np.linspace(1e-6, 1.0, 100):
            assert pc_nonlinear(float(x), params) >= params.p_fix

    def test_pieces_tile_unit_interval(self):
        for w in (1, 2, 3):
            pieces = doherty_pieces(BS_PRESETS["macro"], n_ways=w)
            assert pieces[0][0] == 0.0
            assert pieces[-1][1] == 1.0
            for (lo1, hi1, _, _), (lo2, hi2, _, _) in zip(pieces, pieces[1:]):
                assert hi1 == lo2

    def test_pieces_reproduce_consumption(self):
        params = BS_PRESETS["macro"]
        pieces = doherty_pieces(params, n_ways=2)
        for x in np.linspace(0.01, 1.0, 57):
            want = pc_nonlinear(float(x), params, n_ways=2)
            # v1 + v2 * sqrt(x) on the one piece whose (lo, hi] holds x
            ((_, _, v1, v2),) = [p for p in pieces if p[0] < x <= p[1]]
            got = v1 + v2 * math.sqrt(x)
            assert got == pytest.approx(want, rel=1e-12)

    def test_ideal_needs_real_gain(self):
        with pytest.raises(ValueError):
            pc_ideal(0.5, BS_PRESETS["macro"], 1.0)

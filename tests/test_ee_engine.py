"""Energy efficiency: bounds, quasi-concavity, and the loading optimizer."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from ofdmsee import (
    BS_PRESETS,
    InfeasibleError,
    LinkScenario,
    build_scenario,
    doherty_pieces,
    ee,
    ee_breakdown,
    ee_ideal,
    ee_linear,
    ee_sweep,
    find_pa,
    pareto_window,
    pc_nonlinear,
    se,
    se_ideal,
    xi_ee_max,
    xi_ee_opt,
    xi_se_opt,
    zeta,
)


class TestEeValues:
    def test_full_load_against_hand_computation(self, scenario, macro_raw):
        # 20 W preset at full load: 130 + 4.7 * 20 = 224 W total draw
        want = 1e7 * math.log2(1.0 + scenario.gamma) / 224.0
        assert ee_linear(1.0, scenario, macro_raw) == pytest.approx(want, rel=1e-13)

    def test_denominator_is_consumption_model(self, scenario, macro_power):
        xi = 0.4
        want = 1e7 * se_ideal(xi, scenario) / pc_nonlinear(xi, macro_power, n_ways=2)
        assert ee_linear(xi, scenario, macro_power) == pytest.approx(want, rel=1e-13)

    def test_ordering_exact_linear_ideal(self, scenario, macro_power):
        for xi in (0.05, 0.25, 0.6, 1.0):
            e_exact = ee(xi, scenario, macro_power)
            e_lin = ee_linear(xi, scenario, macro_power)
            e_ideal = ee_ideal(xi, scenario, macro_power)
            assert e_exact <= e_lin * (1 + 1e-12)
            assert e_lin <= e_ideal * (1 + 1e-12)

    def test_rejects_out_of_range_loading(self, scenario, macro_power):
        for bad in (0.0, 1.5, math.nan):
            with pytest.raises(ValueError):
                ee(bad, scenario, macro_power)

    def test_breakdown_fields(self, scenario, macro_power):
        b = ee_breakdown(0.4, scenario, macro_power)
        assert b.xi == 0.4
        assert b.ee_bits_per_joule == pytest.approx(
            1e7 * b.se_bits / b.pc_watts, rel=1e-12
        )


class TestQuasiConcavity:
    @pytest.mark.parametrize("n_ways", [1, 2])
    def test_sign_changes_per_piece(self, scenario, macro_power, n_ways):
        for lo, hi, _, _ in doherty_pieces(macro_power, n_ways=n_ways):
            xs = np.linspace(max(lo, 1e-4), hi, 500)
            vals = np.asarray([ee_linear(float(x), scenario, macro_power, n_ways) for x in xs])
            d = np.diff(vals)
            signs = np.sign(d[np.abs(d) > 1e-10 * np.max(np.abs(vals))])
            flips = int(np.sum(signs[:-1] != signs[1:])) if signs.size > 1 else 0
            assert flips <= 1

    def test_rise_then_fall_around_threshold(self, scenario, macro_power):
        # on this 51 dB link the bound rises up to the closed form's loading,
        # the knee, and falls past it (test_linear_bound_can_peak_below_zeta
        # shows a link where the rise stops below zeta)
        pieces = doherty_pieces(macro_power, n_ways=2)
        lo, hi, v1, v2 = pieces[1]
        z = zeta(v1, v2, scenario.gamma)
        xi_star, _ = xi_ee_opt(scenario, macro_power)
        rising = [ee_linear(float(x), scenario, macro_power) for x in np.geomspace(1e-6, xi_star, 200)]
        assert all(b >= a for a, b in zip(rising, rising[1:]))
        left = ee_linear(max(z, lo) * 1.001, scenario, macro_power)
        right = ee_linear(1.0, scenario, macro_power)
        peak = ee_linear(xi_star, scenario, macro_power)
        assert peak >= left - 1e-9
        assert peak >= right - 1e-9

    def test_linear_bound_can_peak_below_zeta(self):
        # a 12 dB femto link where the bound falls between its peak and
        # zeta, so zeta is no threshold below which the bound rises
        pa = find_pa("PA1157")
        link = LinkScenario(1e7, pa.p_max_out / 10.0**1.2, pa.gain, pa.p_max_out)
        power = replace(BS_PRESETS["femto"], p_max_out=pa.p_max_out)
        ((_, _, v1, v2),) = doherty_pieces(power, n_ways=1)
        z = zeta(v1, v2, link.gamma)
        grid = np.geomspace(1e-6, 1.0, 4000)
        vals = [ee_linear(float(x), link, power, n_ways=1) for x in grid]
        peak = float(grid[int(np.argmax(vals))])
        assert peak == pytest.approx(0.48, abs=0.01)
        assert z == pytest.approx(0.71, abs=0.01)
        assert ee_linear(z, link, power, n_ways=1) < max(vals)


class TestZeta:
    def test_formula(self):
        v1, v2, gam = 130.0, 59.0, 1.3e5
        v = v2 / v1
        want = (v + math.sqrt(1.0 + v * v)) ** 2 / gam**2
        assert zeta(v1, v2, gam) == pytest.approx(want, rel=1e-14)

    def test_requires_positive_fixed_term(self):
        with pytest.raises(ValueError):
            zeta(0.0, 10.0, 100.0)


class TestOptimizer:
    def test_closed_form_hits_the_knee(self, scenario, macro_power):
        # the unconstrained stationary point sits above the knee on piece 1,
        # so the closed form clamps to the knee of the 2-way supply curve
        xi, piece = xi_ee_opt(scenario, macro_power)
        assert xi == 0.25
        assert piece == 1

    def test_exact_maximum_frozen(self, scenario, macro_power):
        xi, piece = xi_ee_max(scenario, macro_power)
        assert xi == pytest.approx(0.2022029441, rel=1e-8)
        assert piece == 1

    def test_beats_grid(self, scenario, macro_power):
        xi_star, _ = xi_ee_max(scenario, macro_power)
        grid = np.geomspace(1e-3, 1.0, 400)
        best = max(ee(float(x), scenario, macro_power) for x in grid)
        assert ee(xi_star, scenario, macro_power) >= best

    def test_class_b_interior_optimum(self, scenario, macro_power):
        # one-way supply has a single piece: the maximum is stationary
        xi_star, piece = xi_ee_max(scenario, macro_power, n_ways=1)
        assert piece == 1 and 0.01 < xi_star < 0.99
        h = 1e-5 * xi_star
        d = (
            ee(xi_star + h, scenario, macro_power, n_ways=1)
            - ee(xi_star - h, scenario, macro_power, n_ways=1)
        ) / (2 * h)
        scale = ee(xi_star, scenario, macro_power, n_ways=1) / xi_star
        assert abs(d) <= 1e-6 * scale

    def test_closed_form_near_exact_class_b(self, scenario, macro_power):
        a, _ = xi_ee_opt(scenario, macro_power, n_ways=1)
        b, _ = xi_ee_max(scenario, macro_power, n_ways=1)
        assert a == pytest.approx(b, rel=0.15)

    def test_negative_v1_piece_falls_back(self, scenario, pa_high):
        # a 100 W amplifier under the macro overhead drives piece-2 v1 below
        # zero; the closed form must degrade gracefully instead of crashing
        power = replace(BS_PRESETS["macro"], p_max_out=pa_high.p_max_out)
        pieces = doherty_pieces(power, n_ways=2)
        assert pieces[1][2] < 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            xi_cf, _ = xi_ee_opt(scenario, power)
        xi_ex, _ = xi_ee_max(scenario, power)
        assert 0.0 < xi_cf <= 1.0
        assert ee(xi_cf, scenario, power) >= 0.95 * ee(xi_ex, scenario, power)

    def test_infeasible_when_gamma_tiny(self, pa_low, macro_power):
        # gamma so small that the quasi-concavity threshold passes full load
        bad = build_scenario(5.0, 3.76, 3.0, -120.0, 1e7, pa_low)
        assert zeta(130.0, 59.0, bad.gamma) > 1.0
        with pytest.raises(InfeasibleError):
            xi_ee_opt(bad, macro_power)

    def test_exact_maximum_needs_no_zeta(self, pa_low, macro_power):
        # the link on which the closed form is infeasible still has a best loading
        bad = build_scenario(5.0, 3.76, 3.0, -120.0, 1e7, pa_low)
        xi, _ = xi_ee_max(bad, macro_power)
        grid = np.geomspace(1e-3, 1.0, 300)
        assert ee(xi, bad, macro_power) >= max(ee(float(x), bad, macro_power) for x in grid)


class TestParetoWindow:
    def test_window_endpoints(self, scenario, macro_power):
        lo, hi = pareto_window(scenario, macro_power)
        assert lo == pytest.approx(0.25, abs=1e-9)
        assert hi == pytest.approx(xi_se_opt(scenario), rel=1e-12)

    def test_tradeoff_inside_window(self, scenario, macro_power):
        # inside the window, raising the loading trades EE away for SE
        lo, hi = pareto_window(scenario, macro_power)
        xs = np.linspace(lo * 1.01, hi * 0.99, 20)
        se_vals = [se_ideal(float(x), scenario) for x in xs]
        ee_vals = [ee_linear(float(x), scenario, macro_power) for x in xs]
        assert all(b > a for a, b in zip(se_vals, se_vals[1:]))
        assert all(b < a + 1e-9 for a, b in zip(ee_vals, ee_vals[1:]))

    def test_both_improve_outside_window(self, scenario, macro_power):
        lo, hi = pareto_window(scenario, macro_power)
        xs = np.linspace(1e-3, lo * 0.98, 15)
        ee_vals = [ee_linear(float(x), scenario, macro_power) for x in xs]
        se_vals = [se_ideal(float(x), scenario) for x in xs]
        assert all(b >= a for a, b in zip(ee_vals, ee_vals[1:]))
        assert all(b >= a for a, b in zip(se_vals, se_vals[1:]))


class TestSweep:
    def test_columns(self, scenario, macro_power):
        grid = np.asarray([0.1, 0.25, 0.7])
        data = ee_sweep(scenario, macro_power, grid)
        assert set(data) == {"xi", "se_exact", "ee_exact", "ee_linear", "ee_ideal", "pc_watts"}
        assert data["pc_watts"][1] == pytest.approx(
            pc_nonlinear(0.25, macro_power, n_ways=2), rel=1e-12
        )

    def test_scalar_consistency(self, scenario, macro_power):
        grid = np.asarray([0.3])
        data = ee_sweep(scenario, macro_power, grid)
        assert data["ee_exact"][0] == pytest.approx(ee(0.3, scenario, macro_power), rel=1e-10)
        assert data["se_exact"][0] == pytest.approx(se(0.3, scenario), rel=1e-10)

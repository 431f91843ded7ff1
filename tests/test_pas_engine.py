"""Two-amplifier switching schedules: SE/EE accounting and the frontier."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ofdmsee import (
    Duplex,
    PasConfig,
    ee_sweep,
    pa_with_loss,
    pas_ee,
    pas_frontier,
    pas_se,
    pc_nonlinear,
    se,
    se_memo,
)


def pas_ee_harmonic(xi, kappa, config):
    """Schedule EE by the weighted-combination form, an oracle for pas_ee.

    K*T*BW*pas_se over the frame-weighted active energy: algebraically equal
    to pas_ee's direct bits-over-energy accounting, but evaluated the other
    way round.
    """
    pc1 = pc_nonlinear(xi, config.pa_low.power, n_ways=config.n_ways)
    pc2 = pc_nonlinear(xi, config.pa_high.power, n_ways=config.n_ways)
    t = config.frame_length
    f1 = round(kappa * config.frame_count)
    f2 = config.frame_count - f1
    kt = config.frame_count * t
    num = kt * config.pa_low.scenario.bandwidth * pas_se(xi, kappa, config)
    return num / (f1 * t * pc1 + f2 * t * pc2)


@pytest.fixture(scope="module")
def base_config(arm_low, arm_high):
    return PasConfig(
        pa_low=arm_low,
        pa_high=arm_high,
        frame_length=0.01,
        frame_count=20,
        insertion_loss_db=1.0,
        switching_time=1e-5,
        duplex=Duplex.FDD,
    )


class TestConfig:
    def test_schedule_quantization(self, base_config):
        # 0.633 * 20 = 12.66 rounds to 13 of 20 frames, the lattice point 0.65
        for pas in (pas_se, pas_ee):
            assert pas(0.3, 0.633, base_config) == pas(0.3, 0.65, base_config)
            assert pas((0.4, 0.15), 0.633, base_config) == pas((0.4, 0.15), 0.65, base_config)

    @pytest.mark.parametrize("kappa", [-0.1, 1.5, math.nan])
    def test_share_outside_the_window_rejected(self, base_config, kappa):
        for pas in (pas_se, pas_ee):
            with pytest.raises(ValueError, match="kappa"):
                pas(0.3, kappa, base_config)

    def test_duplex_coerces_from_string(self, base_config):
        cfg = replace(base_config, duplex="tdd")
        assert cfg.duplex is Duplex.TDD

    def test_validation(self, base_config):
        with pytest.raises(ValueError):
            replace(base_config, frame_count=0)
        with pytest.raises(ValueError):
            replace(base_config, switching_time=-1e-6)


class TestInsertionLoss:
    def test_noise_scaling(self, scenario):
        noisy = pa_with_loss(scenario, 1.0)
        assert noisy.noise_variance == pytest.approx(
            scenario.noise_variance * 10 ** 0.1, rel=1e-14
        )
        assert noisy.gamma == pytest.approx(scenario.gamma / 10 ** 0.1, rel=1e-14)

    def test_zero_loss_is_identity(self, scenario):
        assert pa_with_loss(scenario, 0.0) is scenario

    def test_negative_loss_rejected(self, scenario):
        with pytest.raises(ValueError):
            pa_with_loss(scenario, -0.5)

    @pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf])
    def test_config_and_link_reject_a_bad_loss_alike(self, scenario, base_config, bad):
        for field in ("insertion_loss_db", "switching_time"):
            with pytest.raises(ValueError) as info:
                replace(base_config, **{field: bad})
            assert str(info.value) == f"{field} must be finite and >= 0"
        with pytest.raises(ValueError) as info:
            pa_with_loss(scenario, bad)
        assert str(info.value) == "insertion_loss_db must be finite and >= 0"


class TestScheduleAverages:
    def test_pure_low_schedule_is_the_low_arm(self, base_config):
        lossy = pa_with_loss(base_config.pa_low.scenario, base_config.insertion_loss_db)
        assert pas_se(0.3, 1.0, base_config) == pytest.approx(se(0.3, lossy), rel=1e-12)

    def test_pure_high_schedule_is_the_high_arm(self, base_config):
        lossy = pa_with_loss(base_config.pa_high.scenario, base_config.insertion_loss_db)
        assert pas_se(0.3, 0.0, base_config) == pytest.approx(se(0.3, lossy), rel=1e-12)

    def test_se_is_time_share_between_arms(self, base_config):
        cfg = replace(base_config, duplex=Duplex.TDD)  # no dead-time prefactor
        lo = pa_with_loss(cfg.pa_low.scenario, 1.0)
        hi = pa_with_loss(cfg.pa_high.scenario, 1.0)
        want = 0.65 * se(0.3, lo) + 0.35 * se(0.3, hi)
        assert pas_se(0.3, 0.65, cfg) == pytest.approx(want, rel=1e-12)

    def test_dead_time_prefactor(self, base_config):
        # eps = 10 us against a 200 ms window scales SE by 20000/20001
        tdd = replace(base_config, duplex=Duplex.TDD)
        fdd = base_config
        k, t, eps = 20, 0.01, 1e-5
        want = (k * t) / (k * t + eps)
        assert pas_se(0.3, 0.65, fdd) / pas_se(0.3, 0.65, tdd) == pytest.approx(want, rel=1e-12)

    def test_ee_equals_harmonic_combination(self, base_config):
        for kappa in (0.0, 0.2, 0.65, 1.0):
            for eps in (0.0, 1e-5, 1e-3):
                cfg = replace(base_config, switching_time=eps)
                direct = pas_ee(0.3, kappa, cfg)
                harmonic = pas_ee_harmonic(0.3, kappa, cfg)
                assert direct == pytest.approx(harmonic, rel=1e-12), (kappa, eps)

    def test_switched_off_arm_draws_nothing(self, base_config, arm_low, arm_high):
        # a one-arm schedule is charged only its active amplifier's draw,
        # standing draw included: the other arm's p_fix is switched off
        for kappa, arm in ((1.0, arm_low), (0.0, arm_high)):
            alone = ee_sweep(pa_with_loss(arm.scenario, 1.0), arm.power, [0.3])
            want = alone["ee_exact"][0]
            assert pas_ee(0.3, kappa, base_config) == pytest.approx(want, rel=1e-12), kappa

    def test_ee_decreases_with_dead_time(self, base_config):
        es = (0.0, 1e-5, 1e-4, 1e-3)
        vals = [pas_ee(0.3, 0.65, replace(base_config, switching_time=e)) for e in es]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_tdd_never_worse_than_fdd(self, base_config):
        fdd = replace(base_config, switching_time=1e-3)
        tdd = replace(fdd, duplex=Duplex.TDD)
        assert pas_ee(0.3, 0.65, tdd) >= pas_ee(0.3, 0.65, fdd)
        assert pas_se(0.3, 0.65, tdd) >= pas_se(0.3, 0.65, fdd)

    def test_per_arm_loadings(self, base_config):
        cfg = replace(base_config, duplex=Duplex.TDD)
        lo = pa_with_loss(cfg.pa_low.scenario, 1.0)
        hi = pa_with_loss(cfg.pa_high.scenario, 1.0)
        want = 0.65 * se(0.4, lo) + 0.35 * se(0.15, hi)
        assert pas_se((0.4, 0.15), 0.65, cfg) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("xi", [(0.4, 0.15, 0.2), [0.4], ()])
    def test_per_arm_loading_needs_two_entries(self, base_config, xi):
        with pytest.raises(ValueError, match="exactly two entries"):
            pas_se(xi, 0.5, base_config)


@pytest.fixture(scope="module")
def tdd_clean(arm_low, arm_high):
    return PasConfig(
        pa_low=arm_low,
        pa_high=arm_high,
        frame_length=0.01,
        frame_count=20,
        insertion_loss_db=0.0,
        switching_time=0.0,
        duplex=Duplex.TDD,
    )


BAD_LOADING = r"^loading factor must lie in \(0, 1\]$"
TOO_FEW = r"^xi grid must contain at least two loadings$"


@pytest.fixture(scope="module")
def grid():
    return np.geomspace(0.02, 1.0, 20)


class TestFrontier:
    def test_meets_targets_and_monotone(self, tdd_clean, grid):
        targets = [8.0, 12.0, 14.0, 15.5, 16.5]
        pts = pas_frontier(targets, tdd_clean, xi_grid=grid)
        for t, p in zip(targets, pts):
            assert p.feasible
            assert p.se >= t - 1e-9
        ees = [p.ee for p in pts]
        assert all(b <= a + 1e-9 for a, b in zip(ees, ees[1:]))

    def test_infeasible_target_flagged(self, tdd_clean, grid):
        pts = pas_frontier([25.0], tdd_clean, xi_grid=grid)
        assert not pts[0].feasible
        assert math.isnan(pts[0].ee)

    def test_zero_target_asks_for_the_best_ee(self, tdd_clean, grid):
        pts = pas_frontier([0.0, 8.0, 16.0], tdd_clean, xi_grid=grid)
        assert all(p.feasible for p in pts)
        assert pts[0].ee == max(p.ee for p in pts)

    @pytest.mark.parametrize(
        "bad, message",
        [([0.1, math.nan], BAD_LOADING), ([0.0, 0.5], BAD_LOADING), ([0.5, 1.5], BAD_LOADING),
         ([0.5], TOO_FEW), ([0.5, 0.5], TOO_FEW)],
    )
    def test_bad_grid_rejected(self, bad, message, tdd_clean):
        with pytest.raises(ValueError, match=message):
            pas_frontier([8.0], tdd_clean, xi_grid=bad)

    @pytest.mark.parametrize("targets", [[], [math.nan], [math.inf], [8.0, -1e-9]])
    def test_invalid_targets_rejected(self, targets, tdd_clean, grid):
        with pytest.raises(ValueError, match="targets"):
            pas_frontier(targets, tdd_clean, xi_grid=grid)

    def test_kappa_on_lattice(self, tdd_clean, grid):
        pts = pas_frontier([10.0, 15.0], tdd_clean, xi_grid=grid)
        for p in pts:
            if p.feasible:
                assert p.kappa == pytest.approx(round(p.kappa * 20) / 20, abs=1e-12)

    def test_per_pa_mode_at_least_as_good(self, tdd_clean, grid):
        targets = [14.0, 16.0]
        shared = pas_frontier(targets, tdd_clean, xi_mode="shared", xi_grid=grid)
        per_pa = pas_frontier(targets, tdd_clean, xi_mode="per_pa", xi_grid=grid)
        for s, p in zip(shared, per_pa):
            assert p.ee >= s.ee - 1e-9

    def test_dominates_single_arms(self, tdd_clean, grid):
        # with no switching penalty the schedule can always fall back to
        # running one arm full time, so it cannot lose to either single curve
        low_curve = ee_sweep(tdd_clean.pa_low.scenario, tdd_clean.pa_low.power, grid)
        high_curve = ee_sweep(tdd_clean.pa_high.scenario, tdd_clean.pa_high.power, grid)
        targets = [10.0, 13.0, 15.0, 16.5]
        pts = pas_frontier(targets, tdd_clean, xi_grid=grid)
        for t, p in zip(targets, pts):
            for curve in (low_curve, high_curve):
                ok = curve["se_exact"] >= t - 1e-9
                if np.any(ok):
                    best = float(np.max(curve["ee_exact"][ok]))
                    assert p.ee >= best - 1e-9

    @pytest.mark.parametrize("xi_mode", ["shared", "per_pa"])
    @pytest.mark.parametrize(
        "duplex, eps, gs_db",
        [(Duplex.TDD, 0.0, 0.0), (Duplex.FDD, 1e-5, 1.0), (Duplex.FDD, 1e-3, 1.0)],
    )
    @se_memo()
    def test_points_are_the_scalar_schedule(self, tdd_clean, grid, xi_mode, duplex, eps, gs_db):
        # the frontier and pas_se/pas_ee evaluate one schedule formula, so
        # every chosen point reproduces exactly, not just to rounding
        cfg = replace(tdd_clean, duplex=duplex, switching_time=eps, insertion_loss_db=gs_db)
        pts = pas_frontier(np.linspace(6.0, 17.0, 12), cfg, xi_grid=grid, xi_mode=xi_mode)
        feasible = [p for p in pts if p.feasible]
        assert feasible
        for p in feasible:
            assert pas_se((p.xi1, p.xi2), p.kappa, cfg) == p.se, p
            assert pas_ee((p.xi1, p.xi2), p.kappa, cfg) == p.ee, p

    def test_bad_mode_rejected(self, tdd_clean, grid):
        with pytest.raises(ValueError):
            pas_frontier([10.0], tdd_clean, xi_mode="other", xi_grid=grid)


def schedule_candidates(config, xis, xi_mode):
    """Every (pas_se, pas_ee, kappa, xi1, xi2) the frontier searches, in its
    order: kappa-major, then the loading pairs (the grid's diagonal for
    shared, every (xi1, xi2) with xi1 major for per_pa)."""
    pairs = [(x, x) for x in xis] if xi_mode == "shared" else [(a, b) for a in xis for b in xis]
    out = []
    with se_memo():
        for k in range(config.frame_count + 1):
            kappa = k / config.frame_count
            out.extend(
                (pas_se(pair, kappa, config), pas_ee(pair, kappa, config), kappa, *pair) for pair in pairs
            )
    return out


def brute_force_pick(target, candidates):
    """The first candidate of largest pas_ee among those whose pas_se reaches
    target - 1e-12, by a plain loop; None when none does."""
    pick = None
    for cand in candidates:
        if cand[0] >= target - 1e-12 and (pick is None or cand[1] > pick[1]):
            pick = cand
    return pick


class TestFrontierSelection:
    @pytest.mark.parametrize("xi_mode", ["shared", "per_pa"])
    def test_each_point_is_the_brute_force_pick(self, tdd_clean, xi_mode):
        cfg = replace(tdd_clean, duplex=Duplex.FDD, switching_time=1e-5, insertion_loss_db=1.0)
        xis = list(np.geomspace(0.02, 1.0, 8))
        candidates = schedule_candidates(cfg, xis, xi_mode)
        ses = sorted(c[0] for c in candidates)
        # zero, a candidate's SE, one that only the top candidate meets and
        # only within the 1e-12 slack, targets spread between the
        # candidates, and one above every candidate
        targets = [0.0, ses[len(ses) // 2], ses[-1] + 5e-13]
        targets += list(np.linspace(ses[0], ses[-1], 9)) + [ses[-1] + 1.0]
        want = [brute_force_pick(t, candidates) for t in targets]
        got = pas_frontier(targets, cfg, xi_grid=xis, xi_mode=xi_mode)
        assert want[2] is not None and want[-1] is None
        for target, point, pick in zip(targets, got, want):
            assert point.se_target == target
            if pick is None:
                assert not point.feasible
                assert all(math.isnan(v) for v in (point.se, point.ee, point.kappa, point.xi1, point.xi2))
            else:
                assert point.feasible
                assert (point.se, point.ee, point.kappa, point.xi1, point.xi2) == pick, target

    def test_no_targets_by_candidates_array(self, tdd_clean):
        # 200 targets over 21 kappas x 100^2 loading pairs: a boolean
        # targets x candidates mask alone would take 42 MB
        xis = np.geomspace(0.02, 1.0, 100)
        targets = np.linspace(0.0, 20.0, 200)
        candidates = (tdd_clean.frame_count + 1) * xis.size**2
        tracemalloc.start()
        try:
            pas_frontier(targets, tdd_clean, xi_grid=xis, xi_mode="per_pa")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < targets.size * candidates

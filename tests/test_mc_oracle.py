"""OFDM link simulator and its statistical estimators."""

import contextlib
import math
import sys

import numpy as np
import pytest

from ofdmsee import (
    ChannelProfile,
    EstimatorError,
    FrameConfig,
    RappParams,
    analytic_radial_cdf,
    clip_probability,
    empirical_pdf_distance,
    estimate_mi,
    estimate_mi_radial,
    mc_oracle,
    radial_statistics,
    rapp,
    se,
    se_ideal,
    simulate_frames,
    verify_multipath_bound,
)


def make_config(**kw):
    base = dict(n_subcarriers=256, cp_length=16, n_frames=200, seed=1234)
    base.update(kw)
    return FrameConfig(**base)


def serial_chain(config, xi, scenario, taps):
    """The simulated chain written out batch by batch on one thread.

    Each 512-frame batch b draws from Philox(key=seed).jumped(b): the real
    then the imaginary symbol parts, then (with noise) the real then the
    imaginary noise parts. The limiter is out_amp * (x / amp).
    """
    n, ncp = config.n_subcarriers, config.cp_length
    sig_scale = math.sqrt(xi * scenario.p_max_in / 2.0)
    noise_scale = math.sqrt(scenario.noise_variance / 2.0)

    def gaussian(rng, scale, shape):
        z = np.empty(shape, dtype=complex)
        z.real = scale * rng.standard_normal(shape)
        z.imag = scale * rng.standard_normal(shape)
        return z

    blocks = []
    for b in range(-(-config.n_frames // 512)):
        frames = min(512, config.n_frames - 512 * b)
        rng = np.random.Generator(np.random.Philox(key=config.seed).jumped(b))
        x = np.fft.ifft(gaussian(rng, sig_scale, (frames, n)), norm="ortho", axis=1)
        if config.pa_model != "bypass":
            amp = np.abs(x)
            with np.errstate(invalid="ignore", divide="ignore"):
                phase = np.where(amp > 0.0, x / np.where(amp > 0.0, amp, 1.0), 0.0)
            if config.pa_model == "soft_limiter":
                out_amp = np.minimum(math.sqrt(scenario.gain) * amp, scenario.b_max)
            else:
                out_amp = rapp(amp, config.pa_model)
            x = out_amp * phase
        tx = np.concatenate([x[:, n - ncp :], x], axis=1)
        rx = np.zeros((frames, n), dtype=complex)
        for lag, h in enumerate(np.asarray(taps, dtype=complex)):
            if h != 0.0:
                rx = rx + h * tx[:, ncp - lag : ncp - lag + n]
        if config.include_noise:
            rx = rx + gaussian(rng, noise_scale, (frames, n))
        blocks.append(rx.ravel())
    return np.concatenate(blocks)


@contextlib.contextmanager
def forced_workers(monkeypatch, workers):
    """The simulator's worker count forced; with more workers than cores,
    threads switch about every microsecond."""
    monkeypatch.setattr(mc_oracle, "_usable_cpus", lambda: workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


TAPS = {"flat": (1.0,), "3-tap": (0.8, 0.5j, -0.2 + 0.1j)}


class TestFrameConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_config(n_subcarriers=100)  # not a power of two
        with pytest.raises(ValueError):
            make_config(n_subcarriers=32)  # too small
        with pytest.raises(ValueError):
            make_config(n_frames=0)
        with pytest.raises(ValueError):
            make_config(cp_length=-1)

    @pytest.mark.parametrize("seed", [2**64, -1, 1.5])
    def test_seed_must_fit_in_64_bits(self, seed):
        with pytest.raises(ValueError, match="seed must fit in 64 bits"):
            make_config(seed=seed)
        make_config(seed=2**64 - 1)

    @pytest.mark.parametrize("pa_model", ["rapp", None, 1.0])
    def test_unknown_pa_model_rejected(self, pa_model):
        with pytest.raises(ValueError, match="pa_model must be"):
            make_config(pa_model=pa_model)

    def test_cp_longer_than_the_frame_rejected(self, scenario):
        # such a prefix once failed inside simulate_frames with a numpy
        # broadcast error
        with pytest.raises(ValueError, match="cp_length"):
            make_config(n_subcarriers=256, cp_length=257)
        # a prefix of the whole frame is still a valid shape
        config = make_config(n_subcarriers=64, cp_length=64, n_frames=2)
        assert simulate_frames(config, 0.2, scenario).shape == (2 * 64,)


class TestSimulateFrames:
    def test_shape_and_determinism(self, scenario):
        cfg = make_config(n_frames=10)
        a = simulate_frames(cfg, 0.2, scenario)
        b = simulate_frames(cfg, 0.2, scenario)
        assert a.shape == (10 * 256,)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_stream(self, scenario):
        a = simulate_frames(make_config(n_frames=4), 0.2, scenario)
        b = simulate_frames(make_config(n_frames=4, seed=77), 0.2, scenario)
        assert not np.array_equal(a, b)

    def test_mean_power_tracks_loading(self, scenario):
        cfg = make_config(n_frames=800)
        for xi in (0.05, 0.2):
            y = simulate_frames(cfg, xi, scenario)
            want = scenario.signal_power(xi) + scenario.noise_variance
            n = y.size
            # |y|^2 is approximately exponential: std of the mean ~ want/sqrt(n)
            assert np.mean(np.abs(y) ** 2) == pytest.approx(want, abs=4.5 * want / math.sqrt(n))

    def test_clip_fraction_matches_formula(self, scenario):
        xi = 0.5
        cfg = make_config(n_frames=800, include_noise=False, pa_model="soft_limiter")
        y = simulate_frames(cfg, xi, scenario)
        frac = float(np.mean(np.isclose(np.abs(y), scenario.b_max, rtol=1e-9)))
        want = clip_probability(xi)
        se_bin = math.sqrt(want * (1 - want) / y.size)
        assert frac == pytest.approx(want, abs=5 * se_bin)

    def test_bypass_pa_is_linear(self, scenario):
        cfg = make_config(n_frames=4, include_noise=False, pa_model="bypass")
        y = simulate_frames(cfg, 0.9, scenario)
        # linear chain: power is exactly xi * p_max_out on average and no
        # sample is clamped to the ceiling
        assert not np.any(np.isclose(np.abs(y), scenario.b_max, rtol=1e-12))

    def test_flat_channel_equals_no_channel(self, scenario):
        cfg = make_config(n_frames=4)
        a = simulate_frames(cfg, 0.2, scenario)
        b = simulate_frames(cfg, 0.2, scenario, channel=ChannelProfile.flat())
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)

    def test_rejects_out_of_range_loading(self, scenario):
        for bad in (0.0, 1.5, math.nan):
            with pytest.raises(ValueError):
                simulate_frames(make_config(n_frames=1), bad, scenario)

    def test_cp_shorter_than_channel_rejected(self, scenario):
        taps = tuple(np.sqrt([0.5, 0.3, 0.2]).astype(complex))
        with pytest.raises(ValueError):
            simulate_frames(make_config(cp_length=2), 0.2, scenario, ChannelProfile(taps=taps))

    def test_circular_equivalence_under_cp(self, scenario):
        # with the amplifier bypassed and no noise, prefix insertion, linear
        # convolution, and prefix stripping must reduce to a circular
        # convolution, i.e. a per-subcarrier product with the tap DFT
        taps = np.sqrt([0.6, 0.25, 0.15]).astype(complex)
        taps[1] *= np.exp(0.7j)
        taps[2] *= np.exp(-2.1j)
        prof = ChannelProfile(taps=tuple(taps))
        cfg = make_config(n_frames=6, include_noise=False, pa_model="bypass")
        flat = simulate_frames(cfg, 0.3, scenario).reshape(6, 256)
        faded = simulate_frames(cfg, 0.3, scenario, prof).reshape(6, 256)
        h = np.fft.fft(np.concatenate([taps, np.zeros(256 - 3)]))
        want = np.fft.ifft(h * np.fft.fft(flat, axis=1), axis=1)
        np.testing.assert_allclose(faded, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize(
        "pa_model, channel, include_noise",
        [
            ("soft_limiter", "flat", True),
            ("soft_limiter", "3-tap", False),
            ("rapp", "3-tap", True),
            ("rapp", "flat", False),
            ("bypass", "3-tap", True),
        ],
    )
    def test_equals_the_serial_chain(
        self, scenario, monkeypatch, workers, pa_model, channel, include_noise
    ):
        # 1100 frames are three batches, the last one partial
        taps = TAPS[channel]
        if pa_model == "rapp":
            pa_model = RappParams(scenario.gain, scenario.b_max, 2.0)
        cfg = FrameConfig(64, 4, 1100, seed=2024, pa_model=pa_model, include_noise=include_noise)
        with forced_workers(monkeypatch, workers):
            got = simulate_frames(cfg, 0.6, scenario, ChannelProfile(taps=taps))
        assert np.array_equal(got, serial_chain(cfg, 0.6, scenario, taps))


class TestLinkStatistics:
    """mc-validate's loadings on shared draws against one run per loading."""

    XIS = (0.05, 0.3, 0.9)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize(
        "pa_model, channel",
        [("soft_limiter", "flat"), ("soft_limiter", "3-tap"), ("rapp", "3-tap"), ("bypass", "flat")],
    )
    def test_each_loading_equals_its_own_run(self, scenario, monkeypatch, workers, pa_model, channel):
        # 1100 frames of 64 subcarriers are three batches, the last one partial
        if pa_model == "rapp":
            pa_model = RappParams(scenario.gain, scenario.b_max, 2.0)
        cfg = FrameConfig(64, 4, 1100, seed=2024, pa_model=pa_model)
        prof = ChannelProfile(taps=TAPS[channel])
        with forced_workers(monkeypatch, workers):
            got = list(mc_oracle._link_statistics(cfg, self.XIS, scenario, prof))
        want = [
            radial_statistics(simulate_frames(cfg, xi, scenario, prof), xi, scenario)
            for xi in self.XIS
        ]
        assert got == want

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize(
        "n_sub, frames, channel", [(64, 1100, "flat"), (64, 1100, "3-tap"), (32768, 3, "3-tap")]
    )
    def test_noiseless_magnitudes_and_phase_sums(
        self, scenario, monkeypatch, workers, n_sub, frames, channel
    ):
        # without noise the limiter's flat top ties magnitudes, which the MI
        # estimate rejects; the magnitudes and phase sums are still each
        # run's. A frame of 32768 samples is a sub-block of two blocks.
        cfg = FrameConfig(n_sub, 4, frames, seed=2024, include_noise=False)
        prof = ChannelProfile(taps=TAPS[channel])
        with forced_workers(monkeypatch, workers):
            radii, slots = mc_oracle._link_radii(cfg, self.XIS, scenario, prof)
        for j, xi in enumerate(self.XIS):
            r, want_slots = mc_oracle._radii(simulate_frames(cfg, xi, scenario, prof))
            assert np.array_equal(radii[j], r)
            assert np.array_equal(slots[j], want_slots)

    def test_five_loadings_take_two_groups(self, scenario, monkeypatch):
        groups = []
        run_chain = mc_oracle._run_chain

        def counted(config, xis, *args):
            groups.append(list(xis))
            return run_chain(config, xis, *args)

        monkeypatch.setattr(mc_oracle, "_run_chain", counted)
        cfg = FrameConfig(128, 8, 600, seed=99)
        xis = [0.05, 0.1, 0.2, 0.4, 0.7]
        got = list(mc_oracle._link_statistics(cfg, xis, scenario))
        assert groups == [xis[:4], xis[4:]]
        assert got == [next(mc_oracle._link_statistics(cfg, [xi], scenario)) for xi in xis]

    def test_non_circular_link_fails_as_radial_statistics_does(self, scenario, monkeypatch):
        # halving the quadrature part after the amplifier breaks the
        # circular symmetry at harmonic 2; the phase sums kept by the workers
        # must give the error that the samples give
        apply_pa = mc_oracle._apply_pa

        def skewed(x, *args):
            apply_pa(x, *args)
            x.imag *= 0.5

        monkeypatch.setattr(mc_oracle, "_apply_pa", skewed)
        cfg = FrameConfig(64, 4, 1100, seed=7)
        with pytest.raises(EstimatorError, match="k=2") as shared:
            list(mc_oracle._link_statistics(cfg, [0.3], scenario))
        with pytest.raises(EstimatorError) as alone:
            radial_statistics(simulate_frames(cfg, 0.3, scenario), 0.3, scenario)
        assert str(shared.value) == str(alone.value)


class TestRadialCdfAndKs:
    def test_cdf_shape(self, scenario):
        grid, cdf = analytic_radial_cdf(0.3, scenario)
        assert grid.shape == cdf.shape
        assert cdf[0] == pytest.approx(0.0, abs=1e-12)
        assert cdf[-1] == pytest.approx(1.0, abs=1e-5)
        assert np.all(np.diff(cdf) >= -1e-12)

    def test_ks_small_for_matching_distribution(self, scenario):
        cfg = make_config(n_frames=400)
        y = simulate_frames(cfg, 0.5, scenario)
        assert empirical_pdf_distance(y, 0.5, scenario) < 0.01

    def test_ks_large_for_wrong_loading(self, scenario):
        cfg = make_config(n_frames=100)
        y = simulate_frames(cfg, 0.5, scenario)
        assert empirical_pdf_distance(y, 0.1, scenario) > 0.1

    def test_ks_self_consistency_via_inverse_cdf(self, scenario):
        # draw from the analytic CDF by inverse sampling; KS must be tiny
        grid, cdf = analytic_radial_cdf(0.4, scenario)
        rng = np.random.default_rng(5)
        u = rng.uniform(0.0, cdf[-1], size=200000)
        radii = np.interp(u, cdf, grid)
        phases = rng.uniform(0.0, 2 * np.pi, size=radii.size)
        fake = radii * np.exp(1j * phases)
        assert empirical_pdf_distance(fake, 0.4, scenario) < 0.005


class TestMutualInformation:
    estimate = staticmethod(estimate_mi)

    def test_linear_gaussian_matches_shannon(self, scenario):
        # hand-built linear AWGN samples: the estimator must recover Shannon
        rng = np.random.default_rng(31)
        n = 200000
        p_sig = 0.1 * scenario.p_max_out
        s = math.sqrt(p_sig / 2.0) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        zs = math.sqrt(scenario.noise_variance / 2.0)
        y = s + zs * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        got = self.estimate(y, scenario)
        want = se_ideal(0.1, scenario)
        assert got == pytest.approx(want, abs=0.05)

    def test_clipped_link_matches_analytic_se(self, scenario):
        cfg = make_config(n_frames=800)
        y = simulate_frames(cfg, 0.4, scenario)
        assert self.estimate(y, scenario) == pytest.approx(se(0.4, scenario), abs=0.1)

    def test_noise_only_is_zero_information(self, scenario):
        rng = np.random.default_rng(9)
        s = math.sqrt(scenario.noise_variance / 2.0)
        z = rng.normal(0, s, 100000) + 1j * rng.normal(0, s, 100000)
        assert self.estimate(z, scenario) == pytest.approx(0.0, abs=0.02)

    def test_needs_enough_samples(self, scenario):
        with pytest.raises(EstimatorError):
            self.estimate(np.ones(50, dtype=complex), scenario)


class TestRadialMutualInformation(TestMutualInformation):
    """The same cases at the same bounds, plus the samples it must reject."""

    estimate = staticmethod(estimate_mi_radial)

    def test_rejects_unequal_iq_variances(self, scenario):
        # 4:1 I/Q variances: E[e^{2i*phase}] = 1/3, so harmonic 2 fails
        rng = np.random.default_rng(41)
        n = 100000
        y = 2.0 * rng.standard_normal(n) + 1j * rng.standard_normal(n)
        with pytest.raises(EstimatorError, match="k=2"):
            estimate_mi_radial(y, scenario)

    def test_rejects_qpsk_cloud(self, scenario):
        # QPSK plus noise: harmonics 1 to 3 vanish, only k = 4 shows
        rng = np.random.default_rng(42)
        n = 100000
        sym = np.exp(1j * (np.pi / 4 + np.pi / 2 * rng.integers(0, 4, n)))
        y = sym + 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        with pytest.raises(EstimatorError, match="k=4"):
            estimate_mi_radial(y, scenario)

    def test_rejects_tied_magnitudes(self, scenario):
        # a tenth of the samples are exact zeros: a point mass has no
        # density, and its run of equal magnitudes gives zero m-spacings
        rng = np.random.default_rng(43)
        n = 100000
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y[: n // 10] = 0.0
        with pytest.raises(EstimatorError, match="tied"):
            estimate_mi_radial(y, scenario)

    def test_rejects_non_finite_samples(self, scenario):
        rng = np.random.default_rng(44)
        y = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        for bad in (np.nan, np.inf):
            y[7] = bad
            with pytest.raises(EstimatorError, match="non-finite"):
                estimate_mi_radial(y, scenario)

    def test_radial_statistics_is_both_estimators(self, scenario):
        y = simulate_frames(make_config(n_frames=40), 0.3, scenario)
        ks, mi = radial_statistics(y, 0.3, scenario)
        assert ks == empirical_pdf_distance(y, 0.3, scenario)
        assert mi == estimate_mi_radial(y, scenario)
        with pytest.raises(EstimatorError, match="too few"):
            radial_statistics(y[:50], 0.3, scenario)


class TestKnnOracle:
    def test_tree_order_query_is_the_plain_query(self):
        # 20,000 points fill over a thousand leaves of 16, and the leaf
        # order is far from the input order
        from scipy.spatial import cKDTree

        pts = np.random.default_rng(45).standard_normal((20000, 2))
        tree = cKDTree(pts)
        assert np.count_nonzero(tree.indices != np.arange(len(pts))) > len(pts) // 2
        plain = tree.query(pts, k=[5])[0][:, 0]
        assert np.array_equal(mc_oracle._kth_neighbor_distances(pts, 4), plain)


class TestMultipathBound:
    def test_exponential_profile_bound_holds(self, scenario):
        p = np.exp(-np.arange(4) / 1.5)
        p /= p.sum()
        prof = ChannelProfile(taps=tuple(np.sqrt(p).astype(complex)))
        cfg = make_config(n_frames=800)
        bound, est, slack = verify_multipath_bound(cfg, 0.1, scenario, prof)
        assert slack >= -0.05
        assert (est - bound) / est <= 0.10

    def test_flat_profile_slack_is_clipping_plus_noise(self, scenario):
        prof = ChannelProfile.flat()
        cfg = make_config(n_frames=400)
        bound, est, slack = verify_multipath_bound(cfg, 0.1, scenario, prof)
        assert abs(slack) <= 0.1  # exact bound for one tap, MC noise only


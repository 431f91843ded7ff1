"""Received-signal statistics, spectral efficiency, and loading optimizers."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from ofdmsee import (
    ChannelProfile,
    IntegrationError,
    build_scenario,
    clip_probability,
    entropy_y,
    find_pa,
    multipath_equiv_gain,
    noise_entropy,
    pdf_clipped,
    pdf_radial,
    pdf_unclipped,
    se,
    se_ibo,
    se_ideal,
    se_lower_bound_multipath,
    se_curve,
    se_memo,
    se_sweep,
    xi_se_max,
    xi_se_opt,
)
from ofdmsee import se_engine, specfun
from ofdmsee.se_engine import ENTROPY_TOL, _entropy_edges, _radial_window
from ofdmsee.specfun import _BLOCK_ROWS, gauss_panels


def pdf_unclipped_256(r, xi, scenario):
    """The unclipped density as an amplitude integral at 256 Gauss-Legendre
    nodes, an oracle for the cumulative Marcum complement pdf_unclipped runs on.

    Integrates the Rician amplitude density over the signal amplitude rho
    rather than over the noncentrality, on a window of 16 ridge widths to
    each side of the ridge rho* = r gp / (gp + sigma^2), kept inside
    [0, b_max] (or its last 32 widths when the ridge lies beyond b_max), all
    radii in one unblocked pass.
    """
    r = np.asarray(r, dtype=float)
    gp = scenario.signal_power(xi)
    s2 = scenario.noise_variance
    bmax = scenario.b_max
    rho_star = r * gp / (gp + s2)
    w = math.sqrt(gp * s2 / (2.0 * (gp + s2)))
    lo = np.maximum(0.0, rho_star - 16.0 * w)
    hi = np.minimum(bmax, rho_star + 16.0 * w)
    beyond = lo >= bmax
    lo = np.where(beyond, max(0.0, bmax - 32.0 * w), lo)
    hi = np.where(beyond, bmax, hi)
    t, wq = np.polynomial.legendre.leggauss(256)
    half = 0.5 * (hi - lo)[:, None]
    rho = 0.5 * (hi + lo)[:, None] + half * t
    rc = r[:, None]
    with np.errstate(under="ignore"):
        vals = rho * np.exp(-(rho**2) / gp - (rho - rc) ** 2 / s2)
        vals *= scipy.special.i0e(2.0 * rho * rc / s2)
    return 2.0 / (math.pi * gp * s2) * np.sum(half * wq * vals, axis=1)


def interior(r, xi, scenario):
    """Radii whose ridge lies more than 16 of its widths below b_max
    (a + 16 < b): a subset of those whose Marcum complement is exactly 1
    (b - a > 9), where the unclipped density does not see the truncation."""
    gp = scenario.signal_power(xi)
    s2 = scenario.noise_variance
    rho_star = np.asarray(r, dtype=float) * gp / (gp + s2)
    return rho_star + 16.0 * math.sqrt(gp * s2 / (2.0 * (gp + s2))) < scenario.b_max


def partial_rows(r, xi, scenario):
    """Radii whose Marcum complement integrates a partial panel (a + 9 >= b,
    the rows marcum_q1_complement works on in blocks), with a and b as
    pdf_unclipped forms them."""
    gp = scenario.signal_power(xi)
    s2 = scenario.noise_variance
    total = gp + s2
    a = np.asarray(r, dtype=float) * math.sqrt(2.0 * gp / (total * s2))
    b = scenario.b_max * math.sqrt(2.0 * total / (gp * s2))
    return a + specfun._ONE_CUT >= b


def untruncated_gaussian(r, xi, scenario):
    total = scenario.signal_power(xi) + scenario.noise_variance
    return np.exp(-(r**2) / total) / (math.pi * total)


def entropy_y_80(xi, scenario):
    """entropy_y on its earlier panel layout, an oracle for the right-sized
    one: 33 edges over the bulk, 9 across a gap before the clip ring, 49 over
    the ring, 32 nodes per panel checked at 48, same density and tolerance.
    """
    gp = scenario.signal_power(xi)
    ring_lo, r_cut = _radial_window(scenario)
    bulk_hi = min(r_cut, 10.0 * math.sqrt(gp + scenario.noise_variance))
    parts = [np.linspace(0.0, bulk_hi, 33)]
    if ring_lo > bulk_hi:
        parts.append(np.linspace(bulk_hi, ring_lo, 9))
    parts.append(np.linspace(ring_lo, r_cut, 49))
    edges = np.unique(np.concatenate(parts + [np.asarray([r_cut])]))

    def integrand(radii):
        f = pdf_radial(radii, xi, scenario)
        return -2.0 * math.pi * radii * f * np.log(np.where(f > 0.0, f, 1.0))

    ln2 = math.log(2.0)
    return gauss_panels(integrand, edges, order=32, tol=ENTROPY_TOL * ln2) / ln2


# se(xi) on the reference macro link (G = 5 dB, alpha = 3.76, -174 dBm/Hz,
# 10 MHz) at (PA, distance in km, xi), peak SNR from +100 to -24 dB, as an
# earlier, unblocked 192-node ridge quadrature of the density computed them;
# the values are pinned, so they do not move with the Marcum rule se() runs on
SE_FINGERPRINT = (
    ("SM2122-44L", 0.0102, 0.3, 30.950820685544578),  # 99.9 dB
    ("SM1720-50", 0.015, 0.001, 23.1136332392864),  # 99.6 dB
    ("SM2122-44L", 0.02, 0.7, 25.86048226946381),  # 88.9 dB
    ("SM1720-50", 0.035, 0.05, 24.161293824533345),  # 85.7 dB
    ("SM2122-44L", 0.05, 1.0, 20.441411585459417),  # 73.9 dB
    ("SM1720-50", 0.08, 0.01, 17.355028783735893),  # 72.2 dB
    ("SM2122-44L", 0.12, 0.1, 16.48409053500812),  # 59.6 dB
    ("SM1720-50", 0.2, 1e-06, 0.6179763811220145),  # 57.3 dB
    ("SM2122-44L", 0.3, 0.3, 12.924963031058045),  # 44.7 dB
    ("SM1720-50", 0.5, 0.001, 4.174392600105193),  # 42.3 dB
    ("SM2122-44L", 0.8, 0.7, 8.116034757426881),  # 28.6 dB
    ("SM1720-50", 1.2, 0.05, 5.0318282032243165),  # 28.0 dB
    ("SM2122-44L", 2.0, 1.0, 3.7558485478692023),  # 13.7 dB
    ("SM1720-50", 3.0, 0.01, 0.2658126872975073),  # 13.1 dB
    ("SM2122-44L", 5.0, 0.1, 0.10359566958392286),  # -1.3 dB
    ("SM1720-50", 8.0, 1e-06, 7.303920401824371e-07),  # -3.0 dB
    ("SM2122-44L", 12.0, 0.3, 0.011509717126571672),  # -15.6 dB
    ("SM1720-50", 17.0, 0.001, 4.292201806421758e-05),  # -15.3 dB
    ("SM2122-44L", 20.0, 0.7, 0.0031113177686687976),  # -23.9 dB
    ("SM1720-50", 25.0, 0.05, 0.0005032854272144505),  # -21.6 dB
)


class TestScenario:
    def test_reference_link_budget(self, scenario):
        # 44 dBm PA, 55 dB gain, G = 5 dB, alpha = 3.76, d = 200 m,
        # -174 dBm/Hz over 10 MHz
        assert scenario.noise_variance == pytest.approx(1.870134248498386e-4, rel=1e-12)
        assert 10 * math.log10(scenario.gamma) == pytest.approx(51.281272163034295, abs=1e-9)

    def test_signal_power_identity(self, scenario):
        # amplifier input loading xi puts xi * p_max_out at the (virtual)
        # linear output: g * P_in = xi * p_max_out
        for xi in (0.05, 0.4, 1.0):
            assert scenario.signal_power(xi) == pytest.approx(
                xi * scenario.p_max_out, rel=1e-12
            )

    @pytest.mark.parametrize(
        "taps, message", [((), "at least one tap"), ((0.0, 0.0j), "power"), ((1e200, 1.0), "power")]
    )
    def test_channel_profile_needs_finite_positive_power(self, taps, message):
        with pytest.raises(ValueError, match=message):
            ChannelProfile(taps=taps)

    def test_noise_entropy_matches_gaussian(self, scenario):
        want = math.log2(math.pi * math.e * scenario.noise_variance)
        assert noise_entropy(scenario) == pytest.approx(want, rel=1e-14)


class TestRadialPdf:
    @pytest.mark.parametrize("xi", [0.01, 0.1, 0.5, 1.0])
    def test_total_mass_one(self, xi, scenario):
        from ofdmsee.se_engine import _entropy_edges
        from ofdmsee.specfun import gauss_panels

        edges = _entropy_edges(xi, scenario)
        f = lambda r: 2 * np.pi * r * pdf_radial(r, xi, scenario)
        mass = gauss_panels(f, edges, order=32, tol=1e-9)
        assert mass == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("xi", [0.1, 0.5, 1.0])
    def test_branch_masses(self, xi, scenario):
        from ofdmsee.se_engine import _entropy_edges
        from ofdmsee.specfun import gauss_panels

        edges = _entropy_edges(xi, scenario)
        pclip = clip_probability(xi)
        m0 = gauss_panels(
            lambda r: 2 * np.pi * r * pdf_unclipped(r, xi, scenario),
            edges, order=32, tol=1e-9,
        )
        m1 = gauss_panels(
            lambda r: 2 * np.pi * r * pdf_clipped(r, xi, scenario),
            edges, order=32, tol=1e-9,
        )
        assert m0 == pytest.approx(1.0 - pclip, abs=1e-6)
        assert m1 == pytest.approx(pclip, abs=1e-6)

    def test_closed_form_matches_integral(self, scenario):
        # scipy-only closed form: the untruncated Gaussian times the CDF of a
        # noncentral chi-square (2 degrees of freedom, noncentrality a^2) at b^2
        for xi in (0.05, 0.3, 1.0):
            r = np.linspace(0.0, scenario.b_max * 1.2, 100)
            gp = scenario.signal_power(xi)
            s2 = scenario.noise_variance
            total = gp + s2
            a = r * math.sqrt(2.0 * gp / (total * s2))
            b = scenario.b_max * math.sqrt(2.0 * total / (gp * s2))
            ref = untruncated_gaussian(r, xi, scenario) * scipy.special.chndtr(b * b, 2.0, a * a)
            got = pdf_unclipped(r, xi, scenario)
            assert np.max(np.abs(got - ref)) <= 1e-6 * np.max(got)

    def test_integral_against_scipy_quad(self, scenario):
        # independent evaluation of the folded ring integral at a few radii
        xi = 0.3
        gp = scenario.signal_power(xi)
        s2 = scenario.noise_variance
        bmax = scenario.b_max
        from ofdmsee.specfun import bessel_i0e

        import scipy.special

        for r in (0.0, 0.2 * bmax, 0.8 * bmax, 1.05 * bmax):
            def integrand(rho):
                # rho * exp(-rho^2/gp - (rho^2 + r^2)/s2) * I0(2 rho r / s2)
                # with the Bessel growth kept folded to avoid overflow
                z = 2 * rho * r / s2
                expo = -rho * rho / gp - (rho - r) ** 2 / s2
                return rho * math.exp(expo) * float(scipy.special.i0e(z))

            # the ring around rho = r is ~sqrt(s2) wide in a span of b_max;
            # split there so the adaptive rule cannot step over it
            width = 30.0 * math.sqrt(s2)
            cuts = sorted({0.0, max(0.0, r - width), min(bmax, r + width), bmax})
            ref = 0.0
            for a_cut, b_cut in zip(cuts, cuts[1:]):
                if b_cut > a_cut:
                    part, _ = scipy.integrate.quad(integrand, a_cut, b_cut, limit=400)
                    ref += part
            ref *= 2.0 / (math.pi * gp * s2)
            got = float(pdf_unclipped(r, xi, scenario))
            assert got == pytest.approx(ref, rel=1e-7, abs=1e-12), r

    def test_inner_rule_against_256_nodes(self, snr_scenario):
        # measured worst: 2.4e-10 at 100 dB, xi = 0.3, where b is about 1.4e5
        # and rounding a and b to doubles alone moves the density by ~1e-10.
        # Coarser lattices miss the bound: h = 1 at 6 nodes reaches 4.6e-8,
        # h = 2 at 8 nodes 9.5e-9
        worst = 0.0
        for gamma_db in np.arange(-30.0, 101.0, 10.0):
            sc = snr_scenario(gamma_db)
            for xi in (1e-6, 1e-3, 0.01, 0.1, 0.3, 0.7, 1.0):
                edges = _entropy_edges(xi, sc)
                r = np.concatenate([edges, 0.5 * (edges[1:] + edges[:-1])])
                got = pdf_unclipped(r, xi, sc)
                ref = pdf_unclipped_256(r, xi, sc)
                keep = ref > 1e-12 * ref.max()
                err = np.max(np.abs(got[keep] - ref[keep]) / ref[keep])
                assert err <= 1e-9, (gamma_db, xi, err)
                worst = max(worst, err)
        assert worst > 0.0

    @pytest.mark.parametrize("n", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 1000])
    def test_blocked_radii_match_scalar_calls(self, n, scenario):
        # a few interior radii, then n radii past the start of the partial
        # panels (0.98266 b_max at xi = 0.3): n partial rows, on either side
        # of the block size
        xi = 0.3
        b_max = scenario.b_max
        r = np.concatenate(
            [np.linspace(0.0, 0.5 * b_max, 4), np.linspace(0.99 * b_max, 1.2 * b_max, n)]
        )
        assert np.count_nonzero(partial_rows(r, xi, scenario)) == n
        inside = interior(r, xi, scenario)
        # one call mixes closed-form and quadrature rows
        assert inside.any() and (n == 1 or not inside.all())
        got = pdf_unclipped(r, xi, scenario)
        assert got.shape == r.shape
        one = [pdf_unclipped(float(ri), xi, scenario) for ri in r]
        assert all(isinstance(v, float) for v in one)
        assert np.array_equal(got, one)

    def test_radii_of_any_shape(self, scenario):
        # a 2-D grid of radii, mixing interior and quadrature rows, gives the
        # 1-D values in its own shape (both branches)
        r = np.linspace(0.0, 1.2 * scenario.b_max, 12)
        for pdf in (pdf_unclipped, pdf_clipped):
            got = pdf(r.reshape(3, 4), 0.3, scenario)
            assert got.shape == (3, 4)
            assert np.array_equal(got.ravel(), pdf(r, 0.3, scenario))

    @pytest.mark.parametrize("r", [-1.0, np.array([0.5, -1e-300]), math.nan, np.array([1.0, math.inf])])
    def test_negative_or_non_finite_radii_rejected(self, scenario, r):
        for pdf in (pdf_unclipped, pdf_clipped, pdf_radial):
            with pytest.raises(ValueError, match="radii must be finite and non-negative"):
                pdf(r, 0.3, scenario)

    @pytest.mark.parametrize("gamma_db, xi", [(51.0, 0.25), (100.0, 1e-6), (25.0, 0.7), (0.0, 1e-3)])
    def test_interior_rows_are_the_untruncated_gaussian(self, gamma_db, xi, snr_scenario):
        sc = snr_scenario(gamma_db)
        r = np.linspace(0.0, _radial_window(sc)[1], 4001)
        inside = interior(r, xi, sc)
        # at 0 dB and xi = 1e-3 every radius up to r_cut is interior
        assert inside.any() and (gamma_db <= 0.0 or not inside.all())
        want = untruncated_gaussian(r[inside], xi, sc)
        assert np.array_equal(pdf_unclipped(r, xi, sc)[inside], want)

    def test_clipped_branch_is_a_ring(self, scenario):
        xi = 0.8
        r = np.linspace(0.0, scenario.b_max + 8 * math.sqrt(scenario.noise_variance), 600)
        f = pdf_clipped(r, xi, scenario)
        peak = r[np.argmax(f)]
        assert peak == pytest.approx(scenario.b_max, rel=1e-2)


class TestSpectralEfficiency:
    def test_frozen_reference_points(self, scenario):
        assert se(0.1, scenario) == pytest.approx(13.71324626096657, abs=1e-6)
        assert se(0.25, scenario) == pytest.approx(14.932438933859284, abs=1e-6)
        assert entropy_y(0.25, scenario) == pytest.approx(5.642059563067989, abs=1e-6)

    def test_fingerprint(self):
        for model, d_km, xi, want in SE_FINGERPRINT:
            sc = build_scenario(5.0, 3.76, d_km, -174.0, 1e7, find_pa(model))
            err = abs(se(xi, sc) - want)
            assert err <= 1e-10, (model, d_km, xi, err)

    def test_kernel_work_per_se(self, scenario, monkeypatch):
        # a guard on kernel work that needs no timing: on the default
        # pas-frontier grid (48 log-spaced loadings from 0.02 to 1) at the
        # reference link, the Marcum complement hands specfun's Bessel
        # kernels 1,928 elements per se(), one lattice per loading for the
        # Kronrod rule and its Gauss check together (2,742 with a Gauss pair
        # of 8 and 12 nodes and a cut at b - a > 16); a curve hands them the
        # same count per loading
        elements = []

        def counted(kernel):
            def counting(x):
                elements.append(np.size(x))
                return kernel(x)

            return counting

        for name in ("bessel_i0e", "bessel_i1e"):
            monkeypatch.setattr(specfun, name, counted(getattr(specfun, name)))
        grid = np.geomspace(0.02, 1.0, 48)
        for xi in grid:
            se(float(xi), scenario)
        per_se = sum(elements)
        assert 0 < per_se <= 2000 * grid.size
        elements.clear()
        se_curve(grid, scenario)
        assert sum(elements) == per_se

    def test_rejects_out_of_range_loading(self, scenario):
        for bad in (0.0, 1.5, math.nan):
            with pytest.raises(ValueError):
                se(bad, scenario)

    def test_never_exceeds_linear_channel(self, scenario):
        for xi in (0.02, 0.1, 0.3, 0.7, 1.0):
            assert se(xi, scenario) <= se_ideal(xi, scenario) + 1e-9

    def test_ideal_is_shannon(self, scenario):
        for xi in (0.05, 0.5, 1.0):
            assert se_ideal(xi, scenario) == pytest.approx(
                math.log2(1.0 + scenario.gamma * xi), rel=1e-14
            )

    def test_ibo_deflates_by_clip_entropy_terms(self, scenario):
        # the approximation equals the ideal curve minus an exp(-1/xi) dent
        xi = 0.2
        pclip = clip_probability(xi)
        want = se_ideal(xi, scenario) + pclip * (
            1.0 / (xi * math.log(2.0))
            + math.log2(math.pi * math.e * scenario.noise_variance)
        )
        assert se_ibo(xi, scenario) == pytest.approx(want, rel=1e-12)

    def test_ibo_accuracy_window(self, scenario):
        for xi in np.linspace(0.02, 0.3, 15):
            exact = se(float(xi), scenario)
            approx = se_ibo(float(xi), scenario)
            assert abs(approx - exact) / exact <= 0.05

    def test_unimodal_in_loading(self, scenario):
        xs = np.geomspace(0.01, 0.5, 60)
        vals = np.asarray([se(float(x), scenario) for x in xs])
        d = np.diff(vals)
        signs = np.sign(d[np.abs(d) > 1e-9])
        flips = int(np.sum(np.abs(np.diff(signs)) > 0))
        assert flips <= 1

    def test_zero_floor(self, pa_low):
        # drown the link in noise: the exact SE must clamp at (numerical) zero
        bad = build_scenario(5.0, 3.76, 60.0, -100.0, 1e7, pa_low)
        val = se(1.0, bad)
        assert 0.0 <= val <= 1e-9


class TestEntropyLayout:
    """Each case of _entropy_edges' layout against the earlier 80-panel one."""

    @staticmethod
    def radii_seen(xi, sc, monkeypatch):
        # the radii the quadrature hands its density core, which serves it
        # in place of the public pdf_* functions
        seen = []
        real = se_engine._density

        def recording(r, rows, loading, scenario):
            seen.append(np.array(r, dtype=float))
            return real(r, rows, loading, scenario)

        monkeypatch.setattr(se_engine, "_density", recording)
        h = entropy_y(xi, sc)
        monkeypatch.undo()
        assert seen, "the quadrature did not reach its density core"
        return h, np.concatenate(seen)

    @staticmethod
    def bulk_and_ring(xi, sc):
        ring_lo, r_cut = _radial_window(sc)
        return min(r_cut, 10.0 * math.sqrt(sc.signal_power(xi) + sc.noise_variance)), ring_lo

    def test_ring_overlaps_bulk(self, scenario, monkeypatch):
        xi = 0.25
        bulk_hi, ring_lo = self.bulk_and_ring(xi, scenario)
        assert 0.0 < ring_lo < bulk_hi
        h, r = self.radii_seen(xi, scenario, monkeypatch)
        assert interior(r, xi, scenario).any() and not interior(r, xi, scenario).all()
        assert abs(h - entropy_y_80(xi, scenario)) <= 1e-10

    @pytest.mark.parametrize("gamma_db, xi", [(51.0, 1e-6), (51.0, 1e-4), (100.0, 1e-3)])
    def test_gap_between_bulk_and_ring(self, gamma_db, xi, snr_scenario, monkeypatch):
        sc = snr_scenario(gamma_db)
        bulk_hi, ring_lo = self.bulk_and_ring(xi, sc)
        assert bulk_hi < ring_lo
        h, r = self.radii_seen(xi, sc, monkeypatch)
        # at 51 dB the unclipped branch is interior out to r_cut; at 100 dB
        # its ridge reaches b_max
        assert interior(r, xi, sc).any()
        assert interior(r, xi, sc).all() == (gamma_db < 100.0)
        assert abs(h - entropy_y_80(xi, sc)) <= 1e-10

    @pytest.mark.parametrize("gamma_db, xi", [(0.0, 0.3), (-12.0, 0.05), (-30.0, 1.0)])
    def test_snr_at_most_0db(self, gamma_db, xi, snr_scenario, monkeypatch):
        sc = snr_scenario(gamma_db)
        h, r = self.radii_seen(xi, sc, monkeypatch)
        assert not interior(r, xi, sc).any()
        assert _radial_window(sc)[0] == 0.0
        assert abs(h - entropy_y_80(xi, sc)) <= 1e-10

    # 27 peak SNRs from -30 to 100 dB times 13 loadings from 1e-6 to 1
    GRID_XI = np.geomspace(1e-6, 1.0, 13)
    GRID_351 = [(g, x) for g in np.arange(-30.0, 101.0, 5.0) for x in np.geomspace(1e-6, 1.0, 13)]

    @staticmethod
    def count_integrand_calls(monkeypatch):
        """Make the entropy quadrature count its integrand calls; returns one
        count per batch (one per entropy_y call), appended as the calls
        happen."""
        real = se_engine._gauss_panel_rows
        evals = []

        def counting(f, edge_rows, **kw):
            def counted(x, rows):
                evals[-1] += 1
                return f(x, rows)

            evals.append(0)
            return real(counted, edge_rows, **kw)

        monkeypatch.setattr(se_engine, "_gauss_panel_rows", counting)
        return evals

    def test_first_check_meets_tolerance_everywhere(self, snr_scenario, monkeypatch):
        # a layout that met ENTROPY_TOL only by splitting its panels would
        # give the time back: each point's integrand runs exactly once, on
        # the 15 Kronrod nodes that carry the 7-node Gauss check too, and the
        # grid's radii stay within their count (114,270; 144,520 with a Gauss
        # pair of 8 and 12 nodes on 12 ring panels)
        radii = []
        real = se_engine._density

        def counting(r, rows, loading, scenario):
            radii.append(np.size(r))
            return real(r, rows, loading, scenario)

        monkeypatch.setattr(se_engine, "_density", counting)
        evals = self.count_integrand_calls(monkeypatch)
        points = self.GRID_351
        for g, x in points:
            entropy_y(float(x), snr_scenario(g))
        assert evals == [1] * len(points) == [1] * 351
        # one density call per point, each on its panels' nodes
        assert len(radii) == 351 and min(radii) > 0
        assert sum(radii) <= 115_000

    @staticmethod
    def coarse_edges(xi, scenario):
        # 4 ring panels instead of 13
        ring_lo, r_cut = _radial_window(scenario)
        bulk_hi = min(r_cut, 10.0 * math.sqrt(scenario.signal_power(xi) + scenario.noise_variance))
        parts = [np.linspace(0.0, bulk_hi, 9)]
        if ring_lo > bulk_hi:
            parts.append(np.linspace(bulk_hi, ring_lo, 3))
        parts.append(np.linspace(ring_lo, r_cut, 5))
        return np.unique(np.concatenate(parts))

    def test_check_refines_a_coarse_ring(self, snr_scenario, monkeypatch):
        # 4 ring panels under-resolve the clip ring at some points; the
        # 7-node Gauss check must see that and split panels there rather
        # than hand back the Kronrod value
        points = [(float(x), snr_scenario(g)) for g, x in self.GRID_351]
        default = [entropy_y(x, sc) for x, sc in points]
        monkeypatch.setattr(se_engine, "_entropy_edges", self.coarse_edges)
        evals = self.count_integrand_calls(monkeypatch)
        coarse = [entropy_y(x, sc) for x, sc in points]
        assert len(evals) == 351 and max(evals) > 1
        assert max(abs(c - d) for c, d in zip(coarse, default)) <= 1e-9

    def test_coarse_ring_refines_inside_the_batch(self, snr_scenario, monkeypatch):
        # one curve per SNR: the loadings that miss the tolerance are split
        # and integrated again in later passes of the same batch, and each
        # lands where it lands when integrated alone
        scenarios = [snr_scenario(g) for g in (40.0, 70.0, 100.0)]
        default = [se_curve(self.GRID_XI, sc) for sc in scenarios]
        monkeypatch.setattr(se_engine, "_entropy_edges", self.coarse_edges)
        evals = self.count_integrand_calls(monkeypatch)
        coarse = [se_curve(self.GRID_XI, sc) for sc in scenarios]
        # each curve's 13 loadings in batches of _BATCH_LOADINGS; some
        # batch took extra passes to refine
        assert len(evals) == 3 * math.ceil(13 / se_engine._BATCH_LOADINGS) and max(evals) > 1
        for sc, got, want in zip(scenarios, coarse, default):
            assert np.max(np.abs(got - want)) <= 1e-9, sc.gamma
            assert [repr(float(v)) for v in got] == [repr(se(float(x), sc)) for x in self.GRID_XI]


class TestSeMemo:
    def test_scoped_value_is_the_unscoped_value(self, scenario, snr_scenario):
        # the 51 dB reference link and both ends of the SNR axis
        for sc in (scenario, snr_scenario(-24.0), snr_scenario(100.0)):
            for xi in (0.01, 0.3, 1.0):
                outside = se(xi, sc)
                with se_memo():
                    first = se(xi, sc)
                    again = se(xi, sc)
                assert first == outside and again == outside, (sc.gamma, xi)

    def test_no_value_outlives_the_scope(self, scenario, monkeypatch):
        truth = se(0.3, scenario)
        monkeypatch.setattr(se_engine, "entropy_y", lambda xi, sc: noise_entropy(sc) + 1.0)
        with se_memo():
            assert se(0.3, scenario) == 1.0
        monkeypatch.undo()
        assert se(0.3, scenario) == truth
        with se_memo():
            assert se(0.3, scenario) == truth

    def test_a_call_that_raises_stores_nothing(self, scenario, entropy_calls, monkeypatch):
        with se_memo():
            for _ in range(2):
                with pytest.raises(ValueError):
                    se(math.nan, scenario)
        stand_in = se_engine.entropy_y

        def failing(xi, sc):
            entropy_calls.append(xi)
            raise IntegrationError("forced", estimate=1.0, error_bound=1.0)

        monkeypatch.setattr(se_engine, "entropy_y", failing)
        with se_memo():
            for _ in range(2):
                with pytest.raises(IntegrationError):
                    se(0.3, scenario)
            assert entropy_calls == [0.3, 0.3]
            monkeypatch.setattr(se_engine, "entropy_y", stand_in)
            assert se(0.3, scenario) > 0.0
        assert len(entropy_calls) == 3

    def test_a_loading_that_fails_in_a_curve_stores_nothing(self, scenario, monkeypatch):
        # one panel across the whole window for one loading: three rounds of
        # splitting cannot resolve its clip ring, while its neighbours pass
        bad, real = 0.3, se_engine._entropy_edges

        def edges(xi, sc):
            e = real(xi, sc)
            return e[[0, -1]] if xi == bad else e

        monkeypatch.setattr(se_engine, "_entropy_edges", edges)
        with pytest.raises(IntegrationError) as alone:
            entropy_y(bad, scenario)
        handed, batched = [], se_engine._entropies

        def recording(xis, sc):
            handed.append(list(xis))
            return batched(xis, sc)

        monkeypatch.setattr(se_engine, "_entropies", recording)
        with se_memo():
            with pytest.raises(IntegrationError) as in_curve:
                se_curve([0.1, bad, 0.5], scenario)
            # the curve raises its batch's own error: no loading is integrated twice
            assert handed == [[0.1, bad, 0.5]]
            assert set(se_engine._SE_MEMO.get()) == {(0.1, scenario), (0.5, scenario)}
            with pytest.raises(IntegrationError) as again:
                se(bad, scenario)
            kept = [se(0.1, scenario), se(0.5, scenario)]
        want = (str(alone.value), alone.value.estimate, alone.value.error_bound)
        for err in (in_curve.value, again.value):
            assert (str(err), err.estimate, err.error_bound) == want
        assert kept == [se(0.1, scenario), se(0.5, scenario)]
        # the error reads in bits, as entropy_y does: its estimate lies
        # within its bound of the converged entropy
        monkeypatch.undo()
        assert abs(alone.value.estimate - entropy_y(bad, scenario)) <= alone.value.error_bound

    def test_nested_scope_reuses_the_outer_memo(self, scenario, entropy_calls):
        with se_memo():
            first = se(0.3, scenario)
            with se_memo():
                # keyed by value: an equal scenario and a numpy loading hit
                assert se(np.float64(0.3), replace(scenario)) == first
                inner = se(0.5, scenario)
            # the inner exit kept the memo: neither loading is evaluated again
            assert se(0.5, scenario) == inner and se(0.3, scenario) == first
            assert len(entropy_calls) == 2
        se(0.3, scenario)
        assert len(entropy_calls) == 3

    def test_unscoped_calls_evaluate_again(self, scenario, entropy_calls):
        for _ in range(3):
            se(0.3, scenario)
        assert entropy_calls == [0.3, 0.3, 0.3]


class TestLoadingOptimizer:
    def test_closed_form_frozen(self, scenario):
        assert xi_se_opt(scenario) == pytest.approx(0.33998254576117515, rel=1e-10)

    def test_exact_maximum_frozen(self, scenario):
        xi = xi_se_max(scenario)
        assert xi == pytest.approx(0.4086167351, rel=1e-8)
        assert se(xi, scenario) == pytest.approx(15.2019663052, rel=1e-10)

    def test_methods_land_within_twenty_percent(self, scenario):
        cf = xi_se_opt(scenario)
        ex = xi_se_max(scenario)
        assert abs(ex - cf) / ex <= 0.20

    def test_exact_maximum_is_stationary(self, scenario):
        xi = xi_se_max(scenario)
        h = 1e-5 * xi
        deriv = (se(xi + h, scenario) - se(xi - h, scenario)) / (2 * h)
        scale = se(xi, scenario) / xi
        assert abs(deriv) <= 1e-4 * scale

    def test_near_grid_best(self, scenario):
        xs = np.geomspace(0.05, 1.0, 120)
        best = max(se(float(x), scenario) for x in xs)
        assert se(xi_se_max(scenario), scenario) >= best

    def test_closed_form_outside_its_domain(self, pa_low):
        # at 1 km ln(pi e sigma^2) > -e, so the closed form has no value;
        # the exact maximum still beats a grid
        far = build_scenario(5.0, 3.76, 1.0, -174.0, 1e7, pa_low)
        with pytest.raises(ValueError, match="closed_form needs"):
            xi_se_opt(far)
        xi = xi_se_max(far)
        assert se(xi, far) >= max(se(float(x), far) for x in np.geomspace(0.05, 1.0, 60))


class TestMultipath:
    def test_single_tap_reduces_to_flat(self, scenario):
        # for one unit tap the bound is exact: the clipped-link SE itself
        prof = ChannelProfile.flat()
        xi = 0.2
        bound = se_lower_bound_multipath(prof, xi, scenario)
        assert bound == pytest.approx(se(xi, scenario), rel=1e-10)

    def test_equiv_gain_single_tap(self, scenario):
        prof = ChannelProfile.flat()
        h = multipath_equiv_gain(prof, 0.2, scenario)
        assert h * h == pytest.approx(scenario.gamma * 0.2, rel=1e-12)

    def test_bound_below_flat_capacity(self, scenario):
        # dispersing energy across taps cannot beat the flat channel
        p = np.exp(-np.arange(4) / 1.5)
        p /= p.sum()
        prof = ChannelProfile(taps=tuple(np.sqrt(p).astype(complex)))
        for xi in (0.05, 0.2, 0.8):
            assert se_lower_bound_multipath(prof, xi, scenario) <= se_ideal(xi, scenario)

    def test_unit_energy_invariance_under_phase(self, scenario):
        p = np.asarray([0.5, 0.3, 0.2])
        base = tuple(np.sqrt(p).astype(complex))
        rot = tuple(np.sqrt(p) * np.exp(1j * np.asarray([0.3, -1.2, 2.0])))
        b1 = se_lower_bound_multipath(ChannelProfile(taps=base), 0.3, scenario)
        b2 = se_lower_bound_multipath(ChannelProfile(taps=rot), 0.3, scenario)
        assert b1 == pytest.approx(b2, rel=1e-12)

    def test_more_delayed_energy_lowers_bound(self, scenario):
        mild = np.asarray([0.9, 0.1])
        harsh = np.asarray([0.6, 0.4])
        b_mild = se_lower_bound_multipath(
            ChannelProfile(taps=tuple(np.sqrt(mild).astype(complex))), 0.3, scenario
        )
        b_harsh = se_lower_bound_multipath(
            ChannelProfile(taps=tuple(np.sqrt(harsh).astype(complex))), 0.3, scenario
        )
        assert b_harsh < b_mild


class TestSweep:
    def test_columns_and_shapes(self, scenario):
        grid = np.geomspace(0.05, 0.5, 7)
        data = se_sweep(scenario, grid)
        assert set(data) == {"xi", "se_exact", "se_ideal", "se_ibo", "pr_clip"}
        for key in data:
            assert np.asarray(data[key]).shape == grid.shape

    def test_rows_consistent_with_scalars(self, scenario):
        grid = np.asarray([0.1, 0.3])
        data = se_sweep(scenario, grid)
        assert data["se_exact"][0] == pytest.approx(se(0.1, scenario), rel=1e-10)
        assert data["pr_clip"][1] == pytest.approx(clip_probability(0.3), rel=1e-12)

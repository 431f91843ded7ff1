"""Special-function kernels against scipy oracles and frozen references."""

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from ofdmsee import (
    IntegrationError,
    WBranch,
    bessel_i0e,
    lambert_w,
    marcum_q1_complement,
)
from ofdmsee import specfun
from ofdmsee.specfun import _BLOCK_ROWS, _CHUNK, _GK15, _HANKEL_HI, _HANKEL_LO, bessel_i1e, gauss_panels


# the Hankel expansion's bound against scipy: 3 ulp of relative error
HANKEL_RTOL = 3 * np.finfo(float).eps

ORDERS = pytest.mark.parametrize(
    "ours, ref", [(bessel_i0e, scipy.special.i0e), (bessel_i1e, scipy.special.i1e)], ids=["i0e", "i1e"]
)


def scipy_marcum_q1(a, b):
    # Q1(a, b) is the survival function of a noncentral chi-square with
    # 2 degrees of freedom and noncentrality a^2, evaluated at b^2
    return scipy.stats.ncx2.sf(b * b, df=2, nc=a * a)


class TestBessel:
    def test_reference_values(self):
        # I0(1) and I0(2), scaled by e^{-x}
        assert bessel_i0e(1.0) == pytest.approx(1.2660658777520084 * math.exp(-1.0), rel=1e-13)
        assert bessel_i0e(2.0) == pytest.approx(2.2795853023360673 * math.exp(-2.0), rel=1e-13)
        assert bessel_i0e(0.0) == 1.0

    def test_matches_scipy_across_regimes(self):
        x = np.concatenate([np.linspace(0.0, 17.9, 40), np.geomspace(18.1, 600.0, 40)])
        ours = np.asarray([bessel_i0e(v) for v in x])
        ref = scipy.special.i0e(x)
        np.testing.assert_allclose(ours, ref, rtol=1e-12)

    def test_scaled_matches_unscaled(self):
        for v in (0.5, 3.0, 10.0, 40.0):
            assert bessel_i0e(v) == pytest.approx(scipy.special.i0(v) * math.exp(-v), rel=1e-12)

    def test_no_overflow_at_large_argument(self):
        assert 0.0 < bessel_i0e(50000.0) < 1.0

    def test_negative_argument_is_even(self):
        assert bessel_i0e(-3.0) == pytest.approx(bessel_i0e(3.0), rel=1e-14)
        # bit for bit, either side of the Hankel cut, whatever else the call holds
        x = np.concatenate([np.linspace(0.0, 49.9, 50), np.geomspace(_HANKEL_LO, 1e6, 50), [np.inf]])
        assert np.array_equal(bessel_i0e(-x), bessel_i0e(x))
        assert np.array_equal(bessel_i0e(np.concatenate([-x, x])), np.tile(bessel_i0e(x), 2))

    @ORDERS
    def test_expansion_within_three_ulp_above_the_cut(self, ours, ref):
        # 2e5 arguments from the cut to 1e9, half of them in [50, 100], and a
        # sparse run up to the top of the expansion's range
        x = np.concatenate([
            np.linspace(_HANKEL_LO, 2.0 * _HANKEL_LO, 100_000),
            np.geomspace(2.0 * _HANKEL_LO, 1e9, 100_000),
            np.geomspace(1e9, _HANKEL_HI, 1000),
        ])
        want = ref(x)
        err = np.abs(ours(x) - want) / want
        assert err.max() <= HANKEL_RTOL, (x[np.argmax(err)], err.max())

    @ORDERS
    def test_either_side_of_the_cut(self, ours, ref):
        # below the cut the value is scipy's bit for bit, from the cut up it is
        # the expansion's; whether in one call or one argument at a time
        x = np.asarray([np.nextafter(_HANKEL_LO, 0.0), _HANKEL_LO, np.nextafter(_HANKEL_LO, np.inf)])
        got = ours(x)
        assert got[0] == ref(x[0])
        np.testing.assert_allclose(got[1:], ref(x[1:]), rtol=HANKEL_RTOL, atol=0.0)
        assert got.tolist() == [ours(float(v)) for v in x]

    @ORDERS
    def test_either_side_of_the_top(self, ours, ref):
        # past _HANKEL_HI, where 2 pi x nears overflow, scipy takes over again
        x = np.asarray([_HANKEL_HI, np.nextafter(_HANKEL_HI, np.inf), 1e306, np.finfo(float).max])
        got = ours(x)
        assert got[0] == pytest.approx(ref(x[0]), rel=HANKEL_RTOL)
        assert np.array_equal(got[1:], ref(x[1:]))
        assert got.tolist() == [ours(float(v)) for v in x]

    @ORDERS
    @pytest.mark.parametrize("x", [0.0, 3.0, 60.0, 1e6, -3.0, -60.0, np.inf, -np.inf, np.nan])
    def test_scalars_return_what_scipy_returns(self, ours, ref, x):
        for arg in (x, np.float64(x), np.asarray(x)):
            got, want = ours(arg), ref(arg)
            assert type(got) is type(want)
            assert got == pytest.approx(want, rel=HANKEL_RTOL, nan_ok=True)

    @ORDERS
    def test_arrays_return_what_scipy_returns(self, ours, ref):
        x = np.asarray([[0.0, 3.0, 49.0, 50.0, 1e4], [-60.0, 1e301, np.inf, -np.inf, np.nan]])
        got, want = ours(x), ref(x)
        assert got.shape == want.shape and got.dtype == want.dtype
        np.testing.assert_allclose(got, want, rtol=HANKEL_RTOL, atol=0.0)
        for empty in (np.empty(0), np.empty((2, 0))):
            got, want = ours(empty), ref(empty)
            assert got.shape == want.shape and got.dtype == want.dtype

    @ORDERS
    def test_mixed_call_takes_each_argument_alone(self, ours, ref):
        rng = np.random.default_rng(11)
        finite = np.concatenate([np.geomspace(1e-3, 49.99, 200), np.geomspace(_HANKEL_LO, 1e5, 200)])
        for x in (rng.permutation(finite), rng.permutation(np.append(finite, [np.nan, 1e305]))):
            got = ours(x)
            assert np.array_equal(got, [ours(float(v)) for v in x], equal_nan=True)
            below = ~(x >= _HANKEL_LO)
            assert np.array_equal(got[below], ref(x[below]), equal_nan=True)

    def test_negative_i1e_is_scipy(self):
        x = -np.geomspace(1e-3, 1e6, 60)
        assert np.array_equal(bessel_i1e(x), scipy.special.i1e(x))
        assert np.array_equal(bessel_i1e(np.concatenate([x, -x])), np.concatenate([bessel_i1e(x), bessel_i1e(-x)]))


class TestMarcumQ1:
    def test_reference_values(self):
        # Q1(0, b) = exp(-b^2/2)
        assert 1.0 - marcum_q1_complement(0.0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-12)
        # b = 0 means the threshold is never exceeded from below
        assert 1.0 - marcum_q1_complement(1.5, 0.0) == pytest.approx(1.0, rel=1e-14)
        assert 1.0 - marcum_q1_complement(1.0, 2.0) == pytest.approx(
            scipy_marcum_q1(1.0, 2.0), rel=1e-10
        )

    def test_grid_against_scipy(self):
        a_grid = np.geomspace(0.05, 60.0, 12)
        b_grid = np.geomspace(0.05, 60.0, 12)
        for a in a_grid:
            for b in b_grid:
                ref = scipy_marcum_q1(a, b)
                got = 1.0 - marcum_q1_complement(a, b)
                assert got == pytest.approx(ref, abs=1e-8), (a, b)

    def test_complement_consistency(self):
        for a, b in [(0.3, 1.0), (2.0, 2.5), (8.0, 7.0), (30.0, 31.0)]:
            q = scipy_marcum_q1(a, b)
            c = marcum_q1_complement(a, b)
            assert q + c == pytest.approx(1.0, abs=1e-10)
            assert 0.0 <= c <= 1.0

    def test_array_a_matches_scalar_a(self):
        a = np.asarray([0.0, 0.3, 8.0, 50.0, 120.0])
        got = marcum_q1_complement(a, 9.0)
        assert got.shape == a.shape
        for ai, ci in zip(a, got):
            assert ci == marcum_q1_complement(float(ai), 9.0)

    @pytest.mark.parametrize("n", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 1000])
    def test_blocked_a_matches_scalar_calls(self, n):
        a = np.linspace(0.0, 60.0, n)
        got = marcum_q1_complement(a, 9.0)
        assert got.shape == a.shape
        one = [marcum_q1_complement(float(ai), 9.0) for ai in a]
        assert all(isinstance(v, float) for v in one)
        # the lattice depends on b alone and is summed from its fixed top, so
        # a row's value does not depend on the rows beside it
        assert np.array_equal(got, one)

    def test_array_b_matches_scalar_b(self):
        # one b per entry of a, several entries per b and the b - a > 9
        # shortcut among them: each value is the one a call with that entry
        # alone gives, wherever it sits in the array
        rng = np.random.default_rng(5)
        b = rng.choice([0.0, 0.4, 3.0, 9.0, 17.0, 40.0, 300.0], size=(30, 41))
        a = np.abs(b + rng.uniform(-25.0, 45.0, size=b.shape))
        got = marcum_q1_complement(a, b)
        assert got.shape == a.shape
        assert (a + 9.0 < b).any() and got[a + 9.0 < b].min() == 1.0
        one = [marcum_q1_complement(float(ai), float(bi)) for ai, bi in zip(a.ravel(), b.ravel())]
        assert np.array_equal(got.ravel(), one)
        # a column of b broadcasts along the rows of a
        col = marcum_q1_complement(a, b[:, :1])
        assert np.array_equal(col[:, 3], marcum_q1_complement(a[:, 3], b[:, 0]))

    def test_rows_straddling_the_bessel_cut_match_scalar_calls(self):
        # at b = 7 the kernel arguments b t of the array call's panels run from
        # 0 to past the Hankel cut, so its first block mixes scipy and the
        # expansion, while the scalar call of a row with b a >= 50 evaluates
        # the expansion alone: each row still reads its scalar call's value
        b = 7.0
        a = np.linspace(0.0, 30.0, _BLOCK_ROWS + 89)
        assert (b * a[:_BLOCK_ROWS]).min() < _HANKEL_LO < (b * a[:_BLOCK_ROWS]).max()
        assert np.count_nonzero(b * a >= _HANKEL_LO) > 300
        got = marcum_q1_complement(a, b)
        assert np.array_equal(got, [marcum_q1_complement(float(ai), b) for ai in a])

    @pytest.mark.parametrize("b", [0.5, 2.0, 8.0, 30.0, 100.0, 500.0, 3000.0])
    def test_complement_against_chndtr(self, b):
        # 1 - Q1(a, b) is the CDF at b^2 of a noncentral chi-square with 2
        # degrees of freedom and noncentrality a^2; relative accuracy holds
        # down to complements of 1e-12 (worst 9.3e-13, at b = 3000)
        a = np.linspace(max(0.0, b - 20.0), b + 8.0, 561)
        got = marcum_q1_complement(a, b)
        ref = scipy.special.chndtr(b * b, 2.0, a * a)
        keep = ref >= 1e-12
        assert keep.sum() > 100
        err = np.abs(got[keep] - ref[keep]) / ref[keep]
        assert err.max() <= 1e-11, (b, a[keep][np.argmax(err)], err.max())

    @pytest.mark.parametrize("b", [30.0, 300.0])
    def test_complement_is_one_below_the_ridge_window(self, b):
        # rows with a more than 9 below b (Q1 < 3e-18 there) skip the
        # integral and read exactly 1; rows just either side of that boundary
        # agree with scipy
        a = b - np.asarray([b, 25.0, 9.1, 9.0 + 1e-9, 9.0, 9.0 - 1e-9, 8.9, 5.0])
        got = marcum_q1_complement(a, b)
        shortcut = a + 9.0 < b
        assert shortcut.sum() == 4
        assert np.all(got[shortcut] == 1.0)
        ref = scipy.stats.ncx2.cdf(b * b, df=2, nc=a * a)
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("b", [9.5, 30.0, 300.0, 3000.0, 1e5])
    def test_cut_lies_past_the_rounding_bound(self, b):
        # the cut rests on Q1(a, b) <= exp(-(b - a)^2 / 2), which at b - a = 9
        # is already below half an ulp of 1.0, so 1 - Q1 rounds to exactly 1
        a = np.linspace(max(0.0, b - 12.0), b - 9.0, 31)
        bound = np.exp(-0.5 * (b - a) ** 2)
        assert bound.max() < 2.0**-54 and 1.0 - bound.max() == 1.0
        # equality at a = 0, where Q1(0, b) = exp(-b^2 / 2): allow scipy's rounding
        q = scipy.stats.ncx2.sf(b * b, df=2, nc=a * a)
        assert np.all(q <= bound * (1.0 + 1e-12)), (a[np.argmax(q / bound)], (q / bound).max())
        assert np.all(marcum_q1_complement(a[:-1], b) == 1.0)

    @pytest.mark.parametrize(
        "rows, u, chunks", [(7, 3.7, [_CHUNK - 8]), (8, 8.2, [_CHUNK]), (19, 26.7, [_CHUNK, 8])]
    )
    def test_one_b_per_entry_across_a_chunk_boundary(self, rows, u, chunks, monkeypatch):
        # entries with distinct b and a = b + u: each b is its own lattice, and
        # the one kernel pass over every lattice's full panels (t_k0 to the
        # top, k0 = floor(2u) + 1) and every entry's partial panel holds
        # rows * (80 - k0 + 1) * 8 elements, one panel short of a chunk, a
        # chunk, or one panel past it; each entry still reads its scalar call
        b = np.linspace(10.0, 300.0, rows)
        a = b + u
        sizes = []
        real = specfun.bessel_i1e
        monkeypatch.setattr(specfun, "bessel_i1e", lambda x: sizes.append(x.size) or real(x))
        got = marcum_q1_complement(a, b)
        monkeypatch.undo()
        assert sizes == chunks
        assert got.tolist() == [marcum_q1_complement(float(ai), float(bi)) for ai, bi in zip(a, b)]
        assert 0.0 < got.min() and got.max() < 1.0

    @pytest.mark.parametrize("b", [9.5, 30.0, 300.0, 3000.0])
    def test_complement_either_side_of_the_cut(self, b):
        # at b - a = 8 the complement is still below 1.0 and is scipy's; at
        # b - a = 9.5, past the cut, it reads exactly 1.0. A cut at 7 would
        # round the first to 1.0 as well
        near = marcum_q1_complement(b - 8.0, b)
        assert near < 1.0
        assert near == pytest.approx(1.0 - scipy_marcum_q1(b - 8.0, b), rel=1e-12)
        assert marcum_q1_complement(b - 9.5, b) == 1.0

    def test_complement_tiny_tail_region(self):
        # far into the right tail Q1 -> 1 and the complement must stay
        # accurate in absolute terms rather than cancelling to 0
        a, b = 50.0, 10.0
        ref = 1.0 - scipy_marcum_q1(a, b)
        assert marcum_q1_complement(a, b) == pytest.approx(ref, abs=1e-12)


class TestLambertW:
    def test_reference_value(self):
        assert lambert_w(1.0, WBranch.PRINCIPAL) == pytest.approx(
            0.5671432904097838, rel=1e-12
        )

    def test_principal_branch_against_scipy(self):
        q = np.concatenate([np.geomspace(1e-8, 100.0, 50), [-0.05, -0.2, -1 / math.e + 1e-9]])
        for v in q:
            ref = float(scipy.special.lambertw(v, 0).real)
            assert lambert_w(v, WBranch.PRINCIPAL) == pytest.approx(ref, rel=1e-10, abs=1e-12)

    def test_lower_branch_against_scipy(self):
        # scipy's own iteration stalls within ~1e-8 of the branch point
        # (its residual there is ~1e-10), so compare at a safe distance;
        # the defining-identity test covers the near-branch region
        q = -np.geomspace(1e-8, 1 / math.e - 1e-6, 50)
        for v in q:
            ref = float(scipy.special.lambertw(v, -1).real)
            assert lambert_w(v, WBranch.LOWER_NEGATIVE) == pytest.approx(ref, rel=1e-10)

    def test_branch_point_beats_naive_iteration(self):
        # within 1e-10 of -1/e the identity must still hold to machine level
        q = -(1 / math.e - 1e-10)
        for branch in (WBranch.PRINCIPAL, WBranch.LOWER_NEGATIVE):
            w = lambert_w(q, branch)
            assert abs(w * math.exp(w) - q) <= 1e-15

    def test_defining_identity_residual(self):
        for v in np.geomspace(1e-6, 50.0, 200):
            w = lambert_w(v, WBranch.PRINCIPAL)
            assert abs(w * math.exp(w) - v) <= 1e-12 * max(1.0, abs(v))
        for v in -np.geomspace(1e-6, 1 / math.e - 1e-9, 200):
            w = lambert_w(v, WBranch.LOWER_NEGATIVE)
            assert abs(w * math.exp(w) - v) <= 1e-12 * max(1.0, abs(v))

    def test_lower_branch_rejects_positive(self):
        with pytest.raises(ValueError):
            lambert_w(0.5, WBranch.LOWER_NEGATIVE)

    def test_out_of_domain_raises(self):
        with pytest.raises(ValueError):
            lambert_w(-1.0, WBranch.PRINCIPAL)


class TestQuadrature:
    def test_gauss_panels_polynomial_exactness(self):
        # degree-9 polynomial is exact for order-32 nodes and the order-48
        # check
        f = lambda x: 3 * x**9 - x**4 + 2.0
        edges = np.asarray([0.0, 0.3, 1.0, 2.0])
        got = gauss_panels(f, edges, order=32)
        ref = 3 * 2.0**10 / 10 - 2.0**5 / 5 + 2.0 * 2.0
        assert got == pytest.approx(ref, rel=1e-14)

    def test_gauss_panels_refinement_converges(self):
        f = lambda x: np.exp(-np.asarray(x) ** 2)
        edges = np.linspace(0.0, 6.0, 4)
        ref = math.sqrt(math.pi) / 2 * math.erf(6.0)
        got = gauss_panels(f, edges, order=32, tol=1e-12)
        assert got == pytest.approx(ref, rel=1e-12)

    def test_gauss_panels_error_object_carries_estimate(self):
        # an inverse-square-root needle that three rounds of panel splitting
        # cannot resolve at the requested tol
        f = lambda x: 1.0 / np.sqrt(np.abs(x - 0.123456789) + 1e-300)
        with pytest.raises(IntegrationError) as info:
            gauss_panels(f, np.asarray([0.0, 1.0]), order=32, tol=1e-14)
        assert math.isfinite(info.value.estimate)
        assert info.value.error_bound > 0.0

    @pytest.mark.parametrize("order", [1, 0, -2])
    def test_gauss_panels_rejects_order_below_two(self, order):
        # at order 1 the check rule has 1 + 1 // 2 = 1 node, the rule itself:
        # on this oscillating integrand (true value -1.2e-5) it once returned
        # 0.2668 without a word
        f = lambda x: np.exp(-np.asarray(x) ** 2) * np.cos(8.0 * np.asarray(x))
        with pytest.raises(ValueError, match="order >= 2"):
            gauss_panels(f, np.asarray([0.0, 3.0]), order=order, tol=1e-12)

    def test_gauss_kronrod_table(self):
        # the 15-node Kronrod rule is exact for x^k up to k = 23 and its
        # embedded 7-node Gauss rule up to k = 13; each misses at the next
        # even degree, and each weight set sums to 2, the length of [-1, 1]
        nodes, (kronrod, gauss) = _GK15[0], _GK15[1].T
        assert nodes.size == 15 and np.all(np.diff(nodes) > 0)
        assert np.count_nonzero(gauss) == 7 and np.all(gauss[::2] == 0.0)
        for weights, degree in ((kronrod, 23), (gauss, 13)):
            assert weights.sum() == pytest.approx(2.0, abs=1e-15)
            for k in range(degree + 1):
                exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
                assert weights @ nodes**k == pytest.approx(exact, abs=1e-15), (degree, k)
            miss = degree + 1
            assert abs(weights @ nodes**miss - 2.0 / (miss + 1)) > 1e-12, degree

"""Spectral efficiency of a clipped OFDM link.

Closed-form and quadrature evaluation of the received-signal density when a
Gaussian OFDM waveform passes through an amplitude-limiting amplifier plus
AWGN, the differential entropy and spectral efficiency that follow, the
backoff-regime analytic approximation, loading-factor optimizers, and the
multipath lower bound via the equivalent combined channel.

Radial convention: densities are over the complex plane, evaluated at radius
r = |y|; masses are recovered as integral of 2*pi*r*f(r).

The density has one body, _density (with its branches _unclipped and
_clipped), which checks nothing: the public pdf_unclipped, pdf_clipped and
pdf_radial check their radii and loadings once and call it, and the entropy
quadrature calls it directly on a batch of loadings, whose constants (T, the
a/r scale, b and the clip weight) it takes once per batch.
"""

import contextlib
import contextvars
import math
from dataclasses import dataclass, replace

import numpy as np

from ._common import (
    LN2, check_loading, check_positive, db_to_lin, dbm_to_watts, golden_max, scalar_like
)
from .pa_models import clip_probability
from .specfun import (
    IntegrationError, WBranch, _GK15, _gauss_panel_rows, _kernel_where, _marcum_core, bessel_i0e, lambert_w
)

__all__ = [
    "LinkScenario",
    "ChannelProfile",
    "build_scenario",
    "pdf_unclipped",
    "pdf_clipped",
    "pdf_radial",
    "noise_entropy",
    "entropy_y",
    "se",
    "se_curve",
    "se_memo",
    "se_ideal",
    "se_ibo",
    "xi_se_opt",
    "xi_se_max",
    "multipath_equiv_gain",
    "se_lower_bound_multipath",
    "se_sweep",
    "ENTROPY_TOL",
]

# absolute tolerance of the entropy quadrature, bits
ENTROPY_TOL = 1e-8

# loadings per density call of a batched entropy quadrature: 8 keep its
# temporaries near 0.4 MB, and larger batches ran no faster
_BATCH_LOADINGS = 8

# lowest loading the exact optimizers search; the smallest EE optimum over
# the embedded amplifiers and presets up to 100 dB is about 1e-6
XI_FLOOR = 1e-12

# se() results of the open se_memo() scope, keyed on (xi, scenario); None
# outside any scope
_SE_MEMO = contextvars.ContextVar("se_memo", default=None)


@dataclass(frozen=True)
class LinkScenario:
    """One OFDM link, normalized to the amplifier output plane.

    All channel attenuation is folded into the effective noise variance, so
    the signal power at loading xi is simply xi * p_max_out and the peak SNR
    is gamma = p_max_out / noise_variance.
    """

    bandwidth: float
    noise_variance: float
    gain: float
    p_max_out: float

    def __post_init__(self):
        for field in ("bandwidth", "noise_variance", "gain", "p_max_out"):
            check_positive(field, getattr(self, field))

    @property
    def gamma(self):
        """Peak SNR p_max_out / noise_variance."""
        return self.p_max_out / self.noise_variance

    @property
    def b_max(self):
        """Output amplitude limit."""
        return math.sqrt(self.p_max_out)

    @property
    def p_max_in(self):
        return self.p_max_out / self.gain

    def signal_power(self, xi):
        """Amplified signal power g * P_in = xi * p_max_out."""
        return xi * self.p_max_out


@dataclass(frozen=True)
class ChannelProfile:
    """Discrete multipath taps h_0 .. h_{L-1} (complex gains)."""

    taps: tuple

    def __post_init__(self):
        taps = tuple(complex(t) for t in self.taps)
        object.__setattr__(self, "taps", taps)
        if len(taps) < 1:
            raise ValueError("profile needs at least one tap")
        power = sum(abs(t) ** 2 for t in taps)
        if not (math.isfinite(power) and power > 0.0):
            raise ValueError("total tap power must be finite and positive")

    @property
    def n_taps(self):
        return len(self.taps)

    @property
    def powers(self):
        return np.abs(np.asarray(self.taps, dtype=complex)) ** 2

    @classmethod
    def flat(cls):
        return cls(taps=(1.0 + 0.0j,))


def build_scenario(g_db, alpha, d_km, noise_psd_dbm_hz, bandwidth, spec):
    """Normalize a physical link into a LinkScenario.

    Attenuation G - 128 + 10*log10(d^-alpha) dB (distance in km) is folded
    into the noise: effective noise variance = thermal noise power divided by
    the linear attenuation. spec provides the amplifier's output rating and
    gain.
    """
    check_positive("d_km", d_km)
    check_positive("bandwidth", bandwidth)
    att_db = g_db - 128.0 + 10.0 * math.log10(d_km ** (-alpha))
    noise_watts = dbm_to_watts(noise_psd_dbm_hz) * bandwidth
    sigma2 = noise_watts / db_to_lin(att_db)
    return LinkScenario(
        bandwidth=bandwidth,
        noise_variance=sigma2,
        gain=spec.gain,
        p_max_out=spec.p_max_out,
    )


# ---------------------------------------------------------------------------
# Received-signal density


def _as_radii(r):
    arr = np.atleast_1d(np.asarray(r, dtype=float))
    if not (np.isfinite(arr).all() and (arr >= 0.0).all()):
        raise ValueError("radii must be finite and non-negative")
    return arr


def _loading_constants(xi, scenario):
    """(T, a/r scale, b, clip weight) of the density at loading xi, each a float
    for a float xi, else an array over the loadings of the array xi.

    T = gp + sigma^2 (gp the signal power), a = r sqrt(2 gp / (T sigma^2)),
    b = b_max sqrt(2 T / (gp sigma^2)), and the clipped branch's weight
    Pr[clip] / (pi sigma^2).
    """
    sqrt = math.sqrt if isinstance(xi, float) else np.sqrt
    s2 = scenario.noise_variance
    gp = scenario.signal_power(xi)
    total = gp + s2
    return (
        total,
        sqrt(2.0 * gp / (total * s2)),
        scenario.b_max * sqrt(2.0 * total / (gp * s2)),
        clip_probability(xi) / (math.pi * s2),
    )


def _unclipped(r, rows, loading):
    # the unclipped density at the 1-D radii r, unchecked: loading holds
    # _loading_constants of one float loading (rows None) or of an array of
    # them, radius i at loading rows[i]; the lattices of the Marcum complement
    # are the loadings
    total, scale, b, _ = loading
    if rows is not None:
        total, scale = total[rows], scale[rows]
    gauss = np.exp(-(r**2) / total) / (math.pi * total)
    return gauss * _marcum_core(r * scale, b, rows)


def _clipped(r, rows, loading, scenario):
    # the clipped density at the 1-D radii r, unchecked, as _unclipped takes
    # them; zeros when every clip weight is 0.0
    weight = loading[3]
    if not (weight if rows is None else weight.any()):
        return np.zeros(r.shape)
    if rows is not None:
        weight = weight[rows]
    s2, bmax = scenario.noise_variance, scenario.b_max
    gauss = np.exp(-((r - bmax) ** 2) / s2)
    return weight * gauss * _kernel_where(bessel_i0e, 2.0 * bmax * r / s2, gauss)


def _density(r, rows, loading, scenario):
    # the received density, both branches: the core of pdf_radial and of the
    # entropy quadrature
    return _unclipped(r, rows, loading) + _clipped(r, rows, loading, scenario)


def _checked(branch, r, xi, scenario):
    # a density branch at radii r and loading xi, each checked once: xi a
    # scalar, or an array that broadcasts to r's shape, whose distinct
    # loadings are the rows of the branch
    xi = check_loading(xi)
    rr = _as_radii(r)
    if np.ndim(xi) == 0:
        rows, loading = None, _loading_constants(float(xi), scenario)
    else:
        rr, xi = np.broadcast_arrays(rr, xi)
        loadings, rows = np.unique(xi.ravel(), return_inverse=True)
        loading = _loading_constants(loadings, scenario)
    with np.errstate(under="ignore"):
        out = branch(rr.ravel(), rows, loading)
    return scalar_like(r, out.reshape(rr.shape))


def pdf_unclipped(r, xi, scenario):
    """Unclipped-branch density at radius r, at loading xi (a scalar, or an
    array that broadcasts to r's shape: one loading per radius).

    Joint density of the received sample and the event that the input stayed
    below the clip level: the signal amplitude is a truncated Rayleigh on
    [0, b_max], smeared by complex noise. Integrated over all amplitudes the
    Rician kernel gives the untruncated complex Gaussian
    exp(-r^2/T) / (pi T), T = gp + sigma^2 (a convolution of two Gaussians);
    the truncation multiplies it by the Marcum Q1 complement 1 - Q1(a, b)
    with a = r sqrt(2 gp / (T sigma^2)) and b = b_max sqrt(2 T / (gp sigma^2)).

    That complement (specfun's Marcum core, with one lattice per loading) is
    the one evaluation path: one cumulative integral over the noncentrality
    per call. It is exactly 1 on interior radii, whose ridge lies more than 9
    of its widths below b_max (b - a > 9, where Q1 <= exp(-(b - a)^2 / 2)
    rounds away), so there the density is the Gaussian itself.
    """
    return _checked(_unclipped, r, xi, scenario)


# the benchmark's layer tracer (perfbench/tracer.py) looks this name up; it
# goes with the next change to the benchmark
pdf_unclipped_closed = pdf_unclipped


def pdf_clipped(r, xi, scenario):
    """Clipped-branch density at radius r, at loading xi (a scalar, or an
    array that broadcasts to r's shape).

    Saturated samples land exactly on the output circle of radius b_max and
    are smeared by noise into a Rician ring, weighted by the clip
    probability. Exponents are folded with the scaled Bessel function so the
    evaluation never overflows; a zero weight (xi below ~1/745) skips it.
    """
    return _checked(lambda rr, rows, loading: _clipped(rr, rows, loading, scenario), r, xi, scenario)


def pdf_radial(r, xi, scenario):
    """Total received density at radius r (both branches), at loading xi (a
    scalar, or an array that broadcasts to r's shape)."""
    return _checked(lambda rr, rows, loading: _density(rr, rows, loading, scenario), r, xi, scenario)


# ---------------------------------------------------------------------------
# Entropy and spectral efficiency


def noise_entropy(scenario):
    """Differential entropy of the complex noise, bits."""
    return math.log2(math.pi * math.e * scenario.noise_variance)


def _radial_window(scenario):
    """(ring_lo, r_cut): the clip ring's inner edge b_max - 12*sigma (at
    least 0) and the radius b_max + 10*sigma where radial integrals stop."""
    sig = math.sqrt(scenario.noise_variance)
    bmax = scenario.b_max
    return max(0.0, bmax - 12.0 * sig), bmax + 10.0 * sig


def _edge_layout(segments):
    # (1 - t, t, lo, hi) of the edges of (panels, lo knot, hi knot) segments
    # laid end to end: edge j sits at (1 - t_j) knot[lo_j] + t_j knot[hi_j],
    # which is the knot itself at either end of its segment; a segment that
    # starts at the knot where the last one ended leaves its first edge out
    t, lo, hi, end = [], [], [], None
    for n, a, b in segments:
        at = np.arange(n + 1)[int(a == end) :] / n
        t.append(at)
        lo.append(np.full(at.size, a))
        hi.append(np.full(at.size, b))
        end = b
    t = np.concatenate(t)
    return 1.0 - t, t, np.concatenate(lo), np.concatenate(hi)


# entropy panels over the knots (0, bulk_hi, ring_lo, r_cut): 8 over the
# signal bulk and 13 over the clip ring, which overlap, or lie apart with 2
# more across the gap between them
_BULK_AND_RING = _edge_layout([(8, 0, 1), (13, 2, 3)])
_BULK_GAP_RING = _edge_layout([(8, 0, 1), (2, 1, 2), (13, 2, 3)])


def _entropy_edges(xi, scenario):
    gp = scenario.signal_power(xi)
    ring_lo, r_cut = _radial_window(scenario)
    bulk_hi = min(r_cut, 10.0 * math.sqrt(gp + scenario.noise_variance))
    knots = np.array([0.0, bulk_hi, ring_lo, r_cut])
    gap = ring_lo > bulk_hi
    s, t, lo, hi = _BULK_GAP_RING if gap else _BULK_AND_RING
    edges = s * knots[lo] + t * knots[hi]
    if gap:
        return edges
    # overlapping segments: sorted, each repeated edge once
    edges.sort()
    return edges[np.concatenate(([True], edges[1:] != edges[:-1]))]


def _entropies(xis, scenario):
    """Differential entropies, bits, of the received sample at each loading of
    the list xis (floats in (0, 1]); a loading whose quadrature misses
    ENTROPY_TOL gets its IntegrationError in place of a value.

    The quadrature of entropy_y, run on _BATCH_LOADINGS loadings at a time:
    each loading keeps its own panels and its own tolerance check, and one
    call of the density core per pass serves every loading of the batch,
    both rules. Each loading's constants are taken once per batch, as floats
    for a batch of one; the loadings are the lattices of the Marcum
    complement, and no argument is checked again.
    """
    out = []
    for start in range(0, len(xis), _BATCH_LOADINGS):
        batch = xis[start : start + _BATCH_LOADINGS]
        one = len(batch) == 1
        loading = _loading_constants(batch[0] if one else np.asarray(batch), scenario)

        def integrand(radii, rows):
            f = _density(radii, None if one else rows, loading, scenario)
            logf = np.log(np.where(f > 0.0, f, 1.0))
            return -2.0 * math.pi * radii * f * logf

        edge_rows = [_entropy_edges(x, scenario) for x in batch]
        with np.errstate(under="ignore"):
            quadrature = _gauss_panel_rows(integrand, edge_rows, rule=_GK15, tol=ENTROPY_TOL * LN2)
        for h in quadrature:
            if isinstance(h, IntegrationError):
                h.estimate, h.error_bound = h.estimate / LN2, h.error_bound / LN2
                out.append(h)
            else:
                out.append(h / LN2)
    return out


def entropy_y(xi, scenario):
    """Differential entropy of the received sample, bits.

    Radial integral of -2*pi*r*f(r)*log2 f(r) over [0, r_cut] with
    r_cut = b_max + 10*sigma; the mass beyond r_cut is bounded by the noise
    tail exp(-100) < 1e-9 since the amplified signal amplitude never exceeds
    b_max. The panels concentrate on the signal bulk (8 panels out to ten
    standard deviations of the received sample) and on the clip ring (13
    panels from b_max - 12*sigma to r_cut), with 2 more across any gap
    between the two; each carries the 15 nodes of a Gauss-Kronrod 7/15 rule,
    whose Kronrod value is returned. f(r) = 0 contributes zero
    (0*log 0 = 0). The error check is the embedded 7-node Gauss rule on the
    same density values, and must agree to ENTROPY_TOL bits; the panels are
    split if it does not, and IntegrationError, its estimate and error_bound
    in bits, is raised if refinement cannot meet it. This is the batched
    quadrature of se_curve on a batch of one loading, so both give the same
    float.
    """
    h = _entropies([float(check_loading(xi))], scenario)[0]
    if isinstance(h, IntegrationError):
        raise h
    return h


@contextlib.contextmanager
def se_memo():
    """Share se() results among the calls made inside a with-block.

    The memo lives in a context variable: a nested block reuses the outer
    block's memo, and the memo is dropped when the outermost block exits,
    so no result outlives it (nor reaches another thread or context).
    se_curve fills it a whole loading grid at a time.
    """
    if _SE_MEMO.get() is not None:
        yield
        return
    token = _SE_MEMO.set({})
    try:
        yield
    finally:
        _SE_MEMO.reset(token)


def se(xi, scenario):
    """Spectral efficiency in b/s/Hz: received entropy minus noise entropy.

    Mutual information of the memoryless clipped-plus-noise channel; clamped
    at zero (the entropy difference can dip below zero only by numerical
    error in degenerate low-SNR setups).

    Outside an se_memo() scope every call integrates the entropy afresh.
    Inside one, the first call with a given (xi, scenario) -- the frozen
    LinkScenario compares by value -- stores its result and later calls
    return that same float; a call that raises stores nothing.
    """
    memo = _SE_MEMO.get()
    if memo is None:
        return max(0.0, entropy_y(xi, scenario) - noise_entropy(scenario))
    key = (float(check_loading(xi)), scenario)
    if key not in memo:
        memo[key] = max(0.0, entropy_y(xi, scenario) - noise_entropy(scenario))
    return memo[key]


def se_curve(xi_values, scenario):
    """se() at every loading of xi_values, as an array.

    Works in an se_memo() scope, opening one for the call when none is open.
    The loadings not yet in the memo are integrated together (see
    _entropies) and their results stored in it; every value is then read
    back through se(), so each is the float se() gives for that loading
    alone. A loading whose quadrature misses ENTROPY_TOL stores nothing, and
    the first such loading's IntegrationError, the one se() would raise for
    it, is raised once the others are stored.
    """
    xis = [float(x) for x in check_loading(np.atleast_1d(xi_values)).ravel()]
    with se_memo():
        memo = _SE_MEMO.get()
        todo = list(dict.fromkeys(x for x in xis if (x, scenario) not in memo))
        noise, error = noise_entropy(scenario), None
        for x, h in zip(todo, _entropies(todo, scenario)):
            if not isinstance(h, IntegrationError):
                memo[(x, scenario)] = max(0.0, h - noise)
            elif error is None:
                error = h
        if error is not None:
            raise error
        return np.asarray([se(x, scenario) for x in xis])


def se_ideal(xi, scenario):
    """SE log2(1 + gamma*xi) of the link with a distortion-free amplifier; xi may be an array."""
    return scalar_like(xi, np.log2(1.0 + scenario.gamma * check_loading(xi)))


def se_ibo(xi, scenario):
    """Backoff-regime analytic approximation of se().

    log2(1 + gamma*xi) plus a clipping penalty proportional to the clip
    probability; accurate for loadings up to roughly 0.3 and exact in the
    deep-backoff limit. xi may be an array of loadings.
    """
    clip = clip_probability(xi)
    penalty = clip * (1.0 / (np.asarray(xi, dtype=float) * LN2) + noise_entropy(scenario))
    return scalar_like(xi, se_ideal(xi, scenario) + penalty)


def xi_se_opt(scenario):
    """Loading factor maximizing the backoff-regime spectral efficiency.

    The paper's explicit lower-branch Lambert-W expression
    -1/W_{-1}(1/ln(pi e sigma^2)). ValueError outside its domain,
    ln(pi e sigma^2) <= -e.
    """
    lnpes2 = math.log(math.pi * math.e * scenario.noise_variance)
    if lnpes2 >= 0.0:
        raise ValueError(
            "closed_form needs pi*e*noise_variance < 1 (argument of the "
            "lower Lambert-W branch must be negative)"
        )
    q = 1.0 / lnpes2
    if q < -math.exp(-1.0):
        raise ValueError(
            "closed_form needs ln(pi*e*noise_variance) <= -e so that "
            "1/ln(.) stays above -1/e"
        )
    return -1.0 / lambert_w(q, WBranch.LOWER_NEGATIVE)


def xi_se_max(scenario):
    """Loading factor in (0, 1] that maximizes se() itself.

    Golden-section search on log xi over [XI_FLOOR, 1], ends included; no
    approximation of se() enters.
    """
    return golden_max(lambda x: se(x, scenario), XI_FLOOR, 1.0)[0]


# ---------------------------------------------------------------------------
# Multipath lower bound


def multipath_equiv_gain(taps, xi, scenario):
    """Equivalent single-link amplitude gain h' of a multipath profile.

    Combining the taps with successive interference accounting: the first
    tap sees only noise, each later tap additionally sees the interference
    of all earlier ones. h'^2 is the resulting SNR, so for a single unit tap
    h'^2 = gp / sigma^2.
    """
    xi = float(check_loading(xi))
    powers = taps.powers
    gp = scenario.signal_power(xi)
    s2 = scenario.noise_variance
    snr = gp * powers[0] / s2
    prior = powers[0]
    for p in powers[1:]:
        snr += gp * p / (s2 + gp * prior)
        prior += p
    return math.sqrt(snr)


def se_lower_bound_multipath(taps, xi, scenario):
    """Spectral-efficiency lower bound over a multipath profile.

    Evaluates the flat-link spectral efficiency of an equivalent scenario
    whose noise variance is set so its SNR equals the combined-channel SNR
    h'^2 (noise := gp / h'^2), keeping the amplifier nonlinearity unchanged.
    Exact for a single unit tap.
    """
    xi = float(check_loading(xi))
    hp = multipath_equiv_gain(taps, xi, scenario)
    gp = scenario.signal_power(xi)
    equiv = replace(scenario, noise_variance=gp / hp**2)
    return se(xi, equiv)


# ---------------------------------------------------------------------------
# Sweeps


def se_sweep(scenario, xi_values):
    """Evaluate the SE family over a loading grid.

    Returns a dict of arrays with keys xi, se_exact, se_ideal, se_ibo,
    pr_clip (one entry per grid point), each column one array call of se_curve,
    se_ideal, se_ibo or clip_probability: each entry is the float it gives alone.
    """
    xis = np.atleast_1d(np.asarray(xi_values, dtype=float))
    return {
        "xi": xis.copy(),
        "se_exact": se_curve(xis, scenario),
        "se_ideal": se_ideal(xis, scenario),
        "se_ibo": se_ibo(xis, scenario),
        "pr_clip": clip_probability(xis),
    }

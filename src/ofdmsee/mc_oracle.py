"""Monte Carlo OFDM link simulator and statistical validators.

Independent end-to-end simulation of the clipped OFDM chain (Gaussian data
symbols, unitary IDFT, memoryless amplifier, cyclic prefix, multipath
convolution, AWGN) plus the estimators used to validate the analytic
engine: mutual information, Kolmogorov-Smirnov distance against the analytic
radial law, and the multipath lower-bound check. Sample generation is
reproducible and batch parallel: each 512-frame batch draws from its own
counter-based RNG stream, and the batches run on a thread pool with one
worker per usable CPU, each worker filling its own buffers in place. The
output is byte-identical to a serial run.

One batch chain serves a group of loadings: each batch's Gaussian draws
are made once and every loading of the group scales the same draws, which
is what a run of each loading alone would draw. simulate_frames runs it on
one loading and keeps the complex samples. mc-validate runs it on up to
_GROUP_LOADINGS loadings at a time, and its workers keep only |y| and the
phase-harmonic sums of each block, from which the calling thread computes
the statistics one loading at a time.

Two mutual-information estimators share one interface. estimate_mi_radial,
which mc-validate reports, takes the 1-D m-spacing entropy of the sorted
|y|^2. It relies on the received sample being circularly symmetric (uniform
phase independent of the magnitude), which holds because every amplifier
model here is AM/AM only; it checks the first four phase harmonics and
raises EstimatorError when that assumption fails. radial_statistics gives
the KS distance and estimate_mi_radial's value from one sort of the
magnitudes. estimate_mi, the 2-D nearest-neighbor estimator on the
real/imag cloud, assumes no symmetry and is kept as the independent oracle.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._common import LN2, check_loading
from .pa_models import RappParams, rapp
from .se_engine import (
    ChannelProfile,
    _radial_window,
    noise_entropy,
    pdf_radial,
    se_lower_bound_multipath,
)

__all__ = [
    "FrameConfig",
    "EstimatorError",
    "simulate_frames",
    "estimate_mi",
    "estimate_mi_radial",
    "radial_statistics",
    "empirical_pdf_distance",
    "analytic_radial_cdf",
    "verify_multipath_bound",
]

_BATCH_FRAMES = 512
# block length of the chain's sub-blocks, of the phase sums and of the KS
# scan, none of which allocates an n-sized temporary. Frames have a
# power-of-two length of at least 64, so a 512-frame batch is a whole
# number of blocks and every sub-block starts on a block boundary.
_BLOCK_SAMPLES = 16384
# loadings run on one set of draws; bounds the magnitude arrays held at once
_GROUP_LOADINGS = 4
# the phase-harmonic check of estimate_mi_radial: harmonics k = 1..4 and the
# bound on n*|mean(e^{ik*phase})|^2, which is Exp(1) under a uniform phase
# (false alarm about 4*e^-30 = 4e-13 per sample)
_PHASE_HARMONICS = 4
_PHASE_STAT_MAX = 30.0
# estimate_mi's neighbor order, and the points of each of analytic_radial_cdf's two grids
_KNN_K = 4
_CDF_GRID = 8001


class EstimatorError(RuntimeError):
    """A statistical estimator received samples it cannot work on."""


@dataclass(frozen=True)
class FrameConfig:
    """Simulation shape: frame geometry, sample budget, RNG seed, PA choice.

    pa_model selects the amplifier applied to the time-domain waveform:
    "soft_limiter" (default), a RappParams instance for the smooth model, or
    "bypass" for a transparent chain (linearity checks).
    """

    n_subcarriers: int
    cp_length: int
    n_frames: int
    seed: int
    pa_model: object = "soft_limiter"
    include_noise: bool = True

    def __post_init__(self):
        n = self.n_subcarriers
        if not isinstance(n, (int, np.integer)) or n < 64 or (n & (n - 1)) != 0:
            raise ValueError("n_subcarriers must be a power of two >= 64")
        if not isinstance(self.cp_length, (int, np.integer)) or self.cp_length < 0:
            raise ValueError("cp_length must be a non-negative integer")
        if self.cp_length > n:
            raise ValueError("cp_length must not exceed n_subcarriers")
        if not isinstance(self.n_frames, (int, np.integer)) or self.n_frames < 1:
            raise ValueError("n_frames must be a positive integer")
        if not isinstance(self.seed, (int, np.integer)) or not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 bits")
        if not (
            self.pa_model in ("soft_limiter", "bypass")
            or isinstance(self.pa_model, RappParams)
        ):
            raise ValueError("pa_model must be 'soft_limiter', 'bypass', or RappParams")


def _batch_stream(seed, batch_index):
    # independent counter-based stream per batch; order-independent statistics
    return np.random.Generator(np.random.Philox(key=seed).jumped(batch_index))


def _apply_pa(x, config, scenario, amp, out_amp):
    # the amplifier applied to x in place; amp and out_amp are float scratch
    # of x's shape
    if config.pa_model == "bypass":
        return
    np.abs(x, out=amp)
    if config.pa_model == "soft_limiter":
        np.multiply(amp, math.sqrt(scenario.gain), out=out_amp)
        np.minimum(out_amp, scenario.b_max, out=out_amp)
    else:
        out_amp[...] = rapp(amp, config.pa_model)
    # x * (1/amp) * out_amp, with 1/amp taken as 0 where amp is 0: scaling
    # both parts by 1/amp is how NumPy divides a complex by a real, so the
    # result has the bits of out_amp * (x / amp)
    np.divide(1.0, amp, out=amp, where=amp > 0.0)
    x *= amp
    x *= out_amp


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_chain(config, xis, scenario, channel, sink):
    """Run simulate_frames' chain for each loading of xis on one set of draws.

    Frames run in batches of 512. Batch b draws, from _batch_stream(seed, b)
    and once for all loadings, the real then the imaginary symbol parts and
    (with noise) the real then the imaginary noise parts. Each loading in
    turn then takes the batch through the chain in sub-blocks of whole
    frames, _BLOCK_SAMPLES samples or one frame if that is longer, and hands
    each received block to sink(j, start, rx): j indexes xis, start is the
    flat index of the block's first sample, and rx is a (frames, N) worker
    buffer that the next block overwrites. A loading's samples are thus
    those of a run of that loading alone.

    The batches run on a thread pool with one worker per usable CPU (at most
    one per batch); each worker reuses one buffer set allocated by the
    calling thread. sink runs on the workers, so it writes only what its
    block owns.
    """
    xis = [float(check_loading(xi)) for xi in xis]
    if channel is None:
        channel = ChannelProfile.flat()
    taps = np.asarray(channel.taps, dtype=complex)
    if config.cp_length < channel.n_taps:
        raise ValueError("cyclic prefix shorter than the channel delay spread")
    n = config.n_subcarriers
    ncp = config.cp_length
    sig_scales = [math.sqrt(xi * scenario.p_max_in / 2.0) for xi in xis]
    noise_scale = math.sqrt(scenario.noise_variance / 2.0)
    rows = min(_BATCH_FRAMES, config.n_frames)
    sub = min(max(1, _BLOCK_SAMPLES // n), rows)
    n_batches = (config.n_frames + _BATCH_FRAMES - 1) // _BATCH_FRAMES
    workers = min(_usable_cpus(), n_batches)
    # per worker: the batch's standard-normal draws (symbol real and
    # imaginary parts, then noise real and imaginary parts); per sub-block
    # the limiter scratch (float), symbols, prefixed block and received block
    buffers = [
        (
            np.empty((4 if config.include_noise else 2, rows, n)),
            np.empty((2, sub, n)),
            np.empty((sub, n), dtype=complex),
            np.empty((sub, ncp + n), dtype=complex),
            np.empty((sub, n), dtype=complex),
        )
        for _ in range(workers)
    ]

    def run(worker):
        # batches worker, worker + workers, ...; calls no traced function,
        # since the benchmark's span stack is not thread-safe
        normals, scratch, sym, tx, rx = buffers[worker]
        for b in range(worker, n_batches, workers):
            first = b * _BATCH_FRAMES
            frames = min(_BATCH_FRAMES, config.n_frames - first)
            rng = _batch_stream(config.seed, b)
            for part in normals[:, :frames]:
                rng.standard_normal(out=part)
            for j, sig_scale in enumerate(sig_scales):
                for lo in range(0, frames, sub):
                    hi = min(lo + sub, frames)
                    s, t, y = sym[: hi - lo], tx[: hi - lo], rx[: hi - lo]
                    np.multiply(normals[0, lo:hi], sig_scale, out=s.real)
                    np.multiply(normals[1, lo:hi], sig_scale, out=s.imag)
                    np.fft.ifft(s, norm="ortho", axis=1, out=s)
                    _apply_pa(s, config, scenario, scratch[0, : hi - lo], scratch[1, : hi - lo])
                    t[:, ncp:] = s
                    t[:, :ncp] = s[:, n - ncp :]
                    # linear convolution with the taps via shifted adds, kept
                    # only past the prefix; with ncp >= L-1 this equals
                    # circular convolution of the prefix-free block. Each
                    # output column sums its lags in tap order.
                    y.fill(0.0)
                    for lag, h in enumerate(taps):
                        if h != 0.0:
                            y += np.multiply(h, t[:, ncp - lag : ncp - lag + n], out=s)
                    if config.include_noise:
                        np.multiply(normals[2, lo:hi], noise_scale, out=s.real)
                        np.multiply(normals[3, lo:hi], noise_scale, out=s.imag)
                        y += s
                    sink(j, (first + lo) * n, y)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        for done in [pool.submit(run, w) for w in range(workers)]:
            done.result()


def simulate_frames(config, xi, scenario, channel=None):
    """Run the OFDM chain and return the received time-domain samples.

    Per frame: N i.i.d. complex Gaussian data symbols at the loaded input
    power, unitary IDFT, amplifier (phase preserved), cyclic prefix, linear
    convolution with the channel taps, AWGN, prefix removal. Returns a
    complex array of n_frames * N samples.

    Frames run in batches of 512, each drawing from its own counter-based
    stream and writing only its own rows of the result, so the batches run
    on a thread pool with one worker per usable CPU (at most one per batch).
    The output is byte-identical to a serial run, whatever the worker count.
    """
    out = np.empty(config.n_frames * config.n_subcarriers, dtype=complex)

    def write(_j, start, rx):
        out[start : start + rx.size] = rx.ravel()

    _run_chain(config, [xi], scenario, channel, write)
    return out


def _link_radii(config, xis, scenario, channel):
    """|y| and the phase sums of the received samples of each loading of xis.

    Returns one array of n_frames * N magnitudes per loading, in sample
    order, and the (loadings, blocks, _PHASE_HARMONICS) phase sums of each
    _BLOCK_SAMPLES block, as _radii gives them for simulate_frames' samples
    of that loading. No complex sample array is kept.
    """
    size = config.n_frames * config.n_subcarriers
    radii = [np.empty(size) for _ in xis]
    slots = np.empty((len(xis), -(-size // _BLOCK_SAMPLES), _PHASE_HARMONICS), dtype=complex)

    def keep(j, start, rx):
        # start is a multiple of _BLOCK_SAMPLES and rx is a whole number of
        # blocks unless it ends the samples, so these are _radii's blocks
        z = rx.ravel()
        r = np.abs(z, out=radii[j][start : start + z.size])
        for lo in range(0, z.size, _BLOCK_SAMPLES):
            hi = lo + _BLOCK_SAMPLES
            _phase_sums(z[lo:hi], r[lo:hi], slots[j, (start + lo) // _BLOCK_SAMPLES])

    _run_chain(config, xis, scenario, channel, keep)
    return radii, slots


def _link_statistics(config, xis, scenario, channel=None):
    """(KS distance, radial MI estimate) of each loading of xis, in order.

    Each pair equals radial_statistics(simulate_frames(config, xi, scenario,
    channel), xi, scenario) bit for bit, errors included. The loadings run
    through the chain in groups of up to _GROUP_LOADINGS on one set of
    draws, keeping only |y| and the phase sums; the statistics then run on
    the calling thread, one loading at a time, sorting its |y| in place.
    A generator: each group is simulated when its first pair is asked for.
    """
    for first in range(0, len(xis), _GROUP_LOADINGS):
        group = xis[first : first + _GROUP_LOADINGS]
        radii, slots = _link_radii(config, group, scenario, channel)
        for j, xi in enumerate(group):
            r, radii[j] = radii[j], None
            yield _radial_statistics(r, slots[j], xi, scenario)


def _kth_neighbor_distances(pts, k):
    """Distance from each point of pts to its k-th nearest other point, in
    the order of pts.

    The points are queried in the k-d tree's leaf order, so neighboring
    queries walk the same leaves while they are in cache, and the distances
    are scattered back. Each query is independent of the others, so the
    result is bit for bit that of querying pts in their own order.
    """
    # imported here: scipy.spatial adds about 0.15 s to importing the package
    from scipy.spatial import cKDTree

    tree = cKDTree(pts)
    order = tree.indices
    eps = np.empty(len(pts))
    eps[order] = tree.query(pts[order], k=[k + 1], workers=-1)[0][:, 0]
    return eps


def estimate_mi(samples, scenario):
    """Mutual-information estimate from received samples, b/s/Hz.

    Nearest-neighbor differential entropy of the 2-D real/imag cloud, from
    each point's distance to its _KNN_K-th nearest neighbor, minus the noise
    entropy. The estimator is asymptotically unbiased. It assumes no
    symmetry of the sample, so it is the independent oracle for
    estimate_mi_radial, at about 2.5 s per 1e6 samples on 2 cores, of
    which about 0.9 s builds the k-d tree.
    """
    # imported here, as cKDTree is: scipy.special adds about a quarter
    # second to importing the package, which needs it only for small Bessel
    # arguments (see specfun)
    from scipy.special import digamma

    y = np.asarray(samples).ravel()
    if y.size < 100:
        raise EstimatorError("too few samples for a stable entropy estimate")
    eps = _kth_neighbor_distances(np.column_stack([y.real, y.imag]), _KNN_K)
    if np.any(eps <= 0.0):
        raise EstimatorError(
            "degenerate samples (duplicate points); the entropy estimate is undefined"
        )
    h_nats = digamma(y.size) - digamma(_KNN_K) + math.log(math.pi) + 2.0 * float(np.mean(np.log(eps)))
    h_bits = h_nats / LN2
    return h_bits - noise_entropy(scenario)


def _phase_sums(z, r, slot):
    # slot[k-1] = sum of e^{ik*phase} over the samples z, k = 1..4, given
    # r = |z|; a zero sample has no phase and adds nothing. An infinite
    # sample gives nan, which the finiteness check reports first.
    with np.errstate(invalid="ignore"):
        unit = z / np.where(r > 0.0, r, np.inf)
    power = unit.copy()
    slot[0] = power.sum()
    for k in range(1, _PHASE_HARMONICS):
        power *= unit
        slot[k] = power.sum()


def _check_circular(slots, n):
    # n*|mean(e^{ik*phase})|^2 for k = 1..4, from the blocks' phase sums
    # added in block order
    sums = np.zeros(_PHASE_HARMONICS, dtype=complex)
    for slot in slots:
        sums += slot
    stat = np.abs(sums) ** 2 / n
    worst = int(np.argmax(stat))
    if stat[worst] > _PHASE_STAT_MAX:
        raise EstimatorError(
            f"samples are not circularly symmetric: phase harmonic k={worst + 1} has "
            f"n*|mean|^2 = {stat[worst]:.3g} > {_PHASE_STAT_MAX:g}"
        )


def _radii(samples):
    # |samples|, flat and in sample order, and the _phase_sums of each
    # _BLOCK_SAMPLES block of them
    y = np.asarray(samples).ravel()
    r = np.abs(y)
    slots = np.empty((-(-y.size // _BLOCK_SAMPLES), _PHASE_HARMONICS), dtype=complex)
    for i, lo in enumerate(range(0, y.size, _BLOCK_SAMPLES)):
        hi = lo + _BLOCK_SAMPLES
        _phase_sums(y[lo:hi], r[lo:hi], slots[i])
    return r, slots


def _mi_from_sorted(r, slots, scenario):
    # estimate_mi_radial, given r = sorted |y|, which is squared in place,
    # and the phase sums of y; squaring keeps the order, so r*r is bit for
    # bit the sorted |y|^2
    n = r.size
    if n < 100:
        raise EstimatorError("too few samples for a stable entropy estimate")
    u = np.multiply(r, r, out=r)
    # the sort puts inf and nan last, so the largest entry decides finiteness
    if not np.isfinite(u[-1]):
        raise EstimatorError("non-finite samples")
    _check_circular(slots, n)
    m = round(math.sqrt(n))
    spacing = u[2 * m :] - u[: n - 2 * m]
    low = u[m : 2 * m] - u[0]
    high = u[n - 1] - u[n - 2 * m : n - m]
    if min(spacing.min(), low[0], high[-1]) <= 0.0:
        raise EstimatorError(
            "tied magnitudes (a zero m-spacing); the entropy estimate is undefined"
        )
    log_sum = np.log(spacing, out=spacing).sum() + np.log(low).sum() + np.log(high).sum()
    h_nats = log_sum / n + math.log(n / (2.0 * m)) + math.log(math.pi)
    return h_nats / LN2 - noise_entropy(scenario)


def estimate_mi_radial(samples, scenario):
    """Mutual-information estimate from circularly symmetric samples, b/s/Hz.

    For a circularly symmetric Y, h(Y) = h(|Y|^2) + ln(pi). h(|Y|^2) is the
    Vasicek m-spacing entropy of the sorted |y|^2, with m = round(sqrt(n))
    and the window clipped at the sample ends (Vasicek, JRSS-B 1976). The
    amplifier models are AM/AM only, so the simulated link meets the
    assumption; the first four phase harmonics are checked before the
    entropy is taken. Raises EstimatorError on fewer than 100 samples, on
    non-finite samples, on a sample that fails the phase check, and on tied
    magnitudes (a zero m-spacing).
    """
    r, slots = _radii(samples)
    r.sort()
    return _mi_from_sorted(r, slots, scenario)


def analytic_radial_cdf(xi, scenario):
    """CDF of the received amplitude implied by the analytic density.

    Returns (radii, cdf) on _CDF_GRID radii over [0, r_cut] and as many over
    the clip ring; beyond the last radius the CDF is 1 up to a tail below
    1e-9. The density is pdf_radial, the same one se() integrates; a
    Kolmogorov-Smirnov check against it is independent through the samples.
    """
    ring_lo, r_cut = _radial_window(scenario)
    grid = np.unique(
        np.concatenate(
            [np.linspace(0.0, r_cut, _CDF_GRID), np.linspace(ring_lo, r_cut, _CDF_GRID)]
        )
    )
    dens = 2.0 * math.pi * grid * pdf_radial(grid, xi, scenario)
    steps = np.diff(grid) * 0.5 * (dens[1:] + dens[:-1])
    cdf = np.concatenate([[0.0], np.cumsum(steps)])
    return grid, np.minimum(cdf, 1.0)


def _ks_from_sorted(r, xi, scenario):
    # empirical_pdf_distance, given the sorted magnitudes r
    if r.size == 0:
        raise EstimatorError("no samples")
    grid, cdf = analytic_radial_cdf(xi, scenario)
    n = r.size
    # sup of (i+1)/n - F_i and F_i - i/n over i = 0..n-1, with F_i the
    # analytic CDF at r[i], in blocks so that no n-sized array exists
    upper = lower = -math.inf
    for start in range(0, n, _BLOCK_SAMPLES):
        f = np.interp(r[start : start + _BLOCK_SAMPLES], grid, cdf, left=0.0, right=1.0)
        i = np.arange(start, start + f.size, dtype=float)
        upper = max(upper, np.max((i + 1.0) / n - f))
        lower = max(lower, np.max(f - i / n))
    return float(max(upper, lower))


def empirical_pdf_distance(samples, xi, scenario):
    """Kolmogorov-Smirnov distance between |samples| and the analytic law."""
    r = np.abs(np.asarray(samples).ravel())
    r.sort()
    return _ks_from_sorted(r, xi, scenario)


def _radial_statistics(r, slots, xi, scenario):
    # radial_statistics, given the magnitudes r, which are sorted and then
    # squared in place, and their phase sums
    r.sort()
    ks = _ks_from_sorted(r, xi, scenario)
    return ks, _mi_from_sorted(r, slots, scenario)


def radial_statistics(samples, xi, scenario):
    """(KS distance, radial MI estimate) of one sample from a single sort.

    The values and errors are those of empirical_pdf_distance(samples, xi,
    scenario) followed by estimate_mi_radial(samples, scenario), which sort
    the magnitudes once each.
    """
    return _radial_statistics(*_radii(samples), xi, scenario)


def verify_multipath_bound(config, xi, scenario, channel):
    """Compare the analytic multipath SE lower bound with a simulation.

    Returns (bound, mc_estimate, slack) with slack = estimate - bound;
    validity means slack is not below minus the statistical error.
    """
    samples = simulate_frames(config, xi, scenario, channel)
    estimate = estimate_mi(samples, scenario)
    bound = se_lower_bound_multipath(channel, xi, scenario)
    return bound, estimate, estimate - bound


"""Independent spectral-efficiency reference built on scipy alone.

The clipped OFDM link's SE depends only on the peak SNR gamma and the loading
xi, so the reference works in units where the noise variance is 1: the signal
power is gamma * xi and the clip radius sqrt(gamma). The received radial
density is the unclipped branch, a complex Gaussian of variance
gamma * xi + 1 times the Marcum complement 1 - Q1(a, beta), plus the clipped
branch, a Rician ring of radius sqrt(gamma). The entropy integral runs through
scipy.integrate.quad with breakpoints on the bulk and the ring; no ofdmsee
density or quadrature code is used.

The Marcum complement comes from scipy.special.chndtr (the noncentral
chi-square CDF) while its noncentrality stays below 1e8 (gamma up to about
74 dB). Beyond that chndtr loses accuracy, drifting by about 1e-4 b/s/Hz at
100 dB with heavy clipping, so there the complement is integrated from the
Rician amplitude density with scipy.special.i0e. Across -24 to +100 dB and
xi from 0.01 to 1 this reference agrees with ofdmsee.se to about 3e-12 b/s/Hz.
"""

import math

from scipy import integrate, special

# largest noncentrality handed to chndtr; above it the complement is integrated
_CHNDTR_NC_MAX = 1e8
# beyond this many unit widths from the Rician ridge the complement is 0 or 1
# in double precision (the tail is below exp(-800))
_RIDGE_HALF_WIDTH = 40.0


def marcum_q1_complement(a, beta):
    """1 - Q1(a, beta): probability that a unit Rician amplitude with
    noncentrality a stays at or below beta."""
    if beta > a + _RIDGE_HALF_WIDTH:
        return 1.0
    if a > beta + _RIDGE_HALF_WIDTH:
        return 0.0
    if a * a <= _CHNDTR_NC_MAX:
        return float(special.chndtr(beta * beta, 2.0, a * a))
    value, _ = integrate.quad(
        lambda x: x * math.exp(-0.5 * (x - a) ** 2) * special.i0e(a * x),
        max(0.0, a - _RIDGE_HALF_WIDTH),
        beta,
        epsabs=1e-15,
        epsrel=1e-13,
        limit=200,
    )
    return value


def reference_se(gamma, xi):
    """Spectral efficiency in b/s/Hz of the clipped link at peak SNR gamma
    (linear) and loading xi."""
    gp = gamma * xi
    b = math.sqrt(gamma)
    total = gp + 1.0
    ring_weight = math.exp(-1.0 / xi) / math.pi
    a_per_r = math.sqrt(2.0 * gp / total)
    beta = b * math.sqrt(2.0 * total / gp)

    def density(r):
        ring = ring_weight * math.exp(-((r - b) ** 2)) * special.i0e(2.0 * b * r)
        bulk = math.exp(-r * r / total) / (math.pi * total) * marcum_q1_complement(a_per_r * r, beta)
        return bulk + ring

    def entropy_density(r):
        f = density(r)
        return -2.0 * math.pi * r * f * math.log(f) if f > 0.0 else 0.0

    r_cut = b + 10.0
    breaks = sorted({0.0, min(r_cut, 10.0 * math.sqrt(total)), max(0.0, b - 12.0), b, r_cut})
    h_nats = 0.0
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        value, _ = integrate.quad(entropy_density, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200)
        h_nats += value
    return (h_nats - math.log(math.pi * math.e)) / math.log(2.0)

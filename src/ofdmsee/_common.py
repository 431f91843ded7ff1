"""Helpers shared by the modules of the package, each written once: ln 2,
the dB and dBm conversions, the finite-and-positive, finite-and-nonnegative
and loading-factor argument checks, and the golden-section maximizer of the
exact optimizers."""

import math

import numpy as np

LN2 = math.log(2.0)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def db_to_lin(db):
    """Linear power ratio of a level in dB."""
    return 10.0 ** (db / 10.0)


def dbm_to_watts(dbm):
    """Power in watts of a level in dBm."""
    return 10.0 ** ((dbm - 30.0) / 10.0)


def check_positive(name, value, when=""):
    """ValueError "<name> must be finite and positive<when>" unless 0 < value < inf."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive{when}")


def check_nonnegative(name, value):
    """ValueError "<name> must be finite and >= 0" unless 0 <= value < inf."""
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be finite and >= 0")


def check_loading(xi):
    """xi as a float array, or as is if a float; ValueError unless every entry
    lies in (0, 1].

    The range test is written so that NaN fails it: non-finite loadings are
    rejected too. A scalar takes the plain float comparison, about a tenth
    of the array test's cost."""
    if isinstance(xi, float):
        x, ok = xi, 0.0 < xi <= 1.0
    else:
        x = np.asarray(xi, dtype=float)
        ok = ((x > 0.0) & (x <= 1.0)).all()
    if not ok:
        raise ValueError("loading factor must lie in (0, 1]")
    return x


def scalar_like(template, value):
    """value as a float when template is a scalar, else value unchanged."""
    if isinstance(template, float) or np.ndim(template) == 0:
        return float(np.asarray(value).reshape(-1)[0])
    return value


def golden_max(f, lo, hi):
    """(x, f(x)) at the maximum of f on the closed bracket [lo, hi], 0 < lo < hi.

    Golden-section search (Kiefer 1953) on log x: each call of f shrinks the
    bracket by the golden ratio until it is 1e-10 wide in log x, about 55
    calls for a bracket of twelve decades. The ends lo and hi are candidates
    too and win ties. For f unimodal on the bracket that is its maximum;
    otherwise a local maximum.
    """
    ends = [(lo, f(lo)), (hi, f(hi))]
    a, b = math.log(lo), math.log(hi)
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = f(math.exp(c)), f(math.exp(d))
    while b - a > 1e-10:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(math.exp(d))
    return max(ends + [(math.exp(c), fc), (math.exp(d), fd)], key=lambda point: point[1])

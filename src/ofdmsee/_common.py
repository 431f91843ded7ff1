"""Helpers shared by the modules of the package, each written once: ln 2,
the dB and dBm conversions, the finite-and-positive and loading-factor
argument checks, and the bracketed root finder of the optimizers."""

import math

import numpy as np

LN2 = math.log(2.0)


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


def check_loading(xi):
    """xi as a float array; ValueError unless every entry lies in (0, 1].

    The range test is written so that NaN fails it: non-finite loadings are
    rejected too.
    """
    x = np.asarray(xi, dtype=float)
    if not np.all((x > 0.0) & (x <= 1.0)):
        raise ValueError("loading factor must lie in (0, 1]")
    return x


def scalar_like(template, value):
    """value as a float when template is a scalar, else value unchanged."""
    if np.ndim(template) == 0:
        return float(np.asarray(value).reshape(-1)[0])
    return value


def bracketed_root(g, lo, hi):
    """A root of the scalar function g in [lo, hi], or None.

    Scans g at 64 log-spaced points for the first sign change (None if there
    is none), then bisects that bracket until it is 1e-14 * max(1, upper end)
    wide, 200 steps at most, and returns the bracket's midpoint.
    """
    grid = np.geomspace(lo, hi, 64)
    vals = np.asarray([g(x) for x in grid])
    change = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
    if change.size == 0:
        return None
    a, b = float(grid[change[0]]), float(grid[change[0] + 1])
    fa = g(a)
    for _ in range(200):
        m = 0.5 * (a + b)
        fm = g(m)
        if fa * fm <= 0.0:
            b = m
        else:
            a, fa = m, fm
        if b - a <= 1e-14 * max(1.0, b):
            break
    return 0.5 * (a + b)

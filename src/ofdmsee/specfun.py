"""Special functions and quadrature used by the analytic link formulas.

The exponentially scaled modified Bessel function of the first kind I0
(scipy's i0e), the first-order Marcum Q function by ridge quadrature of the
noncentral amplitude density, both real branches of the Lambert W function,
fixed Gauss-Legendre panels with an error check for vectorized integrands,
and the blocked per-row Gauss-Legendre rule that both Bessel-kernel
integrals (Marcum Q1 here, the unclipped density in se_engine) run on.
"""

import enum
import math

import numpy as np
from scipy.special import i0e as bessel_i0e  # e^{-|x|} I0(x), even in x

from ._common import scalar_like

__all__ = [
    "WBranch",
    "IntegrationError",
    "bessel_i0e",
    "marcum_q1",
    "marcum_q1_complement",
    "lambert_w",
    "gauss_panels",
]


class WBranch(enum.Enum):
    """Real branches of the Lambert W function."""

    PRINCIPAL = "principal"        # W0, defined for q >= -1/e
    LOWER_NEGATIVE = "lower"       # W-1, defined for -1/e <= q < 0


class IntegrationError(RuntimeError):
    """Quadrature did not reach the requested tolerance.

    Carries the best available estimate and its error bound so callers can
    decide whether to proceed anyway.
    """

    def __init__(self, message, estimate=None, error_bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


# ---------------------------------------------------------------------------
# Row quadrature

_GL_CACHE = {}

# rows integrated together by _row_quadrature: a block's temporaries are
# _BLOCK_ROWS x order doubles (tens of KB), so they stay in cache and reuse
# the allocator's pages instead of faulting in fresh ones per call
_BLOCK_ROWS = 64


def _leggauss(order):
    if order not in _GL_CACHE:
        _GL_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _GL_CACHE[order]


def _row_quadrature(integrand, lo, hi, order):
    """Integral of each row i over [lo[i], hi[i]], order-node Gauss-Legendre.

    integrand(x, rows) receives the abscissae of the rows selected by the
    slice `rows` as an array of shape (block, order) and returns the values
    there, same shape. Rows go in blocks of _BLOCK_ROWS. Each row is reduced
    on its own (einsum, not BLAS gemv, whose summation order depends on the
    row's place in the block), so a row's integral does not depend on which
    other rows share its call.
    """
    t, w = _leggauss(order)
    out = np.empty(lo.shape)
    for start in range(0, lo.size, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        mid = 0.5 * (hi[rows] + lo[rows])
        half = 0.5 * (hi[rows] - lo[rows])
        x = mid[:, None] + half[:, None] * t
        out[rows] = half * np.einsum("ij,j->i", integrand(x, rows), w)
    return out


# ---------------------------------------------------------------------------
# Marcum Q1


def marcum_q1_complement(a, b):
    """1 - Q1(a, b) for a >= 0 (scalar or array) and a scalar b >= 0.

    Ridge quadrature of the noncentral amplitude density
    x exp(-(x-a)^2/2) i0e(a x) over [0, b], restricted to the window where it
    carries mass; accurate across regimes because the window always covers
    the part of [0, b] within ~42 units of the ridge at x = a. A small
    complement is integrated directly and keeps its relative accuracy.
    """
    arr = np.atleast_1d(np.asarray(a, dtype=float))
    b = float(b)
    if np.any(~np.isfinite(arr)) or np.any(arr < 0.0) or not math.isfinite(b) or b < 0.0:
        raise ValueError("marcum_q1 requires finite a, b >= 0")
    hi = np.minimum(b, arr + 42.0)
    lo = np.where(b < arr - 42.0, np.maximum(0.0, b - 84.0), np.maximum(0.0, arr - 42.0))
    hi = np.maximum(hi, lo)

    def density(x, rows):
        ar = arr[rows, None]
        return x * np.exp(-0.5 * (x - ar) ** 2) * bessel_i0e(ar * x)

    with np.errstate(under="ignore"):
        c = _row_quadrature(density, lo, hi, 240)
    return scalar_like(a, np.clip(c, 0.0, 1.0))


def marcum_q1(a, b):
    """First-order Marcum Q function Q1(a, b) = 1 - marcum_q1_complement(a, b).

    Accurate in absolute terms (about 1e-14); a Q1 far below that, deep in
    the upper tail b >> a, reads as 0.
    """
    return 1.0 - marcum_q1_complement(a, b)


# ---------------------------------------------------------------------------
# Lambert W

_INV_E = math.exp(-1.0)


def _w_branch_point_series(q, sign):
    # expansion of W about q = -1/e in p = sign * sqrt(2(1 + e q));
    # sign +1 gives the principal branch, -1 the lower branch
    p = sign * math.sqrt(2.0 * (math.e * q + 1.0))
    return -1.0 + p * (
        1.0
        + p
        * (
            -1.0 / 3.0
            + p
            * (
                11.0 / 72.0
                + p * (-43.0 / 540.0 + p * (769.0 / 17280.0 + p * (-221.0 / 8505.0)))
            )
        )
    )


def _halley_w(w, q):
    # Halley iteration on f(w) = w e^w - q; quadratic-plus convergence
    for _ in range(80):
        ew = math.exp(w)
        f = w * ew - q
        if abs(f) <= 1e-13 * max(1.0, abs(q)):
            # one polishing Newton step
            denom = ew * (w + 1.0)
            if denom != 0.0:
                w -= (w * ew - q) / denom
            return w
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1) if wp1 != 0.0 else ew
        w -= f / denom
    return w


def lambert_w(q, branch=WBranch.PRINCIPAL):
    """Real Lambert W: solve w * exp(w) = q on the requested branch.

    PRINCIPAL covers q >= -1/e (w >= -1); LOWER_NEGATIVE covers
    -1/e <= q < 0 (w <= -1). Residual |w e^w - q| <= 1e-12 * max(1, |q|).
    """
    if isinstance(branch, str):
        branch = WBranch(branch)
    q = float(q)
    if not math.isfinite(q):
        raise ValueError("lambert_w requires finite q")
    if q < -_INV_E - 1e-14:
        raise ValueError("lambert_w: q below -1/e is outside both real branches")
    q = max(q, -_INV_E)
    if branch is WBranch.PRINCIPAL:
        if q == -_INV_E:
            return -1.0
        if -_INV_E < q < -_INV_E + 3.7e-5:
            # branch point is quadratically flat: iterate in the expansion
            # variable instead (series truncation ~ p^7 < 2e-16)
            return _w_branch_point_series(q, +1.0)
        if abs(q) < 1e-3:
            w0 = q * (1.0 - q + 1.5 * q * q)
        elif q < 0.0 or q < _INV_E:
            p = math.sqrt(2.0 * (math.e * q + 1.0))
            w0 = -1.0 + p - p * p / 3.0 + 11.0 * p ** 3 / 72.0
        else:
            l1 = math.log(q)
            l2 = math.log(max(l1, 1e-300)) if l1 > 0 else 0.0
            w0 = l1 - l2 if l1 > 1.0 else 0.5
        return _halley_w(w0, q)
    # lower branch
    if q >= 0.0:
        raise ValueError("lambert_w lower branch requires -1/e <= q < 0")
    if q == -_INV_E:
        return -1.0
    if q < -_INV_E + 3.7e-5:
        return _w_branch_point_series(q, -1.0)
    if q > -0.27:
        # log-based guess, refined; valid as q -> 0-
        l1 = math.log(-q)
        w0 = l1 - math.log(-l1)
    else:
        p = -math.sqrt(2.0 * (math.e * q + 1.0))
        w0 = -1.0 + p - p * p / 3.0 + 11.0 * p ** 3 / 72.0
    w = _halley_w(min(w0, -1.0000001), q)
    return w


# ---------------------------------------------------------------------------
# Quadrature


def gauss_panels(f, edges, order=32, check=True, tol=None, max_refine=3):
    """Integrate a vectorized function over the panels defined by `edges`.

    f must accept an ndarray of abscissae and return values of the same
    shape. With check=True the integral is recomputed at 1.5x the order and
    panels are split until the two estimates agree to `tol` (absolute);
    raises IntegrationError when refinement runs out.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) < 0):
        raise ValueError("edges must be a nondecreasing 1-D array")
    edges = edges[np.concatenate(([True], np.diff(edges) > 0))]
    if edges.size < 2:
        return 0.0

    def _eval(ed, n):
        t, w = _leggauss(n)
        mid = 0.5 * (ed[1:] + ed[:-1])
        half = 0.5 * (ed[1:] - ed[:-1])
        x = mid[:, None] + half[:, None] * t[None, :]
        vals = f(x.ravel()).reshape(x.shape)
        return float(np.sum(half[:, None] * w[None, :] * vals))

    v1 = _eval(edges, order)
    if not check:
        return v1
    if tol is None:
        tol = 1e-9 * max(1.0, abs(v1))
    for _ in range(max_refine):
        v2 = _eval(edges, order + order // 2)
        if abs(v2 - v1) <= tol:
            return v2
        # split every panel and try again
        mids = 0.5 * (edges[1:] + edges[:-1])
        edges = np.sort(np.concatenate([edges, mids]))
        v1 = _eval(edges, order)
    v2 = _eval(edges, order + order // 2)
    if abs(v2 - v1) <= tol:
        return v2
    raise IntegrationError(
        "panel quadrature failed to meet tolerance",
        estimate=v2,
        error_bound=abs(v2 - v1),
    )

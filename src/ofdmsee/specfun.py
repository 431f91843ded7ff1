"""Special functions and quadrature used by the analytic link formulas.

The exponentially scaled modified Bessel functions e^{-|x|} I0(x) and
e^{-x} I1(x), the complement 1 - Q1 of the first-order Marcum Q function as
one cumulative integral of its derivative in the noncentrality (an I1
kernel), both real branches of the Lambert W function, and fixed panels with
an embedded error check for vectorized integrands (a Gauss-Legendre pair, or
the Gauss-Kronrod 7/15 pair of the entropy quadrature), one integral at a
time or a batch of them from one call of the integrand per pass. The Marcum
Q1 complement is the package's one Bessel-kernel integral: the unclipped
received density in se_engine is a Gaussian times it. Its body,
_marcum_core, takes the lattice grouping from its caller (the b of each
lattice, and each row's lattice): marcum_q1_complement checks its arguments
and groups them by b, se_engine's density core passes one lattice per
loading. Each call evaluates every lattice panel and every row's partial
panel in one pass of the I1 kernel. gauss_panels, one integral by the
Gauss-Legendre pair, has no caller in the package and is not exported: the
tests use it as an independent quadrature.

The two Bessel kernels sum the Hankel expansion from argument 50 up, within
3 ulp of scipy.special's i0e and i1e, and call those ufuncs below 50.
Importing scipy.special takes about a quarter second, so the kernels import
it on the first call with an argument below 50, and a run whose arguments
all lie above never loads it. Where a kernel value is multiplied by a
Gaussian factor, a call holding an argument below 50 evaluates the kernel
only where that factor is nonzero (_kernel_where), so a run whose small
arguments all meet factors of exactly 0 never loads it either.
"""

import enum
import itertools
import math

import numpy as np

from ._common import scalar_like

__all__ = [
    "WBranch",
    "IntegrationError",
    "bessel_i0e",
    "marcum_q1_complement",
    "lambert_w",
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


_GL_CACHE = {}


def _leggauss(order):
    if order not in _GL_CACHE:
        _GL_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _GL_CACHE[order]


# ---------------------------------------------------------------------------
# Scaled Bessel functions

# the Hankel expansion serves arguments in [_HANKEL_LO, _HANKEL_HI]: at 50 its
# first omitted term, c_13 / 50^13, is below 2e-18 of the sum, and above
# 1e300 the factor 2 pi x nears overflow (at 2.9e307)
_HANKEL_LO = 50.0
_HANKEL_HI = 1e300
_HANKEL_TERMS = 13

_TWO_PI = 2.0 * math.pi


def _hankel_coefficients(nu):
    # c_k = prod_{j=1..k} ((2j - 1)^2 - 4 nu^2) / (k! 8^k), each rounded once
    # from exact integers; kept as 0-d arrays, which numpy adds to an array
    # faster than Python floats
    return tuple(
        np.array(
            math.prod((2 * j - 1) ** 2 - 4 * nu * nu for j in range(1, k + 1))
            / (math.factorial(k) * 8**k)
        )
        for k in range(_HANKEL_TERMS)
    )


_HANKEL_I0 = _hankel_coefficients(0)
_HANKEL_I1 = _hankel_coefficients(1)


def _hankel(x, coeffs):
    # e^{-x} I_nu(x) = (2 pi x)^{-1/2} sum_k c_k / x^k (DLMF 10.40.1; A&S
    # 9.7.1) for large x, by Horner on 1/x in place
    t = 1.0 / x
    s = coeffs[-1] * t
    s += coeffs[-2]
    for c in coeffs[-3::-1]:
        s *= t
        s += c
    return s / np.sqrt(_TWO_PI * x)


def _scaled_bessel(x, coeffs, name):
    # per element: the Hankel expansion inside its range, scipy.special's
    # ufunc `name` outside it (small, negative, huge or NaN arguments); a
    # call wholly on one side runs that side alone, so a value never depends
    # on the other elements of its call
    if not x.size:
        return np.empty(x.shape)
    lo, hi = x.min(), x.max()
    if lo >= _HANKEL_LO and hi <= _HANKEL_HI:
        return _hankel(x, coeffs)
    import scipy.special  # first needed here; see the module docstring

    kernel = getattr(scipy.special, name)
    if hi < _HANKEL_LO or x.ndim == 0:
        # wholly below the range, or one value outside it
        return kernel(x)
    inside = (x >= _HANKEL_LO) & (x <= _HANKEL_HI)
    out = np.empty(x.shape)
    out[inside] = _hankel(x[inside], coeffs)
    outside = ~inside
    out[outside] = kernel(x[outside])
    return out


def bessel_i0e(x):
    """e^{-|x|} I0(x), scalar or array: scipy.special.i0e's values, within
    3 ulp where 50 <= |x| <= 1e300 (there from the Hankel expansion)."""
    return _scaled_bessel(np.abs(np.asarray(x, dtype=float)), _HANKEL_I0, "i0e")


def bessel_i1e(x):
    """e^{-|x|} I1(x), scalar or array: scipy.special.i1e's values, within
    3 ulp where 50 <= x <= 1e300 (there from the Hankel expansion)."""
    return _scaled_bessel(np.asarray(x, dtype=float), _HANKEL_I1, "i1e")


# ---------------------------------------------------------------------------
# Marcum Q1

# marcum_q1_complement's lattice: panels _PANEL_H wide at b + k * _PANEL_H,
# _PANEL_NODES Gauss-Legendre nodes each
_PANEL_H = 0.5
_PANEL_NODES = 8

# b - a beyond which 1 - Q1(a, b) rounds to exactly 1.0: Q1(a, b) <=
# exp(-(b - a)^2 / 2) < 3e-18 there, below half an ulp of 1.0 (2^-54)
_ONE_CUT = 9.0

# the Marcum core's kernel pass runs in chunks of _CHUNK elements, the nodes
# of _BLOCK_ROWS panels, so that its temporaries stay small
_BLOCK_ROWS = 512
_CHUNK = _BLOCK_ROWS * _PANEL_NODES

# the lattice's top, b + 40, in panels: the integrand underflows above; and
# the lowest panel its node table starts from: a + 9 >= b puts a - b at -9 or
# above, up to rounding, so a row's partial panel ends at t_k, k >= -18
_TOP = int(40.0 / _PANEL_H)
_BOTTOM = -int(_ONE_CUT / _PANEL_H) - 2


def _lattice(k0):
    # the panels' Gauss-Legendre nodes and weights on [-1, 1]; and the offsets
    # u = t - b of the nodes of every lattice panel from t_k0 to the top, with
    # their Gaussian factors exp(-u^2/2), each as (panel, node): rows of a
    # table taken once, from _BOTTOM or any lower k0 asked for
    table = _GL_CACHE.get("lattice")
    if table is None or table[0] > k0:
        bottom = min(k0, _BOTTOM)
        x, w = _leggauss(_PANEL_NODES)
        h2 = 0.5 * _PANEL_H
        u = (np.arange(bottom, _TOP) * _PANEL_H + h2)[:, None] + h2 * x
        table = _GL_CACHE["lattice"] = bottom, x, w, u, np.exp(-0.5 * u * u)
    bottom, x, w, u, gauss = table
    return x, w, u[k0 - bottom :], gauss[k0 - bottom :]


def _kernel_where(kernel, x, factor):
    # kernel(x), for a product factor * kernel(x): when x holds an argument
    # below the Hankel range, the one case that imports scipy, the kernel runs
    # only where the factor is nonzero and reads 0 elsewhere; the kernels are
    # finite, so every product is the same float either way
    if not x.size or x.min() >= _HANKEL_LO:
        return kernel(x)
    out = np.zeros(x.shape)
    live = factor > 0.0
    out[live] = kernel(x[live])
    return out


def _dq1(b, u, gauss):
    # dQ1/dt = b exp(-u^2/2) i1e(b (b + u)) at t = b + u, given
    # gauss = exp(-u^2/2); b broadcasts against u
    return b * gauss * _kernel_where(bessel_i1e, b * (b + u), gauss)


def _marcum_core(a, lattice_b, row_lattice):
    """1 - Q1(a_i, b_i) for a 1-D array a >= 0, unchecked, with the lattice
    grouping supplied by the caller: b_i is lattice_b, a float, when
    row_lattice is None (one lattice), else lattice_b[row_lattice[i]].

    marcum_q1_complement's body: rows with a_i + 9 < b_i read 1.0; the full
    panels of every lattice that holds one of the other rows, and each of
    those rows' partial panel, take one kernel pass, in chunks of _CHUNK
    elements.
    """
    one = row_lattice is None
    b_rows = lattice_b if one else lattice_b[row_lattice]
    out = np.ones(a.shape)
    edge = (a + _ONE_CUT >= b_rows).nonzero()[0]
    if not edge.size:
        return out
    if not one:
        # the lattices some edge row lies on, renumbered in order
        b_rows, row_lattice = b_rows[edge], row_lattice[edge]
        used = np.zeros(lattice_b.size, dtype=bool)
        used[row_lattice] = True
        if not used.all():
            lattice_b, row_lattice = lattice_b[used], (np.cumsum(used) - 1)[row_lattice]
    u = a[edge] - b_rows
    # row i's partial panel ends at lattice point k[i], at most the top
    k = np.minimum(np.floor(u / _PANEL_H).astype(int) + 1, _TOP)
    k0 = int(k.min())
    hi = np.maximum(u, k * _PANEL_H)
    mid, half = 0.5 * (hi + u), 0.5 * (hi - u)
    # one kernel pass, in chunks of _CHUNK elements, over the nodes of every
    # full panel from t_k0 to the top, per lattice as (lattice, panel, node),
    # then of each row's partial panel [a, t_k]: the lattice's offsets t - b
    # and their Gaussian factors come from _lattice's table, and a chunk's
    # partial panels are formed, and summed per row, within the chunk
    x, w, lattice_u, lattice_gauss = _lattice(k0)
    n_lattices = 1 if one else lattice_b.size
    per_lattice = lattice_u.size
    n_full = n_lattices * per_lattice
    full_u, full_gauss, full_b = lattice_u.ravel(), lattice_gauss.ravel(), lattice_b
    if not one:
        full_u, full_gauss = np.tile(full_u, n_lattices), np.tile(full_gauss, n_lattices)
        full_b = lattice_b.repeat(per_lattice)
    full_vals = np.empty(n_full)
    partial_sums = np.empty(u.size)
    for start in range(0, n_full + u.size * _PANEL_NODES, _CHUNK):
        lat = slice(start, min(start + _CHUNK, n_full))
        rows = slice(max(start - n_full, 0) // _PANEL_NODES, max(start + _CHUNK - n_full, 0) // _PANEL_NODES)
        row_u = (mid[rows, None] + half[rows, None] * x).ravel()
        vals = _dq1(
            full_b if one else np.concatenate([full_b[lat], b_rows[rows].repeat(_PANEL_NODES)]),
            np.concatenate([full_u[lat], row_u]),
            np.concatenate([full_gauss[lat], np.exp(-0.5 * row_u * row_u)]),
        )
        n_lat = max(lat.stop - start, 0)
        full_vals[lat] = vals[:n_lat]
        partial_sums[rows] = np.einsum("in,n->i", vals[n_lat:].reshape(-1, _PANEL_NODES), w)
    # per lattice, each lattice point's sum of the full panels above it,
    # taken top down; a row adds its partial panel to its point's sum
    full = (0.5 * _PANEL_H) * np.einsum("bpn,n->bp", full_vals.reshape(n_lattices, -1, _PANEL_NODES), w)
    above = np.zeros((n_lattices, _TOP - k0 + 1))
    above[:, :-1] = full[:, ::-1].cumsum(axis=1)[:, ::-1]
    c = above[0 if one else row_lattice, k - k0]
    c += half * partial_sums
    # a sum of positive panels, kept within [0, 1]
    out[edge] = np.minimum(np.maximum(c, 0.0), 1.0)
    return out


def marcum_q1_complement(a, b):
    """1 - Q1(a, b) for a >= 0 (scalar or array of any shape) and b >= 0 (a scalar,
    or an array that broadcasts to a's shape: one b per entry of a).

    1 - Q1(a, b) = int_a^inf dQ1/dt dt, whose integrand is positive, so small
    complements keep their relative accuracy. Panels of 8 nodes on the lattice
    t_k = b + k/2, which depends on b alone, run up to b + 40 (the integrand
    underflows above) and are summed from the top down, once per distinct b of
    the call; a row adds its partial panel [a, t_k] (t_k the first lattice
    point above a) to the sum above t_k, so its value does not depend on the
    other rows of the call. Every lattice panel and every partial panel of the
    call take one pass of the Bessel kernel. Where b - a > 9,
    Q1(a, b) <= exp(-(b - a)^2 / 2) < 3e-18, so 1 - Q1 rounds to 1.0, and the
    complement is exactly 1.0.

    Relative error against a 50-digit Bessel series: 7e-15 down to 1e-16, 9e-12
    at 1e-33, 2.7e-10 at 1e-51, 1.4e-8 at 1e-89 (a - b = 20); 0 past a - b = 38.
    """
    arr = np.asarray(a, dtype=float).ravel()
    bb = np.asarray(b, dtype=float)
    if not ((np.isfinite(arr) & (arr >= 0.0)).all() and (np.isfinite(bb) & (bb >= 0.0)).all()):
        raise ValueError("marcum_q1_complement requires finite a, b >= 0")
    lattice_b, row_lattice = np.unique(np.broadcast_to(bb, np.shape(a)).ravel(), return_inverse=True)
    with np.errstate(under="ignore"):
        out = _marcum_core(arr, lattice_b, row_lattice)
    return scalar_like(a, out.reshape(np.shape(a)))


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


# rounds of panel splitting gauss_panels tries before it gives up
_MAX_REFINE = 3

# the Gauss-Kronrod 7/15 pair on [-1, 1] (Kronrod 1965; Laurie 1997), the
# digits scipy.integrate's quad_vec carries: the Kronrod rule's nodes from
# the end inwards and their weights, and the weights of the 7-node Gauss
# rule, which takes every other one of those nodes from the second on
_GK15_NODES = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_GK15_WEIGHTS = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_G7_WEIGHTS = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


def _gk15():
    # (nodes, weights) of the 15 nodes in ascending order, the weights as
    # columns (value, check): the Kronrod value checked by its embedded Gauss
    # rule
    half = np.asarray(_GK15_NODES)
    nodes = np.concatenate([-half[:-1], half[::-1]])
    kronrod = np.asarray(_GK15_WEIGHTS)
    gauss = np.zeros(15)
    gauss[1::2] = np.concatenate([_G7_WEIGHTS, _G7_WEIGHTS[-2::-1]])
    return nodes, np.stack([np.concatenate([kronrod[:-1], kronrod[::-1]]), gauss], axis=1)


# the entropy quadrature's rule: 15 integrand values per panel give the
# Kronrod value and its 7-node Gauss check
_GK15 = _gk15()


def _gauss_pair(order):
    # (nodes, weights as columns (value, check)): Gauss-Legendre at 1.5x the
    # order checked by Gauss-Legendre at the order, both nodes sets side by side
    t_lo, w_lo = _leggauss(order)
    t_hi, w_hi = _leggauss(order + order // 2)
    return np.concatenate([t_lo, t_hi]), np.stack(
        [np.concatenate([np.zeros(order), w_hi]), np.concatenate([w_lo, np.zeros(t_hi.size)])], axis=1
    )


def gauss_panels(f, edges, order=32, tol=None):
    """Integrate a vectorized function over the panels defined by `edges`.

    f must accept an ndarray of abscissae and return values of the same
    shape. One call of f per pass gives the integral at `order` nodes and at
    1.5x the order; the panels are split until the two estimates agree to
    `tol` (absolute; by default 1e-9 * max(1, |first estimate|)), and the
    higher-order one is returned. Raises IntegrationError when _MAX_REFINE
    rounds of splitting do not reach it, and ValueError for an order below 2,
    whose check rule would be the rule itself. This is _gauss_panel_rows on a
    single row.
    """
    if order < 2:
        raise ValueError("gauss_panels needs order >= 2, so its check differs from its rule")
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) < 0):
        raise ValueError("edges must be a nondecreasing 1-D array")
    edges = edges[np.concatenate(([True], np.diff(edges) > 0))]
    if edges.size < 2:
        return 0.0
    value = _gauss_panel_rows(lambda x, _rows: f(x), [edges], _gauss_pair(order), tol)[0]
    if isinstance(value, IntegrationError):
        raise value
    return value


def _split(edges):
    # every panel cut in two at its midpoint
    mids = 0.5 * (edges[1:] + edges[:-1])
    return np.sort(np.concatenate([edges, mids]))


def _gauss_panel_rows(f, edge_rows, rule, tol):
    """gauss_panels on several integrals at once, by an embedded rule: row i
    over the panels of edge_rows[i] (strictly increasing), each row refined
    on its own.

    rule is (nodes, weights) on [-1, 1], the weights an array of two columns:
    the value and its check are two weightings of the same integrand values
    (_GK15, or gauss_panels' Gauss pair). f(x, rows) gets the nodes of every panel of
    every row still open in one array, and for each abscissa the index of its
    row. A row's value and check are each summed over that row's panels
    alone, so its result is the one it gets integrated by itself. The default
    tol is 1e-9 * max(1, |check|). Returns one entry per row: the value, or
    the IntegrationError gauss_panels would raise.
    """
    nodes, weights = rule
    edges = list(edge_rows)
    tols = [tol] * len(edges)
    out = [None] * len(edges)
    open_rows = list(range(len(edges)))
    for rnd in range(_MAX_REFINE + 1):
        panels = [edges[i].size - 1 for i in open_rows]
        lo = np.concatenate([edges[i][:-1] for i in open_rows])
        hi = np.concatenate([edges[i][1:] for i in open_rows])
        half = 0.5 * (hi - lo)
        x = (0.5 * (hi + lo))[:, None] + half[:, None] * nodes
        vals = f(x.ravel(), np.repeat(open_rows, [n * nodes.size for n in panels])).reshape(x.shape)
        # each panel's value and check, then each row's sums over its panels
        first = list(itertools.accumulate(panels[:-1], initial=0))
        sums = np.add.reduceat(half[:, None] * np.einsum("pn,nk->pk", vals, weights), first)
        still_open = []
        for i, (value, check) in zip(open_rows, sums.tolist()):
            if tols[i] is None:
                tols[i] = 1e-9 * max(1.0, abs(check))
            if abs(value - check) <= tols[i]:
                out[i] = value
            elif rnd == _MAX_REFINE:
                out[i] = IntegrationError(
                    "panel quadrature failed to meet tolerance",
                    estimate=value,
                    error_bound=abs(value - check),
                )
            else:
                edges[i] = _split(edges[i])
                still_open.append(i)
        open_rows = still_open
        if not open_rows:
            break
    return out
